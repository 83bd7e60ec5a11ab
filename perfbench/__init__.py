"""Whole-tap benchmark for the Ruru reproduction.

Drives the stack that ``ruru live`` deploys, closed-loop from one
process, and reports end-to-end metrics (untraced run) or per-layer
metrics from the benchmark's own spans (traced run). Entry point:
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see ``perfbench/README.md``.
"""
