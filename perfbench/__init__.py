"""The repository's benchmark: two workloads, untraced and traced runs.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` explains
the workloads and metrics.
"""
