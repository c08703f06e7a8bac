"""Benchmark harness for coil: seeded workloads, end-to-end metrics, traced layers.

Run ``python3 coilbench/run.py --workload all`` from the repository root.
"""
