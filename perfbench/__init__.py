"""Benchmark of the selfishlevel toolkit: workloads, exactness gates and tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
