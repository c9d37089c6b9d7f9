"""Benchmark of the islocc toolkit: end-to-end pass times and per-layer traces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the root of a checkout; ``BENCHMARK.json`` lists the workloads and metrics.
"""
