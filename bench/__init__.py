"""Benchmark harness for fvss: seeded workloads, correctness gate, tracer.

Run it with ``python3 bench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see run.py.
"""
