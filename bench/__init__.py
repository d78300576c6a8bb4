"""The repository benchmark: four workloads on two clocks.

Run with ``python3 -m bench run``; see ``bench/README.md``.
"""
