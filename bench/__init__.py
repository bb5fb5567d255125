"""The repo benchmark: four workloads, outside-in per-layer attribution.

See ``bench/README.md``; the entry point is ``python3 bench/run.py``.
"""
