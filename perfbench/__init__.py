"""Benchmark of the diffnet toolkit; ``python3 perfbench/run.py --help``."""
