"""Benchmark harness for radsolve; run it with `python3 radbench/run.py`."""
