"""The repository benchmark: see ``repobench/run.py``."""
