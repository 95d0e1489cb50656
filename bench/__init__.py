"""The performance benchmark (see bench/README.md; run bench/run.py)."""
