"""End-to-end benchmark of the HyperLoop reproduction (see README.md).

``run.py`` is the one command; ``BENCHMARK.json`` at the repository root is
its contract.
"""
