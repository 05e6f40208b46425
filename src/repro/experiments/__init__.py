"""Experiment harness: one module per paper table/figure.

Each module exposes a ``run_*`` function returning plain data (arrays,
dataclasses) plus a ``report()`` helper that prints the same rows/series
the paper plots.  The ``benchmarks/`` tree asserts each one's shape
under pytest; the modules are also directly runnable:

    python -m repro.experiments.fig14_sensitivity
"""
