"""Experiment harness: one module per paper table/figure.

Each module exposes ``run_*`` functions returning plain data (arrays,
dataclasses, ensemble summaries), plus ``run(config) -> dict`` and
``render(data) -> str``: the entry points :mod:`repro.experiments.registry`
calls.  The ``benchmarks/`` tree asserts each one's shape under pytest;
run one figure from the command line with:

    python -m repro run fig14
"""
