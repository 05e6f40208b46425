"""repro-lint: domain-aware static analysis for the mmReliable reproduction.

The analyzer enforces the invariants the paper's measured-vs-theory
agreement rests on and that plain linters cannot see:

* **RL0xx — RNG discipline.**  Bit-reproducible ensembles require every
  random draw to come from a generator keyed (directly or through a
  named substream) by the run seed.  Module-level ``np.random.*`` calls,
  bare ``random``/``time.time()`` in the deterministic core, unseeded or
  constant-seeded ``default_rng`` constructions, and inline "magic
  offset" seed arithmetic all silently break that.
* **RL1xx — unit hygiene.**  Probing, super-resolution, and beam
  maintenance mix dB, dBm, and linear power; an inline ``10**(x/10)``
  with the wrong denominator (or a dB value added to a linear one) skews
  every reliability curve downstream.  Conversions belong in
  :mod:`repro.utils.units`.
* **RL2xx — telemetry & contract checks.**  Every emitted event kind
  must be registered on ``EventKind`` (and vice versa), probe-budget
  charging is restricted to the beam-management layer, and cache keys
  must be content-derived (never ``id()``/``repr()`` of arrays).
* **RL3xx — purity & mutability.**  Mutable default arguments and
  ``object.__setattr__`` escapes from frozen dataclasses outside
  ``__post_init__``.
* **RL4xx — module hygiene.**  Dead imports, missing ``__all__`` in the
  public-surface packages, and import cycles.
* **RL5xx — async hygiene.**  Blocking calls inside ``async def``
  (directly, or through the cross-module call graph for RL505), dropped
  task handles, and awaits under a threading lock.
* **RL6xx — race detection.**  Unlocked writes to module-level state from
  thread-pool context, lock-owning classes touching a guarded field
  outside the lock, and unguarded lazy init.

Usage: ``repro lint [paths ...]`` (see ``repro lint --help``), or
``python -m repro_lint`` with ``tools/`` on ``PYTHONPATH``.  The policy
(default surface and rule scopes) is :class:`LintConfig`'s defaults; the
one way to excuse a finding is ``# repro-lint: disable=RLxxx`` on the
line it is reported at.
"""

from repro_lint.core import Finding
from repro_lint.config import LintConfig
from repro_lint.engine import LintResult, lint_paths
from repro_lint.registry import ALL_RULES

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintConfig",
    "LintResult",
    "lint_paths",
    "__version__",
]
