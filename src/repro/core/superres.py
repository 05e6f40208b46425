"""Super-resolution per-beam gain estimation (paper Section 4.3, Eq. 23).

A multi-beam transmission reaches the receiver as a superposition of
delayed, attenuated copies — one per beam.  The sampled CIR is a sum of
sinc pulses (Eq. 22) whose ToF spacing can be *below* the bandwidth
resolution (2.5 ns at 400 MHz), so naive peak-picking cannot separate
them.  mmReliable instead solves the ridge-regularized least squares

    alpha = argmin || h_CIR - S alpha ||^2 + lambda ||alpha||^2

where ``S`` holds one sinc column per known candidate ToF.  The key trick
making this well-posed: the *relative* ToFs between beams are known from
training and drift slowly, so after anchoring the strongest tap the
dictionary has only K columns (plus a small jitter search around the
anchor).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.channel.wideband import (
    sinc_dictionary,
    stacked_dirichlet_dictionaries,
    stacked_sinc_dictionaries,
)
from repro.perf.cache import BoundedCache
from repro.utils.units import power_linear_to_db

#: The dictionary kernels a fit can use.
_KERNELS = ("dirichlet", "sinc")

#: Fine ToF scoring grids of :func:`estimate_pulse_tof`, keyed on
#: (coarse tap index, bandwidth, taps, kernel, fine step, search span):
#: every establish fits each beam's pulse, and a user's beams keep
#: landing on the same few taps.  One entry is about 157 KB at 64 taps.
_TOF_GRID_CACHE = BoundedCache("superres.tof_grid", maxsize=32)

#: Candidate tensors whose CIR-independent half of the ridge problem one
#: resolver keeps (least recently used first out).  While the tracked
#: anchor holds still every round re-solves the same tensor; the spare
#: entries cover re-acquisition and active-beam changes.
FACTORIZATION_CACHE_SIZE = 8

_NO_OFFSET = np.array([0.0])
_NO_OFFSET.setflags(write=False)  # shared by every resolver

#: ``(candidate delays (C, K), their dictionaries (C, F, K), the
#: conjugate transpose (C, K, F), ridge Gram matrices (C, K, K))``.
_Factorization = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def ridge_solve(
    dictionary: np.ndarray, observation: np.ndarray, regularization: float
) -> np.ndarray:
    """Solve ``min ||y - S a||^2 + lam ||a||^2`` (``S`` may be complex)."""
    if regularization < 0:
        raise ValueError(
            f"regularization must be >= 0, got {regularization!r}"
        )
    s = np.asarray(dictionary, dtype=complex)
    y = np.asarray(observation, dtype=complex)
    if s.shape[0] != y.shape[0]:
        raise ValueError(
            f"dictionary rows {s.shape[0]} != observation length {y.shape[0]}"
        )
    gram = np.conj(s.T) @ s + regularization * np.eye(s.shape[1])
    return np.linalg.solve(gram, np.conj(s.T) @ y)


def superres_gains(
    cir: np.ndarray,
    candidate_delays_s: Sequence[float],
    bandwidth_hz: float,
    regularization: float = 1e-4,
    start_time_s: float = 0.0,
) -> np.ndarray:
    """Per-beam complex gains ``alpha_k`` from a sampled CIR (Eq. 23)."""
    s = sinc_dictionary(
        candidate_delays_s, bandwidth_hz, len(cir), start_time_s
    )
    return ridge_solve(s, cir, regularization)


def estimate_pulse_tof(
    cir: np.ndarray,
    bandwidth_hz: float,
    kernel: str = "dirichlet",
    fine_step_taps: float = 0.02,
    search_span_taps: float = 1.5,
) -> float:
    """Sub-tap ToF of the dominant pulse in a CIR.

    Coarse-locates the pulse at the strongest tap, then slides a single
    dictionary column over a fine grid and returns the delay minimizing
    the rank-1 fit residual.  Used at establishment to anchor the
    super-resolver on each beam's absolute ToF far more precisely than
    the ``1/B`` tap grid allows.  The whole fine grid is scored with one
    matrix-vector product; the first of tied maxima wins.  The grid's
    columns depend only on the coarse tap, so they come from the
    ``superres.tof_grid`` cache.
    """
    cir = np.asarray(cir, dtype=complex)
    if cir.ndim != 1 or cir.size < 2:
        raise ValueError(f"CIR must be 1-D with >= 2 taps, got {cir.shape}")
    if kernel not in _KERNELS:
        raise ValueError(
            f"kernel must be 'dirichlet' or 'sinc', got {kernel!r}"
        )
    coarse_index = int(np.argmax(np.abs(cir)))
    grid, conjugates, norms = _TOF_GRID_CACHE.get_or_build(
        (
            coarse_index, float(bandwidth_hz), cir.size, kernel,
            float(fine_step_taps), float(search_span_taps),
        ),
        lambda: _tof_grid(
            coarse_index, bandwidth_hz, cir.size, kernel,
            fine_step_taps, search_span_taps,
        ),
    )
    # Rank-1 LS: the explained energy |<col, cir>|^2 / ||col||^2.
    scores = np.abs(conjugates @ cir) ** 2 / norms
    return float(grid[int(np.argmax(scores))])


def _tof_grid(
    coarse_index: int,
    bandwidth_hz: float,
    num_taps: int,
    kernel: str,
    fine_step_taps: float,
    search_span_taps: float,
) -> Tuple[np.ndarray, ...]:
    """``(grid (G,), conjugated columns (G, F), column norms (G,))``.

    Everything :func:`estimate_pulse_tof` scores that does not depend on
    the CIR, each array frozen for sharing.
    """
    tap = 1.0 / bandwidth_hz
    coarse = coarse_index * tap
    grid = coarse + np.arange(
        -search_span_taps, search_span_taps + fine_step_taps, fine_step_taps
    ) * tap
    grid = grid[grid >= 0]
    if kernel == "dirichlet":
        stacked = stacked_dirichlet_dictionaries(
            grid[:, None], bandwidth_hz, num_taps
        )
    else:
        stacked = stacked_sinc_dictionaries(
            grid[:, None], bandwidth_hz, num_taps
        )
    columns = stacked[:, :, 0]  # (G, F)
    conjugates = columns.conj()
    norms = np.einsum("gf,gf->g", conjugates, columns).real
    for array in (grid, conjugates, norms):
        array.setflags(write=False)
    return grid, conjugates, norms


@dataclass(frozen=True)
class SuperResResult:
    """Outcome of one super-resolution decomposition."""

    alphas: np.ndarray
    delays_s: np.ndarray
    residual: float

    def per_beam_power(self) -> np.ndarray:
        """Per-beam power ``|alpha_k|^2`` (linear)."""
        return np.abs(self.alphas) ** 2

    def per_beam_power_db(self, floor_db: float = -200.0) -> np.ndarray:
        power = self.per_beam_power()
        with np.errstate(divide="ignore"):
            db = power_linear_to_db(power)
        return np.maximum(db, floor_db)


@dataclass
class SuperResolver:
    """Stateful per-beam gain estimator anchored on training-time ToFs.

    Parameters
    ----------
    bandwidth_hz:
        Sounding bandwidth (sets the CIR sample spacing ``1/B``).
    relative_delays_s:
        ToF of each beam relative to the first (reference) beam, learned
        at training time.  First entry must be 0.
    regularization:
        Ridge weight ``lambda`` of Eq. (23).
    jitter_candidates / jitter_span_s:
        The absolute ToF drifts between maintenance rounds; the resolver
        tries this many anchor offsets within ``+/- jitter_span_s`` and
        keeps the best-fitting one ("trying few values around the initial
        value", Section 4.3).
    """

    bandwidth_hz: float
    relative_delays_s: np.ndarray
    regularization: float = 1e-4
    jitter_candidates: int = 5
    #: None -> just over half a CIR tap (the worst-case anchor error when
    #: the anchor comes from an argmax over the tap grid).
    jitter_span_s: Optional[float] = None
    #: Span of the search over *inter-beam* spacing drift.  Must stay well
    #: below the trained spacing itself or the dictionary columns collapse;
    #: None -> 0.15 of a CIR tap.
    spacing_span_s: Optional[float] = None
    #: "dirichlet" matches CIRs produced by IFFT of a finite subcarrier
    #: grid (the deployed path); "sinc" models an ideal band-limited
    #: receiver (Eq. 22).
    kernel: str = "dirichlet"
    #: Candidate anchors whose fit objective is within this factor of the
    #: best are considered ties, resolved toward the previous round's
    #: anchor (absolute ToF drifts slowly between CSI-RS rounds).
    tie_tolerance: float = 1.10
    #: Absolute ToF of the reference beam measured at establishment (via
    #: :func:`estimate_pulse_tof`).  When set, the anchor search tracks it
    #: instead of re-deriving an ambiguous anchor from the CIR argmax.
    initial_base_s: Optional[float] = None
    _last_base_s: Optional[float] = field(default=None, init=False)
    _jitter_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _spacing_offsets: np.ndarray = field(
        init=False, repr=False, compare=False
    )
    #: (taps, sorted anchors, active relative delays) -> the candidate
    #: tensor's :data:`_Factorization`, an LRU bounded by
    #: :data:`FACTORIZATION_CACHE_SIZE`.  Per resolver, so it dies with
    #: the link (every establish/retrain builds a new resolver) and needs
    #: no lock (one link runs on one thread).
    _factorizations: "OrderedDict[tuple, _Factorization]" = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        delays = np.asarray(self.relative_delays_s, dtype=float)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("relative_delays_s must be a non-empty 1-D array")
        if abs(delays[0]) > 1e-15:
            raise ValueError(
                "relative_delays_s[0] must be 0 (the reference beam)"
            )
        if self.jitter_candidates < 1:
            raise ValueError("jitter_candidates must be >= 1")
        if self.jitter_span_s is None:
            self.jitter_span_s = 0.55 / self.bandwidth_hz
        if self.jitter_span_s < 0:
            raise ValueError("jitter_span_s must be >= 0")
        if self.spacing_span_s is None:
            self.spacing_span_s = 0.15 / self.bandwidth_hz
        if self.spacing_span_s < 0:
            raise ValueError("spacing_span_s must be >= 0")
        if self.kernel not in _KERNELS:
            raise ValueError(
                f"kernel must be 'dirichlet' or 'sinc', got {self.kernel!r}"
            )
        self.relative_delays_s = delays
        self._last_base_s = self.initial_base_s
        # The absolute ToF drifts between rounds: try anchor offsets
        # within the jitter window.  Relative ToFs drift slowly too: try
        # small common perturbations of the non-reference spacings
        # ("trying few values around the initial value", Section 4.3).
        # The spacing span stays well below the trained spacing so the
        # dictionary columns never collapse.
        self._jitter_offsets = (
            np.linspace(
                -self.jitter_span_s, self.jitter_span_s, self.jitter_candidates
            )
            if self.jitter_candidates > 1
            else _NO_OFFSET
        )
        self._spacing_offsets = (
            np.linspace(-self.spacing_span_s, self.spacing_span_s, 3)
            if self.spacing_span_s > 0
            else _NO_OFFSET
        )
        self._factorizations = OrderedDict()

    @property
    def num_beams(self) -> int:
        return int(self.relative_delays_s.size)

    def resolution_s(self) -> float:
        """The classical delay resolution ``1/B`` the method beats."""
        return 1.0 / self.bandwidth_hz

    def _candidate_delays(
        self, anchors: Set[float], relative: np.ndarray
    ) -> np.ndarray:
        """Every candidate delay set as one ``(C, K)`` tensor.

        Rows run anchors ascending, then jitter offsets, then spacing
        offsets; rows with a negative delay are dropped.
        """
        # No spacing search is possible (or needed) with one active beam.
        spacing = self._spacing_offsets if relative.size > 1 else _NO_OFFSET
        spacing_mask = np.ones_like(relative)
        spacing_mask[0] = 0.0
        shifted = np.array(sorted(anchors))[:, None] + self._jitter_offsets
        delays = (shifted[:, :, None, None] + relative) + (
            spacing[:, None] * spacing_mask
        )
        delays = delays.reshape(-1, relative.size)
        return delays[~np.any(delays < 0, axis=1)]

    def _factorization(
        self, anchors: Set[float], relative: np.ndarray, num_taps: int
    ) -> Optional[_Factorization]:
        """The CIR-independent half of every candidate's ridge problem.

        None when no candidate around ``anchors`` is valid.
        """
        # The offset grids are constants, so the candidate tensor is a
        # pure function of this key and a hit skips building it too.
        key = (num_taps, tuple(sorted(anchors)), relative.tobytes())
        cache = self._factorizations
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            return entry
        delays = self._candidate_delays(anchors, relative)
        if not delays.shape[0]:
            return None
        if self.kernel == "dirichlet":
            dictionaries = stacked_dirichlet_dictionaries(
                delays, self.bandwidth_hz, num_taps
            )
        else:
            dictionaries = stacked_sinc_dictionaries(
                delays, self.bandwidth_hz, num_taps
            )
        hermitian = dictionaries.conj().transpose(0, 2, 1)  # (C, K, F)
        grams = hermitian @ dictionaries + (
            float(self.regularization) * np.eye(delays.shape[1])
        )
        entry = cache[key] = (delays, dictionaries, hermitian, grams)
        if len(cache) > FACTORIZATION_CACHE_SIZE:
            cache.popitem(last=False)
        return entry

    def _fit(
        self, anchors: Set[float], relative: np.ndarray, cir: np.ndarray
    ) -> Optional[Tuple[np.ndarray, ...]]:
        """Ridge-fit every candidate around ``anchors`` against the CIR.

        Returns ``(delays (C, K), alphas (C, K), residuals (C,),
        objectives (C,))``, or None when no candidate is valid.
        """
        entry = self._factorization(anchors, relative, cir.size)
        if entry is None:
            return None
        delays, dictionaries, hermitian, grams = entry
        projections = hermitian @ cir  # (C, K)
        alphas = np.linalg.solve(grams, projections[:, :, None])[:, :, 0]
        fitted = (dictionaries @ alphas[:, :, None])[:, :, 0]  # (C, F)
        residuals = np.linalg.norm(cir[None, :] - fitted, axis=1)
        # Score by the full ridge objective: a pure-residual criterion
        # would reward overfitting noise with huge alphas whenever two
        # candidate delays nearly coincide.
        objectives = residuals ** 2 + (
            float(self.regularization) * np.sum(np.abs(alphas) ** 2, axis=1)
        )
        return delays, alphas, residuals, objectives

    def estimate(
        self,
        cir: np.ndarray,
        active_indices: Optional[Sequence[int]] = None,
    ) -> SuperResResult:
        """Decompose a sampled CIR into per-beam complex gains.

        Anchors the delay grid on the tracked reference-beam ToF (or, with
        none yet, on the strongest CIR tap), then refines the anchor over
        the jitter window by the ridge objective.

        ``active_indices`` restricts the dictionary to the beams that are
        actually transmitting (the manager drops blocked beams from the
        multi-beam); fitting columns for silent beams would let the ridge
        solver smear a single pulse across near-degenerate delays.  The
        returned ``alphas``/``delays_s`` still have one entry per beam,
        with zeros for the inactive ones.
        """
        cir = np.asarray(cir, dtype=complex)
        if cir.ndim != 1 or cir.size < self.num_beams:
            raise ValueError(
                f"CIR must be 1-D with at least {self.num_beams} taps, "
                f"got shape {cir.shape}"
            )
        if active_indices is None:
            active = list(range(self.num_beams))
        else:
            active = sorted(int(i) for i in active_indices)
            if not active:
                raise ValueError("need at least one active beam")
            if active[0] < 0 or active[-1] >= self.num_beams:
                raise IndexError(f"active indices {active} out of range")
        relative = self.relative_delays_s[active]
        argmax_anchor = int(np.argmax(np.abs(cir))) / self.bandwidth_hz
        # The strongest tap may belong to any active beam; anchors shifted
        # back by each relative delay are the re-acquisition candidates.
        argmax_candidates = {argmax_anchor - float(d) for d in relative}
        tracked = self._last_base_s
        # Track the anchor established via estimate_pulse_tof(): the
        # absolute ToF drifts slowly, so the jitter window around the
        # previous base covers it without the argmax ambiguity.
        fits = [
            self._fit(
                argmax_candidates if tracked is None else {float(tracked)},
                relative,
                cir,
            )
        ]
        # Re-acquisition: if the tracked anchor no longer explains the CIR
        # (a timing jump larger than the jitter window), the argmax-derived
        # anchors' candidates follow the tracked ones.
        if tracked is not None and (
            fits[0] is None
            or min(r ** 2 for r in fits[0][2].tolist())
            > 0.5 * float(np.linalg.norm(cir) ** 2)
        ):
            fits.append(self._fit(argmax_candidates, relative, cir))
        fits = [fit for fit in fits if fit is not None]
        if not fits:
            raise RuntimeError("no valid delay anchor found")
        delays, alphas, residuals, objectives = (
            fits[0] if len(fits) == 1
            else tuple(np.concatenate(parts) for parts in zip(*fits))
        )
        # The grid origin (reference-beam ToF), NOT the first *active*
        # beam's delay: when the reference beam is dropped, delays[:, 0]
        # belongs to another beam and storing it would shift the tracked
        # anchor by the beam spacing.
        bases = delays[:, 0] - relative[0]
        ties = np.flatnonzero(
            objectives <= objectives.min() * self.tie_tolerance
        )
        if tracked is not None and ties.size > 1:
            # When one beam is silent (blockage) the single remaining pulse
            # fits several anchor hypotheses equally well; break the tie
            # toward the previous round's anchor — absolute ToF drifts
            # slowly (Sec. 4.3).  argmin keeps the first of equal ones.
            chosen = ties[np.argmin(np.abs(bases[ties] - tracked))]
        else:
            chosen = ties[np.argmin(objectives[ties])]
        self._last_base_s = float(bases[chosen])
        full_alphas = np.zeros(self.num_beams, dtype=complex)
        full_delays = np.zeros(self.num_beams)
        full_alphas[active] = alphas[chosen]
        full_delays[active] = delays[chosen]
        return SuperResResult(
            alphas=full_alphas,
            delays_s=full_delays,
            residual=float(residuals[chosen]),
        )
