"""Per-candidate reference paths for super-resolution (test-only oracle).

The library ships one path per kernel: :meth:`SuperResolver.estimate`
solves every candidate of a round in one stacked, cached ridge solve,
:func:`estimate_pulse_tof` scores its whole fine grid at once, and
:func:`dirichlet_dictionary` builds every column with one batched IFFT.
These are the straightforward loops those paths replaced — one
dictionary, one solve, one score at a time — kept here so differential
tests can pin the shipped paths against them.
"""

from typing import Optional, Sequence

import numpy as np

from repro.channel.wideband import (
    cir_from_frequency_response,
    ofdm_frequency_grid,
    sinc_dictionary,
)
from repro.core.superres import SuperResolver, SuperResResult, ridge_solve


def dirichlet_dictionary(
    candidate_delays_s: Sequence[float], bandwidth_hz: float, num_taps: int
) -> np.ndarray:
    """One IFFT per delay: the column-by-column Dirichlet dictionary."""
    freqs = ofdm_frequency_grid(bandwidth_hz * 1.0, num_taps)
    columns = []
    for delay in np.asarray(candidate_delays_s, dtype=float).ravel():
        response = np.exp(-2j * np.pi * freqs * delay)
        columns.append(cir_from_frequency_response(response))
    return np.stack(columns, axis=1)


def estimate_pulse_tof(
    cir: np.ndarray,
    bandwidth_hz: float,
    kernel: str = "dirichlet",
    fine_step_taps: float = 0.02,
    search_span_taps: float = 1.5,
) -> float:
    """Score the fine grid one rank-1 fit at a time; first maximum wins."""
    cir = np.asarray(cir, dtype=complex)
    tap = 1.0 / bandwidth_hz
    coarse = int(np.argmax(np.abs(cir))) * tap
    grid = coarse + np.arange(
        -search_span_taps, search_span_taps + fine_step_taps, fine_step_taps
    ) * tap
    grid = grid[grid >= 0]
    build = dirichlet_dictionary if kernel == "dirichlet" else sinc_dictionary
    best_delay, best_score = float(grid[0]), -np.inf
    for delay in grid:
        column = build([float(delay)], bandwidth_hz, cir.size)[:, 0]
        score = abs(np.vdot(column, cir)) ** 2 / float(
            np.vdot(column, column).real
        )
        if score > best_score:
            best_delay, best_score = float(delay), score
    return best_delay


def _fit_single(
    resolver: SuperResolver,
    delays: np.ndarray,
    cir: np.ndarray,
    relative: np.ndarray,
):
    """One candidate: build its dictionary, ridge-solve, score."""
    if resolver.kernel == "dirichlet":
        dictionary = dirichlet_dictionary(
            delays, resolver.bandwidth_hz, cir.size
        )
    else:
        dictionary = sinc_dictionary(delays, resolver.bandwidth_hz, cir.size)
    alphas = ridge_solve(dictionary, cir, resolver.regularization)
    residual = float(np.linalg.norm(cir - dictionary @ alphas))
    objective = residual ** 2 + (
        resolver.regularization * float(np.sum(np.abs(alphas) ** 2))
    )
    grid_base = float(delays[0] - relative[0])
    return (objective, grid_base, alphas, delays, residual)


def estimate(
    resolver: SuperResolver,
    cir: np.ndarray,
    active_indices: Optional[Sequence[int]] = None,
) -> SuperResResult:
    """``resolver.estimate`` fitted one candidate at a time.

    Enumerates candidates with nested loops, fits each on its own and
    selects with list scans.  Reads the resolver's configuration and
    advances its tracked anchor (``_last_base_s``) exactly like
    :meth:`SuperResolver.estimate`.
    """
    cir = np.asarray(cir, dtype=complex)
    if active_indices is None:
        active = list(range(resolver.num_beams))
    else:
        active = sorted(int(i) for i in active_indices)
    relative = resolver.relative_delays_s[active]
    argmax_anchor = int(np.argmax(np.abs(cir))) / resolver.bandwidth_hz
    argmax_candidates = {argmax_anchor - float(d) for d in relative}
    if resolver._last_base_s is not None:
        anchor_candidates = {float(resolver._last_base_s)}
    else:
        anchor_candidates = argmax_candidates
    offsets = (
        np.linspace(
            -resolver.jitter_span_s,
            resolver.jitter_span_s,
            resolver.jitter_candidates,
        )
        if resolver.jitter_candidates > 1
        else np.array([0.0])
    )
    if relative.size > 1 and resolver.spacing_span_s > 0:
        spacing_offsets = np.linspace(
            -resolver.spacing_span_s, resolver.spacing_span_s, 3
        )
    else:
        spacing_offsets = np.array([0.0])
    spacing_mask = np.ones_like(relative)
    spacing_mask[0] = 0.0

    def evaluate(anchors):
        fits = []
        for base in sorted(anchors):
            for offset in offsets:
                for spacing in spacing_offsets:
                    delays = base + offset + relative + spacing * spacing_mask
                    if np.any(delays < 0):
                        continue
                    fits.append(_fit_single(resolver, delays, cir, relative))
        return fits

    candidates = evaluate(anchor_candidates)
    cir_energy = float(np.linalg.norm(cir) ** 2)
    if candidates and resolver._last_base_s is not None:
        best_residual_sq = min(c[4] ** 2 for c in candidates)
        if best_residual_sq > 0.5 * cir_energy:
            candidates = candidates + evaluate(argmax_candidates)
    if not candidates:
        candidates = evaluate(argmax_candidates)
    if not candidates:
        raise RuntimeError("no valid delay anchor found")
    best_objective = min(c[0] for c in candidates)
    ties = [
        c for c in candidates
        if c[0] <= best_objective * resolver.tie_tolerance
    ]
    if resolver._last_base_s is not None and len(ties) > 1:
        chosen = min(ties, key=lambda c: abs(c[1] - resolver._last_base_s))
    else:
        chosen = min(ties, key=lambda c: c[0])
    _objective, base_s, alphas, delays, residual = chosen
    resolver._last_base_s = base_s
    full_alphas = np.zeros(resolver.num_beams, dtype=complex)
    full_delays = np.zeros(resolver.num_beams)
    for slot, index in enumerate(active):
        full_alphas[index] = alphas[slot]
        full_delays[index] = delays[slot]
    return SuperResResult(
        alphas=full_alphas, delays_s=full_delays, residual=residual
    )
