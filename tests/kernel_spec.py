"""Executable specification of the replica-parallel sweep kernels.

Each function spells out one kernel family's dynamics with per-read python
scalar loops.  They take exactly the arguments of
:func:`repro.annealing.kernels.sa_sweeps_vectorized` /
:func:`~repro.annealing.kernels.svmc_sweeps_vectorized` and must agree with
every production implementation *bit for bit*.  Draws, transcendental
blocks and BLAS reductions go through the kernels' shared helpers (see the
equivalence rules in the :mod:`repro.annealing.kernels` docstring); the
decision logic and the SA chunk commit are restated here.  The commit is
spelled out in its general einsum + ``apply_couplings`` form for every chunk
width and runs after every chunk, so the production shortcuts — plain
products for one-position chunks, no commit when nothing flips — are checked
against it rather than shared with it.

``tests/test_kernels.py`` calls these functions directly for the kernel-level
equivalence tests and swaps them into ``kernels._SA_IMPLEMENTATIONS`` /
``kernels._SVMC_IMPLEMENTATIONS`` for the solver-level ones.
"""

from typing import Optional, Sequence

import numpy as np

from repro.annealing.kernels import (
    DEFAULT_SPINS_PER_STEP,
    SweepSettings,
    _sa_fill_thresholds,
    _svmc_cos_sin_block,
    _svmc_fill_blocks,
    _svmc_propose_block,
    _track_best,
    apply_couplings,
)

__all__ = ["sa_sweeps_reference", "svmc_sweeps_reference"]


def sa_sweeps_reference(
    spins: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    mask: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    settings: SweepSettings,
    *,
    spins_per_step: int = DEFAULT_SPINS_PER_STEP,
    energies: Optional[np.ndarray] = None,
    best_spins: Optional[np.ndarray] = None,
    best_energies: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The SA dynamics spelled out with per-read scalar loops.

    Every accept decision and flip value is computed one read at a time with
    exact scalar arithmetic, while draws, thresholds and the coupling refresh
    go through the kernels' shared helpers.  O(batch * spins * reads) python
    work per sweep.
    """
    batch, max_size, reads = spins.shape
    track = best_energies is not None
    chunk_cap = min(spins_per_step, max_size)
    thresholds = np.zeros((batch, max_size, reads))
    change = np.empty((batch, chunk_cap, reads))
    coupled = np.empty((batch, max_size, reads))
    for problem, _transverse, temperature, activity in settings:
        log_activity = np.log(activity)
        _sa_fill_thresholds(
            children, sizes, reads, thresholds, problem, temperature, log_activity
        )
        for p0 in range(0, max_size, spins_per_step):
            p1 = min(p0 + spins_per_step, max_size)
            flips = change[:, : p1 - p0]
            for b in range(batch):
                size = int(sizes[b])
                for p in range(p0, p1):
                    row = p - p0
                    for r in range(reads):
                        cur = spins[b, p, r]
                        if p >= size:
                            ok = False
                        elif problem > 0.0:
                            prod = cur * local[b, p, r]
                            clipped = prod if prod < 0.0 else 0.0
                            ok = clipped > thresholds[b, p, r]
                        else:
                            ok = thresholds[b, p, r] < log_activity
                        flips[b, row, r] = (-2.0 if ok else -0.0) * cur
            # dE = sum_i change_i * local_i(stale) + 1/2 change^T Jsym change
            if energies is not None:
                gain = np.einsum("bcr,bcr->br", flips, local[:, p0:p1])
            spins[:, p0:p1] += flips
            apply_couplings(local, symmetric, flips, p0, p1, coupled)
            if energies is not None:
                gain += 0.5 * np.einsum("bcr,bcr->br", flips, coupled[:, p0:p1])
                energies += gain
            if track:
                _track_best(spins, energies, best_spins, best_energies)
    return spins


def svmc_sweeps_reference(
    theta: np.ndarray,
    cosines: np.ndarray,
    sines: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    mask: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    settings: SweepSettings,
    *,
    proposal_width: float,
    uniform_fraction: float,
    spins_per_step: int = DEFAULT_SPINS_PER_STEP,
) -> np.ndarray:
    """The SVMC dynamics spelled out with per-read scalar loops.

    Proposal blocks (elementwise arithmetic and their transcendentals) are
    assembled with the same shared block helpers as the vectorized kernel —
    numpy transcendentals are not bitwise-reproducible on python scalars —
    while every accept decision and state update is an explicit per-read
    scalar computation.
    """
    batch, max_size, reads = theta.shape
    chunk_cap = min(spins_per_step, max_size)
    normals = np.zeros((batch, max_size, reads))
    mixes = np.zeros((batch, max_size, reads))
    thresholds = np.zeros((batch, max_size, reads))
    proposed = np.empty((batch, chunk_cap, reads))
    proposed_cos = np.empty((batch, chunk_cap, reads))
    proposed_sin = np.empty((batch, chunk_cap, reads))
    change = np.empty((batch, chunk_cap, reads))
    coupled = np.empty((batch, max_size, reads))
    for problem, transverse, temperature, activity in settings:
        log_activity = np.log(activity)
        _svmc_fill_blocks(
            children,
            sizes,
            reads,
            proposal_width,
            normals,
            mixes,
            thresholds,
            float(temperature),
            log_activity,
        )
        for p0 in range(0, max_size, spins_per_step):
            p1 = min(p0 + spins_per_step, max_size)
            width = p1 - p0
            prop = _svmc_propose_block(
                theta[:, p0:p1],
                normals[:, p0:p1],
                mixes[:, p0:p1],
                uniform_fraction,
                proposed[:, :width],
            )
            cos_p, sin_p = _svmc_cos_sin_block(
                prop, proposed_cos[:, :width], proposed_sin[:, :width]
            )
            flips = change[:, :width]
            for b in range(batch):
                size = int(sizes[b])
                for p in range(p0, p1):
                    row = p - p0
                    for r in range(reads):
                        gap = cos_p[b, row, r] - cosines[b, p, r]
                        sdiff = sin_p[b, row, r] - sines[b, p, r]
                        ok = False
                        if p < size:
                            step = gap * local[b, p, r] * problem
                            step = step - sdiff * transverse
                            uphill = step if step > 0.0 else 0.0
                            ok = uphill < thresholds[b, p, r]
                        keep = 1.0 if ok else 0.0
                        flip = keep * gap
                        flips[b, row, r] = flip
                        cosines[b, p, r] += flip
                        sines[b, p, r] += sdiff * keep
                        theta[b, p, r] += (prop[b, row, r] - theta[b, p, r]) * keep
            apply_couplings(local, symmetric, flips, p0, p1, coupled)
    return cosines
