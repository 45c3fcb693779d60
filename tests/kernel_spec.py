"""Executable specification of the replica-parallel sweep kernels.

Each function spells out one kernel family's dynamics with per-read python
scalar loops.  They take exactly the arguments of
:func:`repro.annealing.kernels.sa_sweeps_vectorized` /
:func:`~repro.annealing.kernels.svmc_sweeps_vectorized` and must agree with
those production kernels *bit for bit*.  Draws, transcendental
blocks and BLAS reductions go through the kernels' shared helpers (see the
equivalence rules in the :mod:`repro.annealing.kernels` docstring); the
decision logic and the SA flip commit are restated here.  The commit is
spelled out in its general einsum + ``apply_couplings`` form and runs after
every position, so the production shortcuts — plain products for the
one-position commit, no commit when nothing flips — are checked against it
rather than shared with it.

``tests/test_kernels.py`` calls these functions directly for the kernel-level
equivalence tests and substitutes them for ``kernels.sa_sweeps_vectorized`` /
``kernels.svmc_sweeps_vectorized`` for the solver-level ones.
"""

from typing import Sequence

import numpy as np

from repro.annealing.kernels import (
    SweepSettings,
    _sa_fill_thresholds,
    _svmc_cos_sin_block,
    _svmc_draw_blocks,
    _svmc_fill_thresholds,
    _svmc_propose_block,
    _track_best,
    apply_couplings,
)

__all__ = ["sa_sweeps_reference", "svmc_sweeps_reference"]

#: Rotors per SVMC chunk.  Restated here rather than imported, so a change
#: to the production kernel's chunk width fails the equivalence tests on
#: batches that cross a chunk boundary.
SVMC_CHUNK = 64


def sa_sweeps_reference(
    spins: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    temperatures: np.ndarray,
    *,
    energies: np.ndarray,
    best_spins: np.ndarray,
    best_energies: np.ndarray,
) -> np.ndarray:
    """The sequential SA dynamics spelled out with per-read scalar loops.

    Every accept decision and flip value is computed one read at a time with
    exact scalar arithmetic, while draws, thresholds and the coupling refresh
    go through the kernels' shared helpers.  O(batch * spins * reads) python
    work per sweep.
    """
    batch, max_size, reads = spins.shape
    thresholds = np.zeros((batch, max_size, reads))
    flips = np.empty((batch, 1, reads))
    coupled = np.empty((batch, max_size, reads))
    for row in temperatures:
        _sa_fill_thresholds(children, sizes, thresholds, row)
        for p in range(max_size):
            for b in range(batch):
                size = int(sizes[b])
                for r in range(reads):
                    cur = spins[b, p, r]
                    ok = False
                    if p < size:
                        prod = cur * local[b, p, r]
                        clipped = prod if prod < 0.0 else 0.0
                        ok = clipped > thresholds[b, p, r]
                    flips[b, 0, r] = (-2.0 if ok else -0.0) * cur
            # dE = change * local(stale) + 1/2 change * Jsym * change
            gain = np.einsum("bcr,bcr->br", flips, local[:, p : p + 1])
            spins[:, p : p + 1] += flips
            apply_couplings(local, symmetric, flips, p, p + 1, coupled)
            gain += 0.5 * np.einsum("bcr,bcr->br", flips, coupled[:, p : p + 1])
            energies += gain
            _track_best(spins, energies, best_spins, best_energies)
    return spins


def svmc_sweeps_reference(
    theta: np.ndarray,
    cosines: np.ndarray,
    sines: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    sizes: np.ndarray,
    children: Sequence[np.random.Generator],
    settings: SweepSettings,
    *,
    proposal_width: float,
    uniform_fraction: float,
) -> np.ndarray:
    """The SVMC dynamics spelled out with per-read scalar loops.

    Proposal blocks (elementwise arithmetic and their transcendentals) are
    assembled with the same shared block helpers as the vectorized kernel —
    numpy transcendentals are not bitwise-reproducible on python scalars —
    while every accept decision and state update is an explicit per-read
    scalar computation.
    """
    batch, max_size, reads = theta.shape
    chunk_cap = min(SVMC_CHUNK, max_size)
    # Padding rows of the accept uniforms hold +inf, which no gate passes.
    thresholds = np.full((batch, max_size, reads), np.inf)
    passing = np.zeros((batch, max_size, reads), dtype=bool)
    packed_normals = np.empty(batch * max_size * reads)
    packed_mixes = np.empty(batch * max_size * reads)
    proposed = np.empty((batch, chunk_cap, reads))
    proposed_cos = np.empty((batch, chunk_cap, reads))
    proposed_sin = np.empty((batch, chunk_cap, reads))
    change = np.empty((batch, chunk_cap, reads))
    coupled = np.empty((batch, max_size, reads))
    for problem, transverse, temperature, activity in settings:
        log_activity = np.log(activity)
        # Every sweep runs dense here: the gate-passing positions get their
        # drawn proposals, every other position a zero normal and mix.
        count = _svmc_draw_blocks(
            children, sizes, proposal_width, activity,
            thresholds, passing, packed_normals, packed_mixes,
        ).size
        normals = np.zeros((batch, max_size, reads))
        mixes = np.zeros((batch, max_size, reads))
        normals[passing] = packed_normals[:count]
        mixes[passing] = packed_mixes[:count]
        _svmc_fill_thresholds(thresholds, sizes, temperature, log_activity)
        for p0 in range(0, max_size, SVMC_CHUNK):
            p1 = min(p0 + SVMC_CHUNK, max_size)
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
