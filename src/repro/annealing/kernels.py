"""Replica-parallel sweep kernels of the anneal backend and the SA solver.

This module is the numerical core of the library: the Metropolis sweep loops
of :class:`~repro.annealing.svmc.SpinVectorMonteCarloBackend` and the
classical :class:`~repro.classical.simulated_annealing.SimulatedAnnealingSolver`
execute here.  Each family (SA spin flips, SVMC rotor updates) has one
production kernel — :func:`sa_sweeps_vectorized` and
:func:`svmc_sweeps_vectorized` — that advances every read of every instance
in a single sequence of numpy operations over ``(batch, spins, reads)``
arrays.  :func:`sa_sweeps` and :func:`svmc_sweeps` are their
telemetry-instrumented entry points; see ``docs/kernels.md``.  The
executable specification the kernels are tested against — per-read python
scalar loops over the same draws and helpers — lives with the tests
(``tests/kernel_spec.py``).

Sequential SA sweeps
--------------------
The SA kernel is textbook single-flip Metropolis under a temperature
schedule: each sweep visits the spins one at a time in fixed index order,
each proposal is evaluated against the current local fields, and an
accepted flip refreshes every local field with one rank-1 product and
advances the per-read Ising energies exactly.  The running per-read minima
(best energy and state) are folded in after every flip.  Only the visit
over positions is a python loop; every instance and read of a position is
one array operation.

Chunked SVMC sweeps
-------------------
The SVMC kernel sweeps the rotors in fixed index order in chunks of 64
positions (``_SVMC_CHUNK``).  Within a chunk all proposals are evaluated
against the *same* stale local fields and committed simultaneously; after a
chunk the local fields of every spin are refreshed with one rank-``C`` BLAS
contraction.  Fixed order and fixed chunk boundaries make the dynamics
independent of batch composition, and simultaneous within-chunk updates are
what turn the per-position python loop into one array program.

The Metropolis accept tests are evaluated in log space: each spin draws one
uniform ``u`` per sweep and accepts iff ``dE+ < -T*log(u)`` (SA) or
``dE+ < -T*log(u/activity)`` (SVMC), where ``dE+ = max(dE, 0)`` —
acceptance with probability ``activity * min(1, exp(-dE/T))``, computed as
a single per-sweep ``log`` block instead of a per-position ``exp``.  The
SVMC freeze-out ``activity`` gate therefore costs no extra draw.

Activity-gated SVMC sweeps
--------------------------
A proposal with ``u >= activity`` has a threshold ``<= 0 <= dE+`` and can
never be accepted.  So each SVMC sweep draws, per instance, its accept
uniforms first, and then a normal and a mix uniform only for the positions
with ``u < gate`` (``activity`` plus a rounding margin).  The gate test is
one comparison over the whole ``(batch, max_size, reads)`` uniform block,
whose padding rows hold ``+inf`` and so never pass, and one search of the
row ends in the passing positions splits the packed draws per instance; in
python each child only makes its three generator calls.  A sweep with ``activity < 1`` can reject at the gate: it
packs those proposal draws at the front of flat buffers, gathers the state
at the passing positions into flat scratch buffers, runs the dense chunk
arithmetic there — proposal, ``cos``, the threshold ``log``, accept test,
updates — and scatters the results back.  A sweep with ``activity >= 1``
passes every position, so it draws the same numbers straight into dense
blocks and runs the dense chunk program.  The coupling refresh keeps its
full ``(batch, chunk, reads)`` shape either way, so results are
bit-identical on both sides of the branch.
Rejected positions cost neither a proposal draw nor any arithmetic.  On the
``ra-sweep`` benchmark, where 80% of the rotor-sweep slots are gated and 22%
of those pass, anneal reads/s went from 6884 to 9104 (median of 10
alternating pairs, 2-vCPU x86_64 host; see ``docs/kernels.md``).

Bitwise-equivalence design rules
--------------------------------
The kernel of each family and the scalar specification in the tests agree
bit for bit because they follow these rules, which any future kernel must
preserve:

* **Exact arithmetic may differ in shape.**  IEEE-754 ``+ - * /``,
  comparisons, and min/max are exact per element, so the specification may
  compute them on python scalars while the vectorized kernel uses whole
  arrays.
* **Transcendentals run through numpy's elementwise ufunc loop.**  numpy's
  ``log``/``exp``/``cos``/``sin`` pick different code paths for scalars and
  arrays, so every transcendental is computed by the array loop — on the
  dense block or on a gathered contiguous block of the same values — never
  on a 0-d scalar.  The array loop is elementwise, so a value's result does
  not depend on the block it sits in; ``tests/test_kernels.py`` checks that
  property on the running platform.
* **Reductions go through shared helpers.**  BLAS contractions are not
  bitwise shape-stable (a ``(R,C)@(C,N)`` gemm differs from row-by-row
  gemv), so the SVMC local-field refresh runs through
  :func:`apply_couplings` with identically-shaped inputs in the kernel and
  the specification.
* **One-term contractions are exact, so the SA commit uses plain
  products.**  A contraction over a single position has one product and
  nothing to reorder, so the SA kernel commits a flip as elementwise
  products; the specification keeps the general einsum +
  :func:`apply_couplings` form.  Likewise a position at which nothing flips
  changes no state, field or energy, so the SA kernel skips its commit.

Random-draw discipline
----------------------
Instance ``b`` of a batch draws exclusively from child generator ``b``:
per sweep the SA kernel consumes one ``(n, reads)`` uniform block, and the
SVMC kernel one ``(n, reads)`` accept-uniform block followed by one normal
and one mix uniform per gate-passing position (all the normals first).  The
gated SVMC draw visits the children twice per sweep, accept uniforms for
all of them and then normals and mixes for each; since every child has its
own stream, each still sees uniforms, normals, mixes in that order, and an
empty instance draws nothing.  Each sweep's blocks are drawn before any
position is visited, so draw consumption depends only on the instance's own
size, sweep count, read count and accept uniforms — never on batch
composition or worker count — which is what keeps experiment results
invariant to batching and worker counts.  ``tests/test_svmc_draw_oracle.py``
checks the gated draws against a per-child loop, generator states included.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro import telemetry

__all__ = [
    "SweepSettings",
    "active_kernel_name",
    "initial_local_fields",
    "apply_couplings",
    "sa_sweeps",
    "sa_sweeps_vectorized",
    "svmc_sweeps",
    "svmc_sweeps_vectorized",
]

#: Rotors updated simultaneously per chunk of an SVMC sweep.  A constant
#: (rather than e.g. a fraction of the problem size) so chunk boundaries —
#: and with them the dynamics — depend only on the problem size itself.
_SVMC_CHUNK = 64

#: Relative margin of the gate above ``activity``: a draw within rounding of
#: ``activity`` is evaluated in full, so the gate never depends on how the
#: scalar ``log(activity)`` and the block ``log(u)`` round.
_SVMC_GATE_MARGIN = 2.0**-20

#: Per-sweep SVMC schedule row: ``(problem, transverse, temperature, activity)``.
SweepSettings = Sequence[Tuple[float, float, float, float]]


def active_kernel_name() -> str:
    """The name of the sweep kernel that runs: always ``"vectorized"``.

    Kept because the frozen benchmark harness (``perfbench/run.py``) imports
    it to record which kernel produced a run.
    """
    return "vectorized"


# --------------------------------------------------------------------- #
# Telemetry instrumentation (timing wrappers around the kernel entry points)
# --------------------------------------------------------------------- #


def _dispatch_instrumented(family, kernel, schedule, args, kwargs):
    """Run one kernel call, timed and counted when telemetry is enabled.

    The wall span wraps the call from the *outside*, so the kernel's
    arithmetic and draw sequence are untouched and results stay
    bitwise-identical to the uninstrumented path.  Geometry comes from the
    leading state array ``(batch, max_size, reads)`` and the per-sweep
    argument named ``schedule`` (one row per sweep; the last positional
    argument unless passed by keyword); fully-keyword calls skip
    instrumentation rather than guess at argument positions.
    """
    tel = telemetry.active()
    if tel is None or not args:
        return kernel(*args, **kwargs)
    sweeps = len(kwargs[schedule] if schedule in kwargs else args[-1])
    batch, reads = args[0].shape[0], args[0].shape[-1]
    labels = {"family": family}
    tel.registry.counter("repro_kernel_calls_total", **labels).inc()
    tel.registry.counter("repro_kernel_sweeps_total", **labels).inc(sweeps)
    read_sweeps = sweeps * batch * reads
    tel.registry.counter("repro_kernel_read_sweeps_total", **labels).inc(read_sweeps)
    with tel.tracer.span(
        f"kernel.{family}",
        sweeps=sweeps,
        batch=batch,
        reads=reads,
    ) as span:
        result = kernel(*args, **kwargs)
    seconds = span.duration_us / 1e6
    tel.registry.counter("repro_kernel_seconds_total", **labels).inc(seconds)
    if seconds > 0.0:
        # The span object stays live in the buffer, so the post-call
        # throughput lands in the exported record.
        span.attrs["read_sweeps_per_s"] = read_sweeps / seconds
    return result


# --------------------------------------------------------------------- #
# Shared numerics (identical call shapes in the kernels and the spec)
# --------------------------------------------------------------------- #


def initial_local_fields(
    padded_fields: np.ndarray, symmetric: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """``local[b, i, r] = h_i + sum_j Jsym_ij * state[b, j, r]``.

    One batched gemm shared by the kernels and the test-side specification
    so their starting local fields are bitwise-identical.
    """
    return padded_fields[:, :, None] + np.matmul(symmetric, state)


def apply_couplings(
    local: np.ndarray,
    symmetric: np.ndarray,
    change: np.ndarray,
    p0: int,
    p1: int,
    out: np.ndarray,
) -> np.ndarray:
    """Refresh all local fields after a chunk's simultaneous state changes.

    ``change`` holds the state deltas of chunk positions ``p0..p1``; the
    rank-``C`` contraction ``Jsym[:, :, p0:p1] @ change`` is the single BLAS
    call the kernels and the specification share (a reduction's float result
    depends on its shape, so the shapes must be identical everywhere).
    """
    np.matmul(symmetric[:, :, p0:p1], change, out=out)
    local += out
    return out


def _commit_flip(
    spins: np.ndarray,
    local: np.ndarray,
    symmetric: np.ndarray,
    change: np.ndarray,
    position: int,
    coupled: np.ndarray,
    energies: np.ndarray,
) -> None:
    """Apply one position's spin flips, refresh the local fields and energies.

    ``change`` is the ``(batch, reads)`` spin delta at ``position`` (``-2s``
    where a read flips, a signed zero elsewhere).  The per-read Ising
    energies advance exactly:
    ``dE = change * local(stale) + 1/2 * change * Jsym[p, p] * change``,
    whose second term is a signed zero, because every caller's symmetric
    couplings have a zero diagonal; it is left out.  The first term's
    contraction has one term, so it is one plain product; the
    specification's einsum/gemm form adds that product to ``0.0``, which
    can only turn a ``-0.0`` term into ``+0.0``, and the fields and energies
    the terms are added to are never ``-0.0``, so every sum comes out
    bit-identical.
    """
    energies += change * local[:, position]
    spins[:, position] += change
    np.multiply(symmetric[:, :, position, None], change[:, None], out=coupled)
    local += coupled


def _track_best(
    spins: np.ndarray,
    energies: np.ndarray,
    best_spins: np.ndarray,
    best_energies: np.ndarray,
) -> None:
    """Fold the current states into the running per-read minima (exact copies)."""
    improved = energies < best_energies
    if np.count_nonzero(improved):
        np.copyto(best_energies, energies, where=improved)
        np.copyto(best_spins, spins, where=improved[:, None, :])


def _sa_fill_thresholds(children, sizes, out, temperatures):
    """Draw each instance's sweep uniforms and scale them into thresholds.

    Accepting iff ``dE+ < -T*log(u)`` with ``dE = -2*s_i*L_i`` rearranges to
    ``min(s_i*L_i, 0) > (T/2)*log(u)``, which this writes into the real rows
    of ``out``, instance ``b`` at temperature ``temperatures[b]``.  Padding
    rows are left at their initial zeros, which can never accept.
    """
    # u == 0.0 (possible, if vanishingly rare) maps to a -inf threshold,
    # i.e. certain acceptance.
    with np.errstate(divide="ignore"):
        for index, child in enumerate(children):
            size = int(sizes[index])
            if size == 0:
                continue
            block = out[index, :size]
            child.random(out=block)
            np.log(block, out=block)
            np.multiply(block, temperatures[index] / 2.0, out=block)


def _svmc_draw_blocks(children, sizes, proposal_width, activity, uniforms, passing, normals, mixes):
    """Draw one gated SVMC sweep's randomness, accept uniforms first.

    Per instance child: the ``(size, reads)`` accept-uniform block into
    ``uniforms[b, :size]``, then one normal and one mix uniform for each
    position of that block whose uniform is below the gate
    ``activity * (1 + 2**-20)``, in flat (position, read) order.  A position
    at or above the gate can never be accepted, so it gets no proposal
    draws.  ``passing`` records the gate test of the whole block; padding
    rows of ``uniforms`` are not written and must hold a value no gate
    passes (``+inf``), so their ``passing`` rows come out all ``False``.
    The normals and mixes of all instances are packed in batch order at the
    front of the flat buffers ``normals`` and ``mixes``: the ``j``-th
    gate-passing position of ``passing`` in C order owns entry ``j``.
    Returns those positions as flat indices into the block, in C order
    (their count is the number of packed entries).

    Each child makes its three generator calls (uniforms, normals, mixes)
    and nothing else per instance runs in python: the gate test is one
    ``less`` over the batch, and one ``searchsorted`` of the row ends in the
    passing positions gives where each instance's packed draws end.  An
    empty instance draws nothing.

    Generator.normal(0, w) is ``0.0 + w*z`` on the standard-normal stream;
    the packed normals are scaled the same way in two calls.
    """
    batch, max_size, reads = passing.shape
    for index, (child, size) in enumerate(zip(children, sizes.tolist())):
        if size:
            child.random(out=uniforms[index, :size])
    np.less(uniforms, activity * (1.0 + _SVMC_GATE_MARGIN), out=passing)
    positions = np.flatnonzero(passing)
    row_ends = np.arange(1, batch + 1) * (max_size * reads)
    count = 0
    for child, end in zip(children, positions.searchsorted(row_ends).tolist()):
        if end > count:
            child.standard_normal(out=normals[count:end])
            child.random(out=mixes[count:end])
            count = end
    steps = normals[:count]
    steps *= proposal_width
    steps += 0.0  # the 0.0 + w*z of normal(): turns a -0.0 into +0.0
    return positions


def _svmc_draw_dense(children, sizes, proposal_width, uniforms, normals, mixes):
    """Draw a full-activity SVMC sweep straight into the dense blocks.

    With ``activity >= 1`` every position passes the gate, so this draws
    exactly what :func:`_svmc_draw_blocks` draws — per instance the accept
    uniforms, then ``size*reads`` normals and as many mixes — but into the
    real rows of ``(batch, max_size, reads)`` blocks.  Padding rows of
    ``normals`` must hold zeros, which the whole-block scaling keeps at
    exactly ``0.0`` (``proposal_width`` is finite and positive).
    """
    for index, child in enumerate(children):
        size = int(sizes[index])
        if size == 0:
            continue
        child.random(out=uniforms[index, :size])
        child.standard_normal(out=normals[index, :size])
        child.random(out=mixes[index, :size])
    normals *= proposal_width
    normals += 0.0  # as in _svmc_draw_blocks


def _svmc_thresholds(block, temperature, log_activity):
    """Turn accept uniforms into log-space thresholds in place.

    ``-T*log(u) + T*log(activity)``: accept iff ``dE+ < threshold``.  A
    ``u == 0.0`` becomes a +inf threshold (certain acceptance); callers
    silence numpy's divide warning around it.
    """
    np.log(block, out=block)
    np.multiply(block, -temperature, out=block)
    block += temperature * log_activity
    return block


def _svmc_fill_thresholds(uniforms, sizes, temperature, log_activity):
    """Turn each instance's ``(size, reads)`` accept uniforms into thresholds.

    The log runs on each instance's real rows.  Padding rows keep the zero
    threshold they were allocated with, and no step (clamped at zero) falls
    below it, so a padding rotor is never accepted.
    """
    with np.errstate(divide="ignore"):
        for index, size in enumerate(sizes):
            if size:
                _svmc_thresholds(uniforms[index, : int(size)], temperature, log_activity)


# --------------------------------------------------------------------- #
# SA (sequential spin-flip Metropolis) kernel
# --------------------------------------------------------------------- #


def sa_sweeps_vectorized(
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
    """Sequential single-flip Metropolis sweeps over a batch of instances.

    ``spins``/``local`` are ``(batch, max_size, reads)`` float64 arrays
    updated in place (padding lanes at +1 / 0).  Padding needs no mask: its
    thresholds and local fields stay zero (the padded couplings are), so
    ``min(s*L, 0) > 0`` never accepts there.  ``temperatures`` holds one
    ``(batch,)`` row per sweep.  ``energies`` holds the ``(batch, reads)``
    Ising energies, advanced exactly by every flip, and
    ``best_spins``/``best_energies`` the running per-read minima (the
    classical SA solver's best-seen-state contract).
    """
    batch, max_size, reads = spins.shape
    thresholds = np.zeros((batch, max_size, reads))
    flips = np.empty((batch, reads))
    decided = np.empty((batch, reads), dtype=bool)
    coupled = np.empty((batch, max_size, reads))
    for row in temperatures:
        _sa_fill_thresholds(children, sizes, thresholds, row)
        for position in range(max_size):
            current = spins[:, position]
            np.multiply(current, local[:, position], out=flips)
            np.minimum(flips, 0.0, out=flips)
            np.greater(flips, thresholds[:, position], out=decided)
            if not np.count_nonzero(decided):
                # Nothing flips: no state, field or energy moves, so no
                # minimum can either.
                continue
            np.multiply(decided, -2.0, out=flips)
            flips *= current
            _commit_flip(spins, local, symmetric, flips, position, coupled, energies)
            _track_best(spins, energies, best_spins, best_energies)
    return spins


def sa_sweeps(*args, **kwargs) -> np.ndarray:
    """Run :func:`sa_sweeps_vectorized`, timed and counted under telemetry.

    The kernel is looked up at call time, so a test may substitute the
    scalar specification for the module attribute.
    """
    return _dispatch_instrumented("sa", sa_sweeps_vectorized, "temperatures", args, kwargs)


# --------------------------------------------------------------------- #
# SVMC (rotor-angle Metropolis) replica-parallel kernels
# --------------------------------------------------------------------- #


def _svmc_propose_block(theta_chunk, normals_chunk, mixes_chunk, uniform_fraction, out):
    """Assemble a chunk's proposal angles into ``out`` (elementwise, exact).

    Gaussian step clipped to ``[0, pi]``; with probability
    ``uniform_fraction`` the mix uniform itself is rescaled into a fresh
    ``U[0, pi)`` angle (conditioned on ``u < f``, ``u/f`` is again uniform,
    so the gate and the angle can share one draw).  The clip is a
    ``maximum``/``minimum`` pair, which equals ``np.clip`` for every sum but
    ``-0.0`` (``np.clip`` keeps its sign) — and the sum is never ``-0.0``,
    because the normals never are.
    """
    np.add(theta_chunk, normals_chunk, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, np.pi, out=out)
    if uniform_fraction > 0.0:
        redraw = mixes_chunk < uniform_fraction
        np.copyto(out, mixes_chunk * (np.pi / uniform_fraction), where=redraw)
    return out


def _svmc_cos_sin_block(angles, cos_out, sin_out):
    """Cosines and sines of a proposal block.

    ``sin = sqrt(1 - cos^2)`` — valid because rotor angles live in
    ``[0, pi]`` — replaces the second transcendental with an exact
    (correctly-rounded, therefore bitwise shape-independent) square root.
    The kernel and the specification share this helper so the one genuine
    transcendental, ``cos``, is always evaluated on an identical block.
    """
    np.cos(angles, out=cos_out)
    np.multiply(cos_out, cos_out, out=sin_out)
    np.subtract(1.0, sin_out, out=sin_out)
    np.sqrt(sin_out, out=sin_out)
    return cos_out, sin_out


def _svmc_gated_chunk(
    flat, index, slot, ranks, p0, p1, sweep, uniform_fraction, selected, work, change
):
    """One SVMC chunk evaluated only at its gate-passing positions.

    A proposal whose accept uniform ``u`` is at or above ``activity`` has the
    threshold ``T*log(activity/u) <= 0 <= dE+`` and can never be accepted,
    and :func:`_svmc_draw_blocks` drew proposals only for the positions
    below the gate.  ``index`` holds the chunk's gate-passing positions as
    flat indices into the ``(batch, max_size, reads)`` state, in C order;
    ``slot`` the same positions in the ``(batch, chunk_cap, reads)``
    ``change`` buffer; and ``ranks`` their entries in the packed normals and
    mixes — ``None`` when they are the first ``index.size`` entries (a
    one-chunk sweep).
    The chunk gathers the state at ``index`` into the flat ``work`` buffers
    and runs the dense chunk arithmetic there unchanged: proposal,
    ``cos``/``sin``, threshold ``log``, accept test and the
    ``keep``-weighted updates.  The new states are scattered back and the
    chunk's cosine deltas land in ``change`` (zero where nothing was
    evaluated) for the full-shape coupling refresh.

    ``flat`` holds flat views of ``(theta, cosines, sines, local)``, the
    packed ``normals`` and ``mixes``, and the raw accept ``uniforms``.
    Returns the chunk's ``change`` view.
    """
    theta, cosines, sines, local, normals, mixes, raw = flat
    problem, transverse, temperature, log_activity = sweep
    count = index.size
    angle, prop, cos_p, sin_p, cos_t, sin_t, step, threshold = (
        buffer[:count] for buffer in work
    )
    theta.take(index, out=angle, mode="clip")
    if ranks is None:
        steps, mix = normals[:count], mixes[:count]
    else:
        steps = normals.take(ranks, out=prop, mode="clip")
        mix = mixes.take(ranks, out=cos_p, mode="clip") if uniform_fraction > 0.0 else None
    _svmc_propose_block(angle, steps, mix, uniform_fraction, prop)
    _svmc_cos_sin_block(prop, cos_p, sin_p)
    gap, sdiff = cos_p, sin_p
    cosines.take(index, out=cos_t, mode="clip")
    np.subtract(cos_p, cos_t, out=gap)
    sines.take(index, out=sin_t, mode="clip")
    np.subtract(sin_p, sin_t, out=sdiff)
    local.take(index, out=step, mode="clip")
    np.multiply(gap, step, out=step)
    step *= problem
    np.multiply(sdiff, transverse, out=threshold)
    step -= threshold
    np.maximum(step, 0.0, out=step)
    raw.take(index, out=threshold, mode="clip")
    with np.errstate(divide="ignore"):
        _svmc_thresholds(threshold, temperature, log_activity)
    decided = selected.reshape(-1)[:count]
    np.less(step, threshold, out=decided)
    flips = gap
    np.multiply(decided, gap, out=flips)
    cos_t += flips
    sdiff *= decided
    sin_t += sdiff
    np.subtract(prop, angle, out=prop)
    prop *= decided
    angle += prop
    theta[index] = angle
    cosines[index] = cos_t
    sines[index] = sin_t
    chunk_change = change[:, : p1 - p0]
    chunk_change.fill(0.0)
    change.reshape(-1)[slot] = flips
    return chunk_change


def svmc_sweeps_vectorized(
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
    """Replica-parallel SVMC sweeps as one array program per chunk.

    State arrays are C-contiguous ``(batch, max_size, reads)`` float64:
    rotor angles plus their cosines/sines (maintained so only proposal
    angles need fresh transcendentals) and the problem local fields on the
    cosines.  A sweep with ``activity < 1`` can reject at the freeze-out
    gate: it draws proposals only for the positions that pass
    (:func:`_svmc_draw_blocks`) and evaluates only those
    (:func:`_svmc_gated_chunk`).  A sweep with ``activity >= 1`` passes
    every position and runs the dense chunk program on the same draws
    (:func:`_svmc_draw_dense`), so results are identical on either side.
    """
    batch, max_size, reads = theta.shape
    chunk_cap = min(_SVMC_CHUNK, max_size)
    shape = (batch, max_size, reads)
    # Gated sweeps pack their proposal draws at the front of these flat
    # buffers; dense sweeps draw into their (batch, max_size, reads) views.
    packed_normals = np.zeros(batch * max_size * reads)
    packed_mixes = np.zeros(batch * max_size * reads)
    normals = packed_normals.reshape(shape)
    mixes = packed_mixes.reshape(shape)
    thresholds = np.zeros(shape)
    passing = np.zeros(shape, dtype=bool)
    proposed = np.empty((batch, chunk_cap, reads))
    proposed_cos = np.empty((batch, chunk_cap, reads))
    proposed_sin = np.empty((batch, chunk_cap, reads))
    diff = np.empty((batch, chunk_cap, reads))
    delta = np.empty((batch, chunk_cap, reads))
    shift = np.empty((batch, chunk_cap, reads))
    scratch = np.empty((batch, chunk_cap, reads))
    accept = np.empty((batch, chunk_cap, reads), dtype=bool)
    change = np.empty((batch, chunk_cap, reads))
    coupled = np.empty(shape)
    one_chunk = max_size <= _SVMC_CHUNK
    # Set while gated sweeps own the padding rows: ``thresholds`` then holds
    # the raw accept uniforms with ``+inf`` padding, which no gate passes,
    # and the packed draws may sit in the padding rows of ``normals`` and
    # ``mixes``.  The dense program needs all three padded with zeros.
    stale_padding = False
    # Gated sweeps gather from and scatter into flat views of the state and
    # draw buffers, and reuse the dense scratch, plus one buffer, flat.
    if not all(array.flags.c_contiguous for array in (theta, cosines, sines, local)):
        raise ValueError("theta, cosines, sines and local must be C-contiguous")
    flat = [array.reshape(-1) for array in (theta, cosines, sines, local)]
    flat += [packed_normals, packed_mixes, thresholds.reshape(-1)]
    work = [
        buffer.reshape(-1)
        for buffer in (proposed, proposed_cos, proposed_sin, diff, delta, shift, scratch)
    ]
    work.append(np.empty(batch * chunk_cap * reads))
    for problem, transverse, temperature, activity in settings:
        log_activity = np.log(activity)
        if activity < 1.0:
            if not stale_padding:
                for index, size in enumerate(sizes):
                    thresholds[index, int(size) :] = np.inf
                stale_padding = True
            positions = _svmc_draw_blocks(
                children, sizes, proposal_width, activity,
                thresholds, passing, packed_normals, packed_mixes,
            )
            sweep = (problem, transverse, temperature, log_activity)
            if not one_chunk:
                instances, rows = np.divmod(positions // reads, max_size)
            for p0 in range(0, max_size, _SVMC_CHUNK):
                p1 = min(p0 + _SVMC_CHUNK, max_size)
                index = slot = positions
                ranks = None
                if not one_chunk:
                    # Position (b, p, r) of the state is (b, p - p0, r) of
                    # the change buffer.
                    ranks = np.flatnonzero((rows >= p0) & (rows < p1))
                    index = positions[ranks]
                    offset = instances[ranks] * (max_size - chunk_cap) + p0
                    slot = index - offset * reads
                flips = _svmc_gated_chunk(
                    flat, index, slot, ranks, p0, p1, sweep, uniform_fraction,
                    accept, work, change,
                )
                apply_couplings(local, symmetric, flips, p0, p1, coupled)
            continue
        if stale_padding:
            for index, size in enumerate(sizes):
                normals[index, int(size) :] = 0.0
                mixes[index, int(size) :] = 0.0
                thresholds[index, int(size) :] = 0.0
            stale_padding = False
        _svmc_draw_dense(children, sizes, proposal_width, thresholds, normals, mixes)
        _svmc_fill_thresholds(thresholds, sizes, temperature, log_activity)
        for p0 in range(0, max_size, _SVMC_CHUNK):
            p1 = min(p0 + _SVMC_CHUNK, max_size)
            width = p1 - p0
            theta_chunk = theta[:, p0:p1]
            cos_chunk = cosines[:, p0:p1]
            sin_chunk = sines[:, p0:p1]
            prop = _svmc_propose_block(
                theta_chunk,
                normals[:, p0:p1],
                mixes[:, p0:p1],
                uniform_fraction,
                proposed[:, :width],
            )
            cos_p, sin_p = _svmc_cos_sin_block(
                prop, proposed_cos[:, :width], proposed_sin[:, :width]
            )
            gap = diff[:, :width]
            np.subtract(cos_p, cos_chunk, out=gap)
            sdiff = shift[:, :width]
            np.subtract(sin_p, sin_chunk, out=sdiff)
            step = delta[:, :width]
            np.multiply(gap, local[:, p0:p1], out=step)
            step *= problem
            scaled = scratch[:, :width]
            np.multiply(sdiff, transverse, out=scaled)
            step -= scaled
            np.maximum(step, 0.0, out=step)
            decided = accept[:, :width]
            np.less(step, thresholds[:, p0:p1], out=decided)
            flips = change[:, :width]
            np.multiply(decided, gap, out=flips)
            cos_chunk += flips
            sdiff *= decided
            sin_chunk += sdiff
            np.subtract(prop, theta_chunk, out=scaled)
            scaled *= decided
            theta_chunk += scaled
            apply_couplings(local, symmetric, flips, p0, p1, coupled)
    return cosines


def svmc_sweeps(*args, **kwargs) -> np.ndarray:
    """Run :func:`svmc_sweeps_vectorized`, timed and counted under telemetry.

    The kernel is looked up at call time, so a test may substitute the
    scalar specification for the module attribute.
    """
    return _dispatch_instrumented("svmc", svmc_sweeps_vectorized, "settings", args, kwargs)
