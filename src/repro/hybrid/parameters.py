"""Schedule-parameter sweeps: the paper's Design Challenge 2.

The performance of every annealing flavour depends on the switch/pause
location ``s_p`` (and, for forward-reverse annealing, the turning point
``c_p``).  The paper sweeps ``s_p`` from 0.25 to 0.99 in steps of 0.04
(Sec. 4.2) and reports success probability and TTS as functions of it
(Figure 8); FR's ``c_p`` is chosen by exhaustive "oracle" search.

The helpers here run those sweeps against the simulator and return structured
records the experiment runners and benchmarks print directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.schedule import (
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.exceptions import ConfigurationError
from repro.metrics.tts import TTSResult, time_to_solution
from repro.qubo.model import QUBOModel
from repro.utils.rng import BatchRandomState, RandomState, ensure_rng, ensure_rng_batch
from repro.utils.validation import require_open_unit

__all__ = [
    "SwitchPointRecord",
    "paper_switch_point_grid",
    "sweep_switch_point",
    "sweep_switch_point_batch",
    "best_switch_point",
    "sweep_forward_reverse_turning_point",
]


@dataclass(frozen=True)
class SwitchPointRecord:
    """Result of evaluating one schedule parameterisation.

    Attributes
    ----------
    method:
        "FA", "RA" or "FR".
    switch_s:
        The swept parameter value (s_p; for FR records this is s_p while
        ``turning_s`` carries c_p).
    success_probability:
        Empirical p* over the reads.
    tts:
        Time-to-solution derived from p* and the schedule duration.
    expectation_energy:
        Occurrence-weighted mean sample energy.
    duration_us:
        Schedule duration.
    turning_s:
        FR turning point c_p (None for FA/RA).
    """

    method: str
    switch_s: float
    success_probability: float
    tts: TTSResult
    expectation_energy: float
    duration_us: float
    turning_s: Optional[float] = None


def paper_switch_point_grid() -> np.ndarray:
    """The paper's s_p grid: 0.25 to 0.99 in steps of 0.04."""
    return np.round(np.arange(0.25, 0.99 + 1e-9, 0.04), 6)


def sweep_switch_point(
    qubo: QUBOModel,
    ground_energy: float,
    method: str = "RA",
    switch_values: Optional[Sequence[float]] = None,
    initial_state: Optional[Sequence[int]] = None,
    sampler: Optional[QuantumAnnealerSimulator] = None,
    num_reads: int = 500,
    rng: RandomState = None,
) -> List[SwitchPointRecord]:
    """Sweep s_p for one annealing method and return one record per value.

    For ``method="RA"`` an ``initial_state`` is required; for ``"FA"`` the
    sweep varies the pause location; for ``"FR"`` the turning point is fixed
    at ``min(s_p + 0.2, 0.95)`` — use
    :func:`sweep_forward_reverse_turning_point` for the oracle c_p search.
    A batch of one: see :func:`sweep_switch_point_batch`.
    """
    return sweep_switch_point_batch(
        [qubo],
        [ground_energy],
        method=method,
        switch_values=switch_values,
        initial_states=None if initial_state is None else [initial_state],
        sampler=sampler,
        num_reads=num_reads,
        rng=[ensure_rng(rng)],
    )[0]


def sweep_switch_point_batch(
    qubos: Sequence[QUBOModel],
    ground_energies: Sequence[float],
    method: str = "RA",
    switch_values: Optional[Sequence[float]] = None,
    initial_states: Optional[Sequence[Optional[Sequence[int]]]] = None,
    sampler: Optional[QuantumAnnealerSimulator] = None,
    num_reads: int = 500,
    rng: BatchRandomState = None,
) -> List[List[SwitchPointRecord]]:
    """Sweep s_p for a *batch* of instances and return per-instance records.

    At every grid point all instances are submitted to the annealer simulator
    as one batched call, so the whole sweep runs B instances wide through the
    vectorised backend kernel instead of looping.  The entries of ``qubos``
    may repeat (e.g. one detection problem swept from several initial states,
    as Figure 8 does) or differ (e.g. the headline experiment's instance
    seeds).  Instance ``b`` draws only from child generator ``b``, so the
    result does not depend on how instances are batched.

    Every schedule anneals for 1 us and pauses for 1 us.  Returns one
    ``List[SwitchPointRecord]`` (ordered like the grid) per instance.
    """
    method = method.upper()
    if method not in ("FA", "RA", "FR"):
        raise ConfigurationError(f"method must be 'FA', 'RA' or 'FR', got {method!r}")
    if len(ground_energies) != len(qubos):
        raise ConfigurationError(
            f"{len(ground_energies)} ground energies supplied for {len(qubos)} instances"
        )
    if method == "RA":
        if initial_states is None or any(state is None for state in initial_states):
            raise ConfigurationError("reverse annealing sweeps require initial states")
    if initial_states is not None and len(initial_states) != len(qubos):
        raise ConfigurationError(
            f"{len(initial_states)} initial states supplied for {len(qubos)} instances"
        )

    values = np.asarray(
        switch_values if switch_values is not None else paper_switch_point_grid(), dtype=float
    )
    # The whole grid up front: a bad point fails before any point anneals,
    # under its own name (the FA schedule would call it pause_s).
    for switch_s in values:
        require_open_unit(float(switch_s), "switch_s")
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator()
    children = ensure_rng_batch(rng, len(qubos))

    results: List[List[SwitchPointRecord]] = [[] for _ in qubos]
    for switch_s in values:
        switch_s = float(switch_s)
        turning_s: Optional[float] = None
        if method == "FA":
            schedule = forward_anneal_schedule(1.0, switch_s, 1.0)
            states: Optional[Sequence] = None
        elif method == "RA":
            schedule = reverse_anneal_schedule(switch_s)
            states = initial_states
        else:
            turning_s = min(switch_s + 0.2, 0.95)
            schedule = forward_reverse_anneal_schedule(turning_s, switch_s)
            states = None
        samplesets = annealer.sample_qubo_batch(qubos, schedule, num_reads, states, children)
        for index, (sampleset, ground_energy) in enumerate(zip(samplesets, ground_energies)):
            probability = sampleset.success_probability(float(ground_energy))
            tts = time_to_solution(probability, schedule.duration_us)
            results[index].append(
                SwitchPointRecord(
                    method=method,
                    switch_s=switch_s,
                    success_probability=probability,
                    tts=tts,
                    expectation_energy=sampleset.expectation_energy(),
                    duration_us=schedule.duration_us,
                    turning_s=turning_s,
                )
            )
    return results


def best_switch_point(records: Sequence[SwitchPointRecord]) -> SwitchPointRecord:
    """The record with the lowest finite TTS (ties broken by higher p*).

    Falls back to the highest success probability when no record has a finite
    TTS (i.e. the method never found the optimum anywhere on the grid).
    """
    if not records:
        raise ConfigurationError("no records supplied")
    finite = [record for record in records if record.tts.is_finite]
    if finite:
        return min(finite, key=lambda record: (record.tts.tts_us, -record.success_probability))
    return max(records, key=lambda record: record.success_probability)


def sweep_forward_reverse_turning_point(
    qubo: QUBOModel,
    ground_energy: float,
    switch_s: float,
    turning_values: Optional[Sequence[float]] = None,
    sampler: Optional[QuantumAnnealerSimulator] = None,
    num_reads: int = 500,
    rng: RandomState = None,
) -> List[SwitchPointRecord]:
    """Oracle search over FR's turning point c_p at a fixed s_p (paper Sec. 4.3)."""
    # An s_p outside (0, 1) leaves the turning grid empty, so no schedule
    # below would check it.
    require_open_unit(switch_s, "switch_s")
    values = np.asarray(
        turning_values
        if turning_values is not None
        else [value for value in paper_switch_point_grid() if value >= switch_s],
        dtype=float,
    )
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator()
    generator = ensure_rng(rng)

    records: List[SwitchPointRecord] = []
    for turning_s in values:
        turning_s = float(turning_s)
        if turning_s < switch_s:
            continue
        schedule = forward_reverse_anneal_schedule(turning_s, switch_s)
        sampleset = annealer.sample_qubo(qubo, schedule, num_reads, None, generator)
        probability = sampleset.success_probability(ground_energy)
        tts = time_to_solution(probability, schedule.duration_us)
        records.append(
            SwitchPointRecord(
                method="FR",
                switch_s=switch_s,
                success_probability=probability,
                tts=tts,
                expectation_energy=sampleset.expectation_energy(),
                duration_us=schedule.duration_us,
                turning_s=turning_s,
            )
        )
    return records
