"""The quantum annealer simulator front-end.

:class:`QuantumAnnealerSimulator` exposes an Ocean-SDK-like sampling API on
top of the schedule definitions, the device constants and the spin-vector
Monte Carlo physics backend; every problem is sampled on its logical variables:

>>> from repro.annealing import QuantumAnnealerSimulator, reverse_anneal_schedule
>>> sampler = QuantumAnnealerSimulator(seed=7)
>>> schedule = reverse_anneal_schedule(switch_s=0.41, pause_duration_us=1.0)
>>> result = sampler.sample_qubo(qubo, schedule, num_reads=500, initial_state=bits)
>>> result.first.energy

There is one sampling entry per problem form — :meth:`sample_qubo_batch`
and :meth:`sample_ising_batch`, with :meth:`sample_qubo` and
:meth:`sample_ising` their batches of one — and the paper's three solver
flavours are the schedules of :func:`forward_anneal_schedule`,
:func:`reverse_anneal_schedule` and :func:`forward_reverse_anneal_schedule`
handed to them.  Both forms share one anneal step, which checks the call,
programs the device, runs the backend and scores each read once under the
caller's own model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.annealing import device
from repro.annealing.sampleset import SampleSet
from repro.annealing.schedule import AnnealSchedule
from repro.annealing.svmc import SpinVectorMonteCarloBackend, check_sampling_call
from repro.qubo.ising import IsingModel, bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.batching import iter_batches
from repro.utils.rng import (
    BatchRandomState,
    RandomState,
    ensure_rng,
    ensure_rng_batch,
    spawn_rngs,
)

__all__ = ["QuantumAnnealerSimulator", "SPIN_READ_BUDGET"]

#: Spin-reads (instances x padded spins x reads) one ``run_batch`` call may
#: hold.  Larger batches go to the backend in consecutive chunks; every
#: instance draws only from its own child, so the split changes no sample.
SPIN_READ_BUDGET = 1 << 20


class QuantumAnnealerSimulator:
    """A software stand-in for the D-Wave 2000Q used by the paper.

    Parameters
    ----------
    backend:
        The spin-vector Monte Carlo backend; a default one when omitted.
    seed:
        Seed for the simulator's private random stream (used when a call does
        not pass its own ``rng``).
    """

    def __init__(
        self,
        backend: Optional[SpinVectorMonteCarloBackend] = None,
        seed: RandomState = None,
    ) -> None:
        self.backend = backend if backend is not None else SpinVectorMonteCarloBackend()
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------ #
    # Core sampling entry points
    # ------------------------------------------------------------------ #

    def sample_qubo(
        self,
        qubo: QUBOModel,
        schedule: AnnealSchedule,
        num_reads: int = 100,
        initial_state: Optional[Sequence[int]] = None,
        rng: RandomState = None,
    ) -> SampleSet:
        """Sample a QUBO along an anneal schedule.

        ``initial_state`` is a 0/1 assignment and is required whenever the
        schedule starts from a classical state (reverse annealing).  A batch
        of one: see :meth:`sample_qubo_batch`.
        """
        states = None if initial_state is None else [initial_state]
        return self.sample_qubo_batch([qubo], schedule, num_reads, states, self._child(rng))[0]

    def sample_ising(
        self,
        ising: IsingModel,
        schedule: AnnealSchedule,
        num_reads: int = 100,
        initial_spins: Optional[np.ndarray] = None,
        rng: RandomState = None,
    ) -> SampleSet:
        """Sample an Ising model along an anneal schedule (a batch of one)."""
        spins = None if initial_spins is None else [initial_spins]
        return self.sample_ising_batch([ising], schedule, num_reads, spins, self._child(rng))[0]

    def _child(self, rng: RandomState) -> List[np.random.Generator]:
        """The single child of a batch of one: ``rng``, or the sampler's own stream."""
        return [ensure_rng(rng) if rng is not None else self._rng]

    # ------------------------------------------------------------------ #
    # Batched multi-instance entry points
    # ------------------------------------------------------------------ #

    def sample_qubo_batch(
        self,
        qubos: Sequence[QUBOModel],
        schedule: AnnealSchedule,
        num_reads: int = 100,
        initial_states: Optional[Sequence[Optional[Sequence[int]]]] = None,
        rng: BatchRandomState = None,
    ) -> List[SampleSet]:
        """Sample a batch of independent QUBOs along one shared anneal schedule.

        Instances may have different sizes; each draws only from its own
        child generator (``rng`` is a root seed or an explicit per-instance
        generator sequence), so the returned sample sets do not depend on
        batch composition.  ``initial_states`` holds a 0/1 assignment (or
        ``None`` under a forward schedule) per instance.  Each read is scored
        once, under its QUBO.
        """
        return self._sample_batch(qubos, schedule, num_reads, initial_states, rng)

    def sample_ising_batch(
        self,
        isings: Sequence[IsingModel],
        schedule: AnnealSchedule,
        num_reads: int,
        initial_spins: Optional[Sequence[Optional[np.ndarray]]] = None,
        rng: BatchRandomState = None,
    ) -> List[SampleSet]:
        """Sample a batch of independent Ising models along one schedule.

        As :meth:`sample_qubo_batch`, with +/-1 initial states, and each
        read scored under its Ising model.
        """
        return self._sample_batch(isings, schedule, num_reads, initial_spins, rng)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _sample_batch(
        self,
        models: Sequence[Union[QUBOModel, IsingModel]],
        schedule: AnnealSchedule,
        num_reads: int,
        initial_states: Optional[Sequence[Optional[np.ndarray]]],
        rng: BatchRandomState,
    ) -> List[SampleSet]:
        """The anneal step both problem forms share.

        The call is checked (:func:`~repro.annealing.svmc.check_sampling_call`)
        before anything is converted or drawn.  A QUBO is annealed as its
        Ising form from the spins of its 0/1 initial state and its reads are
        scored under the QUBO; an Ising model anneals from its own spins and
        scores under itself.  The instances go to the backend's
        :meth:`~repro.annealing.svmc.SpinVectorMonteCarloBackend.run_batch`
        in consecutive chunks of ``max(1, SPIN_READ_BUDGET // (N_max *
        num_reads))`` instances, ``N_max`` being the batch's widest instance.
        """
        check_sampling_call(schedule, num_reads, len(models), initial_states)
        isings = [qubo_to_ising(m) if isinstance(m, QUBOModel) else m for m in models]
        initials = [None] * len(models) if initial_states is None else list(initial_states)
        for index, model in enumerate(models):
            if isinstance(model, QUBOModel) and initials[index] is not None:
                initials[index] = bits_to_spins(initials[index])
        children = ensure_rng_batch(rng if rng is not None else self._rng, len(models))

        samplesets: List[SampleSet] = []
        widest = max((ising.num_spins for ising in isings), default=0)
        chunk_length = max(1, SPIN_READ_BUDGET // (max(1, widest) * num_reads))
        for _, chunk in iter_batches(range(len(isings)), chunk_length):
            normalised = [self._normalise(isings[index], children[index]) for index in chunk]
            spins_list = self.backend.run_batch(
                fields=[fields for fields, _ in normalised],
                couplings=[couplings for _, couplings in normalised],
                schedule=schedule,
                num_reads=num_reads,
                relative_temperature=device.RELATIVE_TEMPERATURE,
                initial_spins=[initials[index] for index in chunk],
                rng=[self._kernel_rng(children[index]) for index in chunk],
            )
            for index, spins in zip(chunk, spins_list):
                bits = ((spins + 1) // 2).astype(np.int8)
                model = models[index]
                energies = model.energies(bits if isinstance(model, QUBOModel) else spins)
                metadata = self._metadata(schedule, num_reads)
                samplesets.append(SampleSet.from_arrays(bits, energies, metadata=metadata))
        return samplesets

    def _normalise(self, ising: IsingModel, generator: np.random.Generator):
        """The ``(fields, couplings)`` programmed for one instance.

        ``generator`` is the instance's own child, not yet drawn from; the
        simulated device programs exactly, but a subclass modelling control
        noise on the programmed coefficients draws it from there.
        """
        scale = device.normalisation_scale(ising)
        return ising.fields / scale, ising.couplings / scale

    @staticmethod
    def _kernel_rng(generator: np.random.Generator) -> np.random.Generator:
        """Child generator feeding the anneal kernel's draws.

        The kernel consumes a number of draws that scales with ``num_reads``;
        *spawning* a child (which advances only the seed-sequence spawn
        counter, never the caller's bitstream) instead of drawing directly
        means sweeping ``num_reads`` can never shift the draws any downstream
        consumer takes from the caller's generator.
        """
        return spawn_rngs(generator, 1)[0]

    def _metadata(self, schedule: AnnealSchedule, num_reads: int) -> Dict:
        return {
            "schedule": schedule.as_pairs(),
            "schedule_name": schedule.name,
            "schedule_duration_us": schedule.duration_us,
            "num_reads": num_reads,
            "backend": self.backend.name,
            "device": device.describe(),
            "qpu_access_time_us": device.qpu_access_time_us(schedule, num_reads),
        }
