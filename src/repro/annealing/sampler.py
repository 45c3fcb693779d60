"""The quantum annealer simulator front-end.

:class:`QuantumAnnealerSimulator` exposes an Ocean-SDK-like sampling API on
top of the schedule definitions, the device model, the (optional) Chimera
minor embedding, and one of the Monte Carlo physics backends:

>>> from repro.annealing import QuantumAnnealerSimulator, reverse_anneal_schedule
>>> sampler = QuantumAnnealerSimulator(seed=7)
>>> schedule = reverse_anneal_schedule(switch_s=0.41, pause_duration_us=1.0)
>>> result = sampler.sample_qubo(qubo, schedule, num_reads=500, initial_state=bits)
>>> result.first.energy

The paper's three solver flavours map onto the convenience methods
:meth:`forward_anneal`, :meth:`reverse_anneal` and
:meth:`forward_reverse_anneal`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.annealing.backend import AnnealingBackend
from repro.annealing.device import DeviceModel
from repro.annealing.embedding import embed_ising, find_clique_embedding, unembed_sampleset
from repro.annealing.sampleset import SampleSet
from repro.annealing.schedule import (
    AnnealSchedule,
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.exceptions import ConfigurationError
from repro.qubo.ising import IsingModel, bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import (
    BatchRandomState,
    RandomState,
    ensure_rng,
    ensure_rng_batch,
    spawn_rngs,
)

__all__ = ["QuantumAnnealerSimulator"]


class QuantumAnnealerSimulator:
    """A software stand-in for the D-Wave 2000Q used by the paper.

    Parameters
    ----------
    device:
        Device model (energy scales, temperature, noise, timing).  Defaults to
        the simulated 2000Q description.
    backend:
        Physics surrogate; defaults to spin-vector Monte Carlo.
    use_embedding:
        When true, problems are minor-embedded onto the device's Chimera graph
        and samples are unembedded with majority-vote chain-break resolution —
        slower but faithful to how dense problems run on real hardware.
    seed:
        Seed for the simulator's private random stream (used when a call does
        not pass its own ``rng``).
    """

    def __init__(
        self,
        device: Optional[DeviceModel] = None,
        backend: Optional[AnnealingBackend] = None,
        use_embedding: bool = False,
        lattice_size: Optional[int] = None,
        seed: RandomState = None,
    ) -> None:
        self.device = device if device is not None else DeviceModel()
        self.backend = backend if backend is not None else SpinVectorMonteCarloBackend()
        self.use_embedding = bool(use_embedding)
        self.lattice_size = lattice_size
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
        schedule starts from a classical state (reverse annealing).
        """
        ising = qubo_to_ising(qubo)
        initial_spins = None
        if initial_state is not None:
            initial_spins = bits_to_spins(np.asarray(initial_state, dtype=int))
        sampleset = self.sample_ising(ising, schedule, num_reads, initial_spins, rng)
        return self._requbo_sampleset(qubo, sampleset)

    @staticmethod
    def _requbo_sampleset(qubo: QUBOModel, sampleset: SampleSet) -> SampleSet:
        # Re-evaluate energies under the QUBO so offsets/conventions match the
        # caller's model exactly (the conversion is exact, but recomputing
        # avoids accumulating floating-point drift through two conversions).
        energies = qubo.energies(sampleset.assignments()) if len(sampleset) else np.empty(0)
        return sampleset.with_energies(energies)

    def sample_ising(
        self,
        ising: IsingModel,
        schedule: AnnealSchedule,
        num_reads: int = 100,
        initial_spins: Optional[np.ndarray] = None,
        rng: RandomState = None,
    ) -> SampleSet:
        """Sample an Ising model along an anneal schedule."""
        if num_reads <= 0:
            raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
        generator = ensure_rng(rng) if rng is not None else self._rng

        if schedule.requires_initial_state and initial_spins is None:
            raise ConfigurationError(
                f"schedule {schedule.name!r} starts from a classical state; "
                "supply initial_state/initial_spins"
            )

        if self.use_embedding and ising.num_spins > 1:
            sampleset = self._sample_embedded(ising, schedule, num_reads, initial_spins, generator)
        else:
            sampleset = self._sample_logical(ising, schedule, num_reads, initial_spins, generator)

        sampleset.metadata.update(self._metadata(schedule, num_reads))
        return sampleset

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

        Instances may have different sizes; each draws from its own child
        generator (``rng`` is a root seed or an explicit per-instance
        generator sequence), so the returned sample sets are bitwise-identical
        to calling :meth:`sample_qubo` once per instance with those children —
        regardless of batch composition.
        """
        if initial_states is not None and len(initial_states) != len(qubos):
            raise ConfigurationError(
                f"{len(initial_states)} initial states supplied for a batch of {len(qubos)}"
            )
        isings = [qubo_to_ising(qubo) for qubo in qubos]
        initial_spins: Optional[List[Optional[np.ndarray]]] = None
        if initial_states is not None:
            initial_spins = [
                None if state is None else bits_to_spins(np.asarray(state, dtype=int))
                for state in initial_states
            ]
        samplesets = self.sample_ising_batch(isings, schedule, num_reads, initial_spins, rng)
        return [
            self._requbo_sampleset(qubo, sampleset)
            for qubo, sampleset in zip(qubos, samplesets)
        ]

    def sample_ising_batch(
        self,
        isings: Sequence[IsingModel],
        schedule: AnnealSchedule,
        num_reads: int = 100,
        initial_spins: Optional[Sequence[Optional[np.ndarray]]] = None,
        rng: BatchRandomState = None,
    ) -> List[SampleSet]:
        """Sample a batch of independent Ising models along one schedule.

        The whole batch is handed to the backend's vectorised
        :meth:`~repro.annealing.backend.AnnealingBackend.run_batch` kernel in
        a single call (embedded sampling falls back to a per-instance loop).
        """
        if num_reads <= 0:
            raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
        if initial_spins is not None and len(initial_spins) != len(isings):
            raise ConfigurationError(
                f"{len(initial_spins)} initial states supplied for a batch of {len(isings)}"
            )
        batch = len(isings)
        children = ensure_rng_batch(rng if rng is not None else self._rng, batch)

        for index, ising in enumerate(isings):
            supplied = None if initial_spins is None else initial_spins[index]
            if schedule.requires_initial_state and supplied is None:
                raise ConfigurationError(
                    f"schedule {schedule.name!r} starts from a classical state; "
                    f"supply initial_state/initial_spins (missing for instance {index})"
                )

        if self.use_embedding:
            return [
                self.sample_ising(
                    ising,
                    schedule,
                    num_reads,
                    None if initial_spins is None else initial_spins[index],
                    children[index],
                )
                for index, ising in enumerate(isings)
            ]

        fields_list = []
        couplings_list = []
        kernel_children = []
        for index, ising in enumerate(isings):
            fields, couplings, _ = self._normalise(ising, children[index])
            fields_list.append(fields)
            couplings_list.append(couplings)
            # Mirrors the single-instance path (normalise, then spawn the
            # kernel child) so batch-of-one stays bitwise-identical to single.
            kernel_children.append(self._kernel_rng(children[index]))
        spins_list = self.backend.run_batch(
            fields=fields_list,
            couplings=couplings_list,
            schedule=schedule,
            num_reads=num_reads,
            annealing_functions=self.device.annealing,
            relative_temperature=self.device.relative_temperature,
            initial_spins=initial_spins,
            rng=kernel_children,
        )
        samplesets = []
        for ising, spins in zip(isings, spins_list):
            bits = ((spins + 1) // 2).astype(np.int8)
            energies = ising.energies(spins)
            sampleset = SampleSet.from_arrays(bits, energies, metadata={"embedded": False})
            sampleset.metadata.update(self._metadata(schedule, num_reads))
            samplesets.append(sampleset)
        return samplesets

    def forward_anneal_batch(
        self,
        qubos: Sequence[QUBOModel],
        num_reads: int = 100,
        anneal_time_us: float = 1.0,
        pause_s: Optional[float] = None,
        pause_duration_us: float = 1.0,
        rng: BatchRandomState = None,
    ) -> List[SampleSet]:
        """Forward-anneal a batch of QUBOs under one shared schedule."""
        schedule = forward_anneal_schedule(anneal_time_us, pause_s, pause_duration_us)
        return self.sample_qubo_batch(qubos, schedule, num_reads, None, rng)

    def reverse_anneal_batch(
        self,
        qubos: Sequence[QUBOModel],
        initial_states: Sequence[Sequence[int]],
        switch_s: float,
        num_reads: int = 100,
        pause_duration_us: float = 1.0,
        rng: BatchRandomState = None,
    ) -> List[SampleSet]:
        """Reverse-anneal a batch of QUBOs from per-instance initial states."""
        schedule = reverse_anneal_schedule(switch_s, pause_duration_us)
        return self.sample_qubo_batch(qubos, schedule, num_reads, initial_states, rng)

    # ------------------------------------------------------------------ #
    # Paper solver flavours
    # ------------------------------------------------------------------ #

    def forward_anneal(
        self,
        qubo: QUBOModel,
        num_reads: int = 100,
        anneal_time_us: float = 1.0,
        pause_s: Optional[float] = None,
        pause_duration_us: float = 1.0,
        rng: RandomState = None,
    ) -> SampleSet:
        """Forward annealing (FA), optionally with a mid-anneal pause."""
        schedule = forward_anneal_schedule(anneal_time_us, pause_s, pause_duration_us)
        return self.sample_qubo(qubo, schedule, num_reads, None, rng)

    def reverse_anneal(
        self,
        qubo: QUBOModel,
        initial_state: Sequence[int],
        switch_s: float,
        num_reads: int = 100,
        pause_duration_us: float = 1.0,
        rng: RandomState = None,
    ) -> SampleSet:
        """Reverse annealing (RA) from a classical initial state."""
        schedule = reverse_anneal_schedule(switch_s, pause_duration_us)
        return self.sample_qubo(qubo, schedule, num_reads, initial_state, rng)

    def forward_reverse_anneal(
        self,
        qubo: QUBOModel,
        turning_s: float,
        switch_s: float,
        num_reads: int = 100,
        pause_duration_us: float = 1.0,
        anneal_time_us: float = 1.0,
        rng: RandomState = None,
    ) -> SampleSet:
        """Single-step forward-reverse annealing (FR)."""
        schedule = forward_reverse_anneal_schedule(
            turning_s, switch_s, pause_duration_us, anneal_time_us
        )
        return self.sample_qubo(qubo, schedule, num_reads, None, rng)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _normalise(self, ising: IsingModel, generator: np.random.Generator):
        scale = self.device.normalisation_scale(ising)
        fields = ising.fields / scale
        couplings = ising.couplings / scale
        fields, couplings = self.device.apply_control_noise(fields, couplings, generator)
        return fields, couplings, scale

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

    def _sample_logical(
        self,
        ising: IsingModel,
        schedule: AnnealSchedule,
        num_reads: int,
        initial_spins: Optional[np.ndarray],
        generator: np.random.Generator,
    ) -> SampleSet:
        fields, couplings, _ = self._normalise(ising, generator)
        spins = self.backend.run(
            fields=fields,
            couplings=couplings,
            schedule=schedule,
            num_reads=num_reads,
            annealing_functions=self.device.annealing,
            relative_temperature=self.device.relative_temperature,
            initial_spins=initial_spins,
            rng=self._kernel_rng(generator),
        )
        bits = ((spins + 1) // 2).astype(np.int8)
        energies = ising.energies(spins)
        return SampleSet.from_arrays(bits, energies, metadata={"embedded": False})

    def _sample_embedded(
        self,
        ising: IsingModel,
        schedule: AnnealSchedule,
        num_reads: int,
        initial_spins: Optional[np.ndarray],
        generator: np.random.Generator,
    ) -> SampleSet:
        embedding = find_clique_embedding(ising.num_spins, self.lattice_size)
        fields, couplings, _ = self._normalise(ising, generator)
        logical = IsingModel(fields=fields, couplings=couplings)
        physical_fields, physical_couplings, chain_strength = embed_ising(logical, embedding)

        used_qubits = sorted({qubit for chain in embedding.chains for qubit in chain})
        position = {qubit: index for index, qubit in enumerate(used_qubits)}
        dense_fields = np.zeros(len(used_qubits))
        dense_couplings = np.zeros((len(used_qubits), len(used_qubits)))
        for qubit, value in physical_fields.items():
            dense_fields[position[qubit]] = value
        for (qubit_a, qubit_b), value in physical_couplings.items():
            low, high = sorted((position[qubit_a], position[qubit_b]))
            dense_couplings[low, high] += value

        physical_initial = None
        if initial_spins is not None:
            initial_spins = np.asarray(initial_spins, dtype=np.int8)
            if initial_spins.ndim != 1:
                raise ConfigurationError(
                    "embedded sampling supports a single shared initial state"
                )
            physical_initial = np.zeros(len(used_qubits), dtype=np.int8)
            for logical_index, chain in enumerate(embedding.chains):
                for qubit in chain:
                    physical_initial[position[qubit]] = initial_spins[logical_index]

        # Re-normalise the embedded problem (chain couplings may exceed range).
        max_abs = max(
            float(np.max(np.abs(dense_fields))) if dense_fields.size else 0.0,
            float(np.max(np.abs(dense_couplings))) if dense_couplings.size else 0.0,
            1e-12,
        )
        spins = self.backend.run(
            fields=dense_fields / max_abs,
            couplings=dense_couplings / max_abs,
            schedule=schedule,
            num_reads=num_reads,
            annealing_functions=self.device.annealing,
            relative_temperature=self.device.relative_temperature,
            initial_spins=physical_initial,
            rng=self._kernel_rng(generator),
        )
        physical_samples = [
            {qubit: int(spins[read, position[qubit]]) for qubit in used_qubits}
            for read in range(num_reads)
        ]
        # Energies are re-evaluated on the *unnormalised* logical model so the
        # caller sees energies in their own units.  Chain-break tie resolution
        # draws from its own spawned child for the same reason the kernel
        # does: its consumption scales with num_reads.
        sampleset = unembed_sampleset(
            physical_samples, embedding, ising, self._kernel_rng(generator)
        )
        sampleset.metadata["chain_strength"] = chain_strength
        sampleset.metadata["max_chain_length"] = embedding.max_chain_length
        return sampleset

    def _metadata(self, schedule: AnnealSchedule, num_reads: int) -> Dict:
        return {
            "schedule": schedule.as_pairs(),
            "schedule_name": schedule.name,
            "schedule_duration_us": schedule.duration_us,
            "num_reads": num_reads,
            "backend": self.backend.name,
            "device": self.device.describe(),
            "qpu_access_time_us": self.device.qpu_access_time_us(schedule, num_reads),
        }
