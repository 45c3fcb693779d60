"""Successive channel-use traffic generation for the pipelining study.

Paper Figure 2 sketches a pipelined hybrid architecture in which data from
successive wireless *channel uses* flow through classical and quantum
processing stages.  To quantify that design (experiment E-F2 in DESIGN.md)
the pipeline simulator needs a stream of timestamped detection jobs; this
module generates it.

Arrival processes supported:

* deterministic — one channel use every ``symbol_period_us`` microseconds,
  matching a continuously loaded OFDM frame;
* poisson — exponentially distributed inter-arrival times with the same mean,
  modelling bursty uplink traffic.

A generator may also carry a *heterogeneous job mix*: a sequence of MIMO
configurations (different modulations and antenna counts) that successive
channel uses draw from, either cyclically or at random.  This models a user
whose scheduler adapts modulation and rank over time, and it is what the RAN
serving simulator (:mod:`repro.serving`) uses to produce realistically mixed
detection workloads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.wireless.channel import ChannelModel, UnitGainRandomPhaseChannel
from repro.wireless.fading import ChannelImpairments, FadingProcess
from repro.wireless.mimo import MIMOConfig, MIMOTransmission, simulate_transmission

__all__ = ["ChannelUse", "TrafficGenerator"]


@dataclass(frozen=True)
class ChannelUse:
    """One timestamped detection job entering the processing pipeline.

    Attributes
    ----------
    index:
        Sequence number of the channel use (0-based).
    arrival_time_us:
        Arrival time at the baseband processor, in microseconds.
    transmission:
        The simulated transmission (instance + ground truth payload).
    deadline_us:
        Absolute processing deadline (arrival + turnaround budget), or
        ``None`` when no deadline applies.  When present it must lie strictly
        after the arrival time — a job that is born already expired is a
        configuration error, not a schedulable workload.  A NaN deadline is
        rejected too: it orders against nothing, so no scheduler can honour it.
    """

    index: int
    arrival_time_us: float
    transmission: MIMOTransmission
    deadline_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_us is not None and not self.deadline_us > self.arrival_time_us:
            raise ConfigurationError(
                f"deadline_us ({self.deadline_us}) must be strictly greater than "
                f"arrival_time_us ({self.arrival_time_us})"
            )

    @property
    def has_deadline(self) -> bool:
        """Whether this channel use carries a turnaround deadline."""
        return self.deadline_us is not None

    @property
    def qubo_variable_count(self) -> int:
        """QUBO size of this channel use's detection problem."""
        return self.transmission.instance.qubo_variable_count

    @property
    def modulation(self) -> str:
        """Modulation name of this channel use."""
        return self.transmission.instance.modulation


class TrafficGenerator:
    """Generate a stream of :class:`ChannelUse` jobs for the pipeline simulator.

    Parameters
    ----------
    config:
        MIMO link configuration shared by every channel use, or a sequence of
        configurations forming a heterogeneous job mix (successive channel
        uses then vary in modulation and/or antenna count).
    symbol_period_us:
        Mean spacing between successive channel uses, in microseconds.  The
        default of 71.4 us corresponds to an LTE OFDM symbol (including the
        normal cyclic prefix); 5G NR numerologies use shorter periods.
    arrival_process:
        ``"deterministic"`` or ``"poisson"``.
    turnaround_budget_us:
        Per-channel-use processing deadline relative to arrival (the link
        layer's ARQ turnaround the paper's introduction describes), or
        ``None`` to disable deadlines.
    channel_model:
        Channel model used to draw each channel use's realisation.
    job_mix:
        How a multi-configuration mix is sampled: ``"cyclic"`` walks the
        sequence round-robin (deterministic), ``"random"`` draws uniformly
        per channel use from the stream's generator.  Ignored for a single
        configuration, where no mix randomness is ever consumed — existing
        single-configuration streams are unchanged.
    impairments:
        Optional :class:`~repro.wireless.fading.ChannelImpairments`.  When
        active (non-identity), every channel use's realisation comes from a
        per-link-shape :class:`~repro.wireless.fading.FadingProcess` — so a
        user's successive blocks are temporally correlated per the Jakes
        model — and CSI error / interference apply per use.  ``None`` and
        the identity configuration leave the stream bitwise-identical to
        the unimpaired generator.
    interference_scale:
        Optional map from a channel use's arrival time (us) to a
        non-negative multiplier on ``impairments.interference_power`` — the
        hook the serving layer uses to couple interference to neighbouring
        cells' time-varying load.  Requires ``impairments``.
    """

    def __init__(
        self,
        config: Union[MIMOConfig, Sequence[MIMOConfig]],
        symbol_period_us: float = 71.4,
        arrival_process: str = "deterministic",
        turnaround_budget_us: Optional[float] = None,
        channel_model: Optional[ChannelModel] = None,
        job_mix: str = "cyclic",
        impairments: Optional[ChannelImpairments] = None,
        interference_scale: Optional[Callable[[float], float]] = None,
    ) -> None:
        if symbol_period_us <= 0:
            raise ConfigurationError(
                f"symbol_period_us must be positive, got {symbol_period_us}"
            )
        if arrival_process not in ("deterministic", "poisson"):
            raise ConfigurationError(
                "arrival_process must be 'deterministic' or 'poisson', "
                f"got {arrival_process!r}"
            )
        if turnaround_budget_us is not None and turnaround_budget_us <= 0:
            raise ConfigurationError(
                f"turnaround_budget_us must be positive, got {turnaround_budget_us}"
            )
        if job_mix not in ("cyclic", "random"):
            raise ConfigurationError(
                f"job_mix must be 'cyclic' or 'random', got {job_mix!r}"
            )
        configs: Tuple[MIMOConfig, ...]
        if isinstance(config, MIMOConfig):
            configs = (config,)
        else:
            configs = tuple(config)
            if not configs:
                raise ConfigurationError("config sequence must not be empty")
            for item in configs:
                if not isinstance(item, MIMOConfig):
                    raise ConfigurationError(
                        f"config sequence must contain MIMOConfig objects, got "
                        f"{type(item).__name__}"
                    )
        if interference_scale is not None and impairments is None:
            raise ConfigurationError(
                "interference_scale modulates impairment interference; supply "
                "impairments as well"
            )
        self.configs = configs
        self.config = configs[0]
        self.symbol_period_us = float(symbol_period_us)
        self.arrival_process = arrival_process
        self.turnaround_budget_us = turnaround_budget_us
        self.channel_model = (
            channel_model if channel_model is not None else UnitGainRandomPhaseChannel()
        )
        self.job_mix = job_mix
        self.impairments = impairments
        self.interference_scale = interference_scale
        # Identity impairments leave the configured channel_model in charge
        # (bitwise-unchanged streams); active impairments route channel
        # realisations through per-shape fading processes whose scattering
        # base is an *explicitly* supplied model, else the engine's Rayleigh
        # default (the unit-gain protocol channel has no spatial/temporal
        # structure to impair).
        self._active_impairments = (
            impairments if impairments is not None and not impairments.is_identity else None
        )
        self._fading_base = channel_model

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the stream mixes more than one link configuration."""
        return len(self.configs) > 1

    def generate(self, count: int, rng: RandomState = None) -> List[ChannelUse]:
        """Materialise ``count`` channel uses as a list."""
        return list(self.stream(count, rng))

    def stream(self, count: int, rng: RandomState = None) -> Iterator[ChannelUse]:
        """Yield ``count`` channel uses lazily (useful for long simulations)."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        # Each stream is its own coherence run: the fading-process map is
        # local to this invocation, so re-streaming the same generator with
        # the same seed is bitwise-identical and concurrent streams of one
        # generator cannot corrupt each other's temporal state.
        processes: Dict[Tuple[int, int], FadingProcess] = {}
        generator = ensure_rng(rng)
        arrival_time = 0.0
        for index in range(count):
            if index > 0:
                arrival_time += self._inter_arrival(generator)
            yield self._emit(index, arrival_time, generator, processes)

    def _emit(
        self,
        index: int,
        arrival_time_us: float,
        rng: np.random.Generator,
        processes: Dict[Tuple[int, int], FadingProcess],
    ) -> ChannelUse:
        """Realise one channel use at a fixed arrival time.

        Shared by the homogeneous and modulated streams so both arrival
        processes derive configs, channel realisations and deadlines
        identically (and in the same per-use randomness order).
        ``processes`` is the calling stream's private fading-state map.
        """
        config = self._config_for(index, rng)
        if self._active_impairments is None:
            transmission = simulate_transmission(config, self.channel_model, rng)
        else:
            transmission = self._emit_impaired(config, arrival_time_us, rng, processes)
        deadline = (
            arrival_time_us + self.turnaround_budget_us
            if self.turnaround_budget_us is not None
            else None
        )
        return ChannelUse(
            index=index,
            arrival_time_us=arrival_time_us,
            transmission=transmission,
            deadline_us=deadline,
        )

    def _emit_impaired(
        self,
        config: MIMOConfig,
        arrival_time_us: float,
        rng: np.random.Generator,
        processes: Dict[Tuple[int, int], FadingProcess],
    ) -> MIMOTransmission:
        """One channel use under active impairments (fading process + scaling)."""
        impairments = self._active_impairments
        shape = (config.receive_antennas, config.num_users)
        process = processes.get(shape)
        if process is None:
            process = FadingProcess(
                shape[0], shape[1], impairments, base_model=self._fading_base
            )
            processes[shape] = process
        channel = process.advance(rng)
        if self.interference_scale is not None:
            scale = float(self.interference_scale(arrival_time_us))
            if scale < 0:
                raise ConfigurationError(
                    f"interference_scale must be non-negative, got {scale} "
                    f"at t={arrival_time_us}"
                )
            impairments = dataclasses.replace(
                impairments,
                interference_power=impairments.interference_power * scale,
            )
        return simulate_transmission(
            config, rng=rng, impairments=impairments, channel_matrix=channel
        )

    def stream_modulated(
        self,
        horizon_us: float,
        intensity: Callable[[float], float],
        peak_intensity: float,
        rng: RandomState = None,
        max_count: Optional[int] = None,
        start_us: float = 0.0,
    ) -> Iterator[ChannelUse]:
        """Yield an inhomogeneous-Poisson stream over ``[start_us, horizon_us)``.

        ``intensity(t_us)`` is a non-negative multiplier on the generator's
        nominal rate ``1 / symbol_period_us`` (so 1.0 reproduces the mean
        homogeneous rate, 0.0 silences the stream) and ``peak_intensity``
        must bound it from above.  Arrivals are drawn by Ogata thinning:
        candidates arrive at the majorising rate ``peak / period`` and are
        accepted with probability ``intensity(t) / peak``.  All randomness —
        candidate times, acceptance draws, mix choices, channel realisations
        — comes from the single supplied generator, so a fixed seed yields a
        bitwise-identical stream (the time-varying analogue of the
        homogeneous :meth:`stream` guarantee).

        The modulated stream is inherently Poisson; a generator configured
        with ``arrival_process="deterministic"`` is rejected rather than
        silently changing semantics.
        """
        if self.arrival_process != "poisson":
            raise ConfigurationError(
                "stream_modulated generates inhomogeneous Poisson arrivals; "
                f"arrival_process must be 'poisson', got {self.arrival_process!r}"
            )
        if horizon_us <= 0:
            raise ConfigurationError(f"horizon_us must be positive, got {horizon_us}")
        if peak_intensity <= 0:
            raise ConfigurationError(
                f"peak_intensity must be positive, got {peak_intensity}"
            )
        if start_us < 0:
            raise ConfigurationError(f"start_us must be non-negative, got {start_us}")
        if max_count is not None and max_count < 0:
            raise ConfigurationError(
                f"max_count must be non-negative, got {max_count}"
            )
        # Fresh coherence run per stream; see :meth:`stream`.
        processes: Dict[Tuple[int, int], FadingProcess] = {}
        generator = ensure_rng(rng)
        mean_gap_us = self.symbol_period_us / peak_intensity
        arrival_time = start_us
        index = 0
        while max_count is None or index < max_count:
            arrival_time += float(generator.exponential(mean_gap_us))
            if arrival_time >= horizon_us:
                return
            multiplier = float(intensity(arrival_time))
            if multiplier < 0:
                raise ConfigurationError(
                    f"intensity must be non-negative, got {multiplier} "
                    f"at t={arrival_time}"
                )
            if multiplier > peak_intensity * (1.0 + 1e-9):
                raise ConfigurationError(
                    f"intensity {multiplier} exceeds peak_intensity "
                    f"{peak_intensity} at t={arrival_time}"
                )
            # Strict inequality: a u=0 draw must not accept a silent (m=0)
            # instant, and m=peak accepts every u in [0, 1).
            if float(generator.uniform()) * peak_intensity >= multiplier:
                continue
            yield self._emit(index, arrival_time, generator, processes)
            index += 1

    def _config_for(self, index: int, rng: np.random.Generator) -> MIMOConfig:
        if len(self.configs) == 1:
            return self.configs[0]
        if self.job_mix == "cyclic":
            return self.configs[index % len(self.configs)]
        return self.configs[int(rng.integers(len(self.configs)))]

    def _inter_arrival(self, rng: np.random.Generator) -> float:
        if self.arrival_process == "deterministic":
            return self.symbol_period_us
        return float(rng.exponential(self.symbol_period_us))

    @property
    def nominal_rate_per_us(self) -> float:
        """Nominal arrival rate (jobs per microsecond) at intensity 1.0.

        The aggregate-traffic layer (:mod:`repro.network.aggregate`) sums
        this over a cell's population to size the cell's Poisson counters.
        """
        return 1.0 / self.symbol_period_us

    def offered_load_bits_per_us(self) -> float:
        """Average offered payload load in bits per microsecond.

        For a heterogeneous mix this is the mean over the mix (exact for the
        cyclic mix, the expectation for the random mix).
        """
        mean_bits = float(np.mean([config.bits_per_channel_use for config in self.configs]))
        return mean_bits / self.symbol_period_us
