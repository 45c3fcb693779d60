"""Successive channel-use traffic generation for the pipelining study.

Paper Figure 2 sketches a pipelined hybrid architecture in which data from
successive wireless *channel uses* flow through classical and quantum
processing stages.  To quantify that design (the ``pipeline`` study in
``docs/experiments.md``) the pipeline simulator needs a stream of timestamped
detection jobs; this module generates it.

Arrival processes supported:

* deterministic — one channel use every ``symbol_period_us`` microseconds,
  matching a continuously loaded OFDM frame;
* poisson — exponentially distributed inter-arrival times with the same mean,
  modelling bursty uplink traffic.

A generator may also carry a *heterogeneous job mix*: a sequence of MIMO
configurations (different modulations and antenna counts) that successive
channel uses walk through cyclically.  This models a user whose scheduler
adapts modulation and rank over time, and it is what the RAN serving
simulator (:mod:`repro.serving`) uses to produce mixed detection workloads.

Every stream splits its randomness in two.  Arrival times and thinning are
drawn on the caller's generator (the *arrival stream*).  Each channel use's
payload — the paper's unit-gain random-phase channel, bits and noise — is
drawn on a *payload stream*, a generator spawned once per stream from the
caller's, and only when a consumer first reads
:attr:`ChannelUse.transmission`.  Studies that schedule jobs by arrival,
deadline and QUBO shape therefore never simulate a channel, and their
arrivals do not depend on the payload draws.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng
from repro.wireless.mimo import MIMOConfig, MIMOTransmission, simulate_transmission

__all__ = ["ChannelUse", "TrafficGenerator"]


class _PayloadStream:
    """One stream's payload generator and its payloads not yet handed over.

    Payloads are drawn strictly in the order they were handed out, whichever
    one a consumer reads first: reading payload ``k`` draws every earlier
    undrawn payload and keeps each until its own payload claims it.  So each
    payload is the same for every access order, and a stream read in order
    holds no transmission at all.
    Holds no callable, so it pickles, and no reference back to its payloads,
    so a dropped stream is freed at once.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        #: Link configs of the payloads handed out and not drawn yet, in order.
        self._recipes: Deque[MIMOConfig] = deque()
        #: Transmissions drawn before their own payload asked for them.
        self._unclaimed: Dict[int, MIMOTransmission] = {}
        self.drawn = 0

    def add(self, config: MIMOConfig) -> "_Payload":
        """Hand out the next payload, undrawn."""
        self._recipes.append(config)
        return _Payload(config, None, self, self.drawn + len(self._recipes) - 1)

    def claim(self, position: int) -> MIMOTransmission:
        """Payload ``position``'s transmission, drawing every earlier one first.

        Each position is claimed once: its payload keeps the transmission.
        """
        while self.drawn <= position:
            config = self._recipes.popleft()
            self._unclaimed[self.drawn] = simulate_transmission(config, rng=self._rng)
            self.drawn += 1
        return self._unclaimed.pop(position)


class _Payload:
    """A channel use's link config and its transmission.

    A payload either wraps a given transmission or is a position in a
    :class:`_PayloadStream`, which draws it on first access to
    :attr:`transmission`.  Equality and hashing are by identity — a stream
    payload is its (stream, position), a given one its transmission object —
    so they, ``repr`` and pickling never draw and do not depend on whether
    the payload was drawn.
    """

    __slots__ = ("config", "_stream", "_position", "_transmission")

    def __init__(
        self,
        config: MIMOConfig,
        transmission: Optional[MIMOTransmission],
        stream: Optional[_PayloadStream] = None,
        position: int = 0,
    ) -> None:
        self.config = config
        self._stream = stream
        self._position = position
        self._transmission = transmission

    @classmethod
    def given(cls, transmission: MIMOTransmission) -> "_Payload":
        """Wrap a transmission; its config is the instance's link shape."""
        instance = transmission.instance
        config = MIMOConfig(
            num_users=instance.num_users,
            modulation=instance.modulation,
            num_receive_antennas=instance.num_receive_antennas,
        )
        return cls(config, transmission)

    @property
    def is_drawn(self) -> bool:
        """Whether the transmission exists yet."""
        return self._transmission is not None or self._position < self._stream.drawn

    @property
    def transmission(self) -> MIMOTransmission:
        """The transmission, drawn (with every earlier payload) on first access."""
        if self._transmission is None:
            self._transmission = self._stream.claim(self._position)
        return self._transmission

    def _key(self) -> tuple:
        if self._stream is None:
            return (id(self._transmission),)
        return (id(self._stream), self._position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Payload):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"_Payload(config={self.config!r})"


@dataclass(frozen=True, init=False)
class ChannelUse:
    """One timestamped detection job entering the processing pipeline.

    Attributes
    ----------
    index:
        Sequence number of the channel use (0-based).
    arrival_time_us:
        Arrival time at the baseband processor, in microseconds.
    deadline_us:
        Absolute processing deadline (arrival + turnaround budget), or
        ``None`` when no deadline applies.  When present it must lie strictly
        after the arrival time — a job that is born already expired is a
        configuration error, not a schedulable workload.  A NaN deadline is
        rejected too: it orders against nothing, so no scheduler can honour it.
    payload:
        The use's link config and its transmission.  A
        :class:`TrafficGenerator` stream hands out payloads that are drawn
        on first access to :attr:`transmission`; :attr:`config`,
        :attr:`qubo_variable_count` and :attr:`modulation` never draw.

    A use is built around a given ``transmission`` (its config is then the
    instance's link shape) or around a stream's ``payload``.  A
    ``transmission`` passed to :func:`dataclasses.replace` replaces the
    payload.
    """

    index: int
    arrival_time_us: float
    deadline_us: Optional[float]
    payload: _Payload

    def __init__(
        self,
        index: int,
        arrival_time_us: float,
        transmission: Optional[MIMOTransmission] = None,
        deadline_us: Optional[float] = None,
        payload: Optional[_Payload] = None,
    ) -> None:
        if transmission is not None:
            payload = _Payload.given(transmission)
        elif payload is None:
            raise ConfigurationError("a channel use needs a transmission or a payload")
        if deadline_us is not None and not deadline_us > arrival_time_us:
            raise ConfigurationError(
                f"deadline_us ({deadline_us}) must be strictly greater than "
                f"arrival_time_us ({arrival_time_us})"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "arrival_time_us", arrival_time_us)
        object.__setattr__(self, "deadline_us", deadline_us)
        object.__setattr__(self, "payload", payload)

    @property
    def transmission(self) -> MIMOTransmission:
        """The simulated transmission (instance + ground truth payload)."""
        return self.payload.transmission

    @property
    def config(self) -> MIMOConfig:
        """The link configuration this channel use was drawn under.

        For a use built around a given transmission it is the instance's
        link shape (users, modulation, receive antennas), without the
        ``snr_db`` the transmission may have been drawn at.
        """
        return self.payload.config

    @property
    def qubo_variable_count(self) -> int:
        """QUBO size of this channel use's detection problem."""
        return self.payload.config.qubo_variable_count

    @property
    def modulation(self) -> str:
        """Modulation name of this channel use."""
        return self.payload.config.modulation


class TrafficGenerator:
    """Generate a stream of :class:`ChannelUse` jobs for the pipeline simulator.

    Every stream draws arrivals and thinning on the supplied generator and
    the payloads on a generator spawned from it once per stream, each
    payload lazily and all of them in index order (see the module
    docstring).  So a fixed seed yields a bitwise-identical stream.

    Parameters
    ----------
    config:
        MIMO link configuration shared by every channel use, or a sequence of
        configurations forming a heterogeneous job mix (successive channel
        uses walk it round-robin, varying in modulation and/or antenna
        count).
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
    """

    def __init__(
        self,
        config: Union[MIMOConfig, Sequence[MIMOConfig]],
        symbol_period_us: float = 71.4,
        arrival_process: str = "deterministic",
        turnaround_budget_us: Optional[float] = None,
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
        self.configs = configs
        self.config = configs[0]
        self.symbol_period_us = float(symbol_period_us)
        self.arrival_process = arrival_process
        self.turnaround_budget_us = turnaround_budget_us

    def generate(self, count: int, rng: RandomState = None) -> List[ChannelUse]:
        """Materialise ``count`` channel uses as a list."""
        return list(self.stream(count, rng))

    def stream(self, count: int, rng: RandomState = None) -> Iterator[ChannelUse]:
        """Yield ``count`` channel uses lazily (useful for long simulations)."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        generator = ensure_rng(rng)
        payloads = self._payload_stream(generator)
        arrival_time = 0.0
        for index in range(count):
            if index > 0:
                arrival_time += self._inter_arrival(generator)
            yield self._emit(index, arrival_time, payloads)

    @staticmethod
    def _payload_stream(generator: np.random.Generator) -> _PayloadStream:
        """A fresh payload stream on a child of the arrival generator.

        Spawning reads the generator's seed sequence, not its state, so it
        consumes no arrival draw, and re-streaming the same generator with
        the same seed is bitwise-identical.
        """
        return _PayloadStream(generator.spawn(1)[0])

    def _emit(self, index: int, arrival_time_us: float, payloads: _PayloadStream) -> ChannelUse:
        """Emit one channel use at a fixed arrival time, its payload undrawn.

        Shared by the homogeneous and modulated streams so both arrival
        processes derive configs, deadlines and payloads identically.
        """
        config = self.configs[index % len(self.configs)]
        deadline = (
            arrival_time_us + self.turnaround_budget_us
            if self.turnaround_budget_us is not None
            else None
        )
        return ChannelUse(
            index=index,
            arrival_time_us=arrival_time_us,
            deadline_us=deadline,
            payload=payloads.add(config),
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
        accepted with probability ``intensity(t) / peak``.  Candidate times
        and acceptance draws come from the supplied generator;
        payloads are drawn lazily on a generator spawned from it, as in
        :meth:`stream`.  So a fixed seed yields a bitwise-identical stream
        (the time-varying analogue of the homogeneous :meth:`stream`
        guarantee), and thinning never depends on the payload draws.

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
        generator = ensure_rng(rng)
        payloads = self._payload_stream(generator)
        mean_gap_us = self.symbol_period_us / peak_intensity
        arrival_time = start_us
        index = 0
        while max_count is None or index < max_count:
            arrival_time += generator.exponential(mean_gap_us)
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
            # instant, and m=peak accepts every u in [0, 1).  ``random()`` is
            # ``uniform()`` without its ``0 + 1 * u`` rescale: the same draw,
            # the same bits.
            if generator.random() * peak_intensity >= multiplier:
                continue
            yield self._emit(index, arrival_time, payloads)
            index += 1

    def _inter_arrival(self, rng: np.random.Generator) -> float:
        if self.arrival_process == "deterministic":
            return self.symbol_period_us
        return float(rng.exponential(self.symbol_period_us))
