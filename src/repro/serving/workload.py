"""Multi-user, multi-cell RAN detection workloads.

The paper's Figure-2 vision is a *centralised* RAN: detection jobs from many
users in many cells stream into one hybrid classical/quantum processing
plant.  This module turns that picture into data the serving simulator can
consume — each user is described by a :class:`UserProfile` (cell, link
configuration or heterogeneous mix, traffic intensity, turnaround budget),
per-user :class:`~repro.wireless.traffic.TrafficGenerator` streams are drawn
from independent child generators, and the streams are merged into one
arrival-ordered sequence of :class:`ServingJob` objects.

Cell-level load skew (traffic hotspots) is expressed through per-cell load
factors: a factor of 2 halves the symbol period of every user in that cell.

Two QoS extensions ride on top (both default off, reproducing the legacy
workloads bitwise):

* **service classes** — profiles may carry a
  :class:`~repro.serving.qos.ServiceClass` whose per-class turnaround budget
  overrides the profile's generic one and which travels on every
  :class:`ServingJob` into scheduling, admission and reporting;
* **inter-cell handover** — a :class:`HandoverModel` re-homes each user's
  jobs along a per-user Poisson timeline of cell-boundary crossings
  (velocity-coupled via :func:`repro.wireless.fading.handover_rate_per_us`,
  targets drawn from the neighbour graph of the scenario's topology).
  Handover draws come from dedicated per-user child seeds, so sweeping the
  velocity never perturbs the traffic streams.

Every job's payload is drawn over the paper's unit-gain random-phase
channel; the channel-impairment engine (:mod:`repro.wireless.fading`) is
swept by the robustness study, not by the serving workloads.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.network.topology import NetworkTopology
from repro.serving.qos import DEFAULT_CLASS, ServiceClass, resolve_service_class
from repro.serving.scenarios import NetworkScenario
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs, stable_seed
from repro.utils.validation import require, require_non_negative, require_positive
from repro.wireless.fading import handover_rate_per_us
from repro.wireless.mimo import MIMOConfig
from repro.wireless.traffic import ChannelUse, TrafficGenerator

__all__ = [
    "UserProfile",
    "ServingJob",
    "HandoverModel",
    "uniform_cell_profiles",
    "generate_serving_jobs",
]


@dataclass(frozen=True)
class UserProfile:
    """Traffic description of one user equipment attached to a cell.

    Attributes
    ----------
    user_id / cell_id:
        Identity of the user and the cell it is attached to.
    config:
        The user's MIMO link configuration, or a sequence of configurations
        forming a heterogeneous job mix (see
        :class:`~repro.wireless.traffic.TrafficGenerator`).
    symbol_period_us:
        Mean spacing between the user's channel uses.
    arrival_process:
        ``"deterministic"`` or ``"poisson"`` (bursty uplink).
    turnaround_budget_us:
        Relative deadline of each of the user's jobs, or ``None``.
    phase_offset_us:
        Start offset of the user's stream.  Every traffic stream begins at
        relative time 0, so without offsets all users emit their first job
        simultaneously — a synchronized burst no real cell exhibits.
        :func:`uniform_cell_profiles` staggers users across one symbol
        period.
    service_class:
        The user's QoS class, or ``None`` for the legacy single-class
        behaviour (:data:`~repro.serving.qos.DEFAULT_CLASS`).  A class with
        its own ``turnaround_budget_us`` overrides the profile's generic
        budget for every job the user emits.
    """

    user_id: int
    cell_id: int
    config: Union[MIMOConfig, Tuple[MIMOConfig, ...]]
    symbol_period_us: float = 71.4
    arrival_process: str = "poisson"
    turnaround_budget_us: Optional[float] = 500.0
    phase_offset_us: float = 0.0
    service_class: Optional[ServiceClass] = None

    @property
    def resolved_service_class(self) -> ServiceClass:
        """The profile's class, defaulting to the legacy single class."""
        return self.service_class if self.service_class is not None else DEFAULT_CLASS

    @property
    def effective_budget_us(self) -> Optional[float]:
        """The turnaround budget the user's jobs actually carry.

        A service class with its own budget wins; a class without one
        (``DEFAULT_CLASS``) defers to the profile's generic budget, which is
        what keeps pre-QoS call sites bitwise-identical.
        """
        class_budget = self.resolved_service_class.turnaround_budget_us
        return class_budget if class_budget is not None else self.turnaround_budget_us

    def traffic_generator(self) -> TrafficGenerator:
        """Build the traffic generator realising this profile."""
        return TrafficGenerator(
            self.config,
            symbol_period_us=self.symbol_period_us,
            arrival_process=self.arrival_process,
            turnaround_budget_us=self.effective_budget_us,
        )


@dataclass(frozen=True)
class ServingJob:
    """One detection job as seen by the serving layer.

    Wraps a :class:`~repro.wireless.traffic.ChannelUse` with its origin
    (user, cell), a globally arrival-ordered ``job_id``, the user's QoS
    class and — when handover is modelled — the cell the user started in
    (``cell_id`` is then the cell serving the job *at arrival time*).

    The scheduling keys (:attr:`num_variables`, :attr:`shape_key`,
    :attr:`compat_key`) come from the channel use's link config, never its
    payload, so scheduling a job never draws its transmission.  They and
    the job's timing (:attr:`arrival_us`, :attr:`deadline_us`) are plain
    attributes set once, when the job is built (the dispatcher reads them
    many times per job), and are not dataclass fields, so equality,
    hashing, ``repr`` and :func:`dataclasses.fields` ignore them.
    :func:`dataclasses.replace` builds the copy anew, so its keys and timing
    follow its own channel use and class.

    Timing
    ------
    arrival_us:
        Arrival time at the central processing plant (the channel use's
        ``arrival_time_us``).
    deadline_us:
        Absolute deadline (the channel use's), or ``None`` for best-effort
        jobs.

    Scheduling keys
    ---------------
    num_variables:
        QUBO size of the detection problem.
    shape_key:
        Physical batching key ``(num_variables, modulation)``.  An annealer
        submission programs one problem shape, so a batch must not mix QUBO
        sizes (or modulations, whose decode paths differ).  This is the
        pre-QoS ``compat_key``; class-blind schedulers
        (``class_aware=False``) still batch on it.
    compat_key:
        Batching compatibility key: jobs may share a batch only if equal.
        Extends ``shape_key`` with the service class's
        :attr:`~repro.serving.qos.ServiceClass.degradation_tier`, so
        protected jobs never co-batch with degradable ones — a batch is
        demoted or shed as a unit, and a protected URLLC job must not be
        dragged onto the classical path by its batch-mates.  Classes on the
        *same* tier (eMBB and best-effort) still coalesce freely.
    """

    job_id: int
    user_id: int
    cell_id: int
    channel_use: ChannelUse
    service_class: ServiceClass = DEFAULT_CLASS
    home_cell_id: Optional[int] = None

    def __post_init__(self) -> None:
        # Straight into the instance dict, as functools.cached_property
        # writes: cheaper than the frozen class's object.__setattr__.
        use = self.channel_use
        config = use.config
        shape = (config.qubo_variable_count, config.modulation)
        keys = self.__dict__
        keys["num_variables"] = shape[0]
        keys["shape_key"] = shape
        keys["compat_key"] = shape + (self.service_class.degradation_tier,)
        keys["arrival_us"] = use.arrival_time_us
        keys["deadline_us"] = use.deadline_us

    @property
    def modulation(self) -> str:
        """Modulation of the underlying channel use."""
        return self.channel_use.modulation

    @property
    def handed_over(self) -> bool:
        """Whether the job arrives in a different cell than the user's home."""
        return self.home_cell_id is not None and self.cell_id != self.home_cell_id


@dataclass(frozen=True)
class HandoverModel:
    """User mobility for inter-cell handover.

    The crossing rate couples to user velocity through the same fluid-flow
    model the fading layer uses
    (:func:`~repro.wireless.fading.handover_rate_per_us`): fast users both
    fade harder and hand over more.  Each user's crossing timeline is drawn
    from a dedicated child seed (``stable_seed("handover", seed, user_id)``)
    — *not* from the traffic root — so sweeping the velocity never shifts
    the traffic draws, and ``velocity_mps=0`` reproduces the no-handover
    workload bitwise.

    Attributes
    ----------
    velocity_mps:
        User speed; 0 disables handover entirely.
    seed:
        Root of the per-user handover seed tree, independent of the
        workload seed.
    """

    velocity_mps: float
    seed: int = 0

    def __post_init__(self) -> None:
        # Delegates range validation (velocity >= 0) so the model and the
        # fading layer can never disagree on what is legal.
        handover_rate_per_us(self.velocity_mps)

    @property
    def rate_per_us(self) -> float:
        """Mean cell-boundary crossings per microsecond."""
        return handover_rate_per_us(self.velocity_mps)


def _handover_timeline(
    profile: UserProfile,
    handover: HandoverModel,
    topology: NetworkTopology,
    horizon_us: float,
) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    """One user's cell-crossing timeline: event times and post-event cells.

    A Poisson process at the model's crossing rate over ``[0, horizon_us]``;
    each crossing walks to a uniformly drawn neighbour of the current cell.
    All draws come from the user's dedicated handover child generator.
    """
    rate = handover.rate_per_us
    if rate <= 0.0 or horizon_us <= 0.0:
        return (), ()
    child = ensure_rng(stable_seed("handover", handover.seed, profile.user_id))
    times: List[float] = []
    cells: List[int] = []
    current = profile.cell_id
    elapsed = 0.0
    while True:
        elapsed += float(child.exponential(1.0 / rate))
        if elapsed > horizon_us:
            break
        current = topology.random_neighbor(current, child)
        times.append(elapsed)
        cells.append(current)
    return tuple(times), tuple(cells)


def _cell_at(
    arrival_us: float,
    home_cell_id: int,
    times: Tuple[float, ...],
    cells: Tuple[int, ...],
) -> int:
    """The cell serving a user at ``arrival_us`` given its crossing timeline."""
    index = bisect.bisect_right(times, arrival_us) - 1
    return cells[index] if index >= 0 else home_cell_id


def uniform_cell_profiles(
    num_cells: int,
    users_per_cell: int,
    configs: Sequence[MIMOConfig],
    symbol_period_us: float = 71.4,
    arrival_process: str = "poisson",
    turnaround_budget_us: Optional[float] = 500.0,
    cell_load_factors: Optional[Sequence[float]] = None,
    topology: Optional[NetworkTopology] = None,
    service_classes: Optional[Sequence[Union[str, ServiceClass]]] = None,
) -> List[UserProfile]:
    """Lay out ``num_cells * users_per_cell`` users, cycling link configs.

    ``configs`` is cycled across users so a multi-entry sequence produces a
    heterogeneous user population (e.g. alternating QPSK and 16-QAM users).
    ``cell_load_factors`` scales each cell's traffic intensity — factor ``f``
    divides the symbol period of that cell's users by ``f``, modelling
    spatially skewed hotspot load.

    Each cell's users are offset evenly across one (cell-scaled) symbol
    period, so the plant sees a steady multi-user stream rather than an
    artificial synchronized burst at t=0.

    ``topology`` (optional) pins the layout the users live on; it only
    validates the cell count.

    ``service_classes`` (names or :class:`~repro.serving.qos.ServiceClass`
    instances) is cycled across each cell's users by their in-cell
    position, so every cell carries the full class mix.  Omitting it keeps
    the legacy single-class profiles.
    """
    require_positive(num_cells, "num_cells")
    if topology is not None and topology.num_cells != num_cells:
        raise ConfigurationError(
            f"topology has {topology.num_cells} cells, profiles were asked for "
            f"{num_cells}"
        )
    require_positive(users_per_cell, "users_per_cell")
    require(bool(configs), "configs must not be empty")
    factors = (
        tuple(cell_load_factors) if cell_load_factors is not None else (1.0,) * num_cells
    )
    if len(factors) != num_cells:
        raise ConfigurationError(
            f"{len(factors)} cell_load_factors supplied for {num_cells} cells"
        )
    for factor in factors:
        require_positive(factor, "cell load factors")
    if service_classes is not None and not service_classes:
        raise ConfigurationError("service_classes must not be empty when supplied")
    resolved_classes = (
        tuple(resolve_service_class(entry) for entry in service_classes)
        if service_classes is not None
        else None
    )

    profiles: List[UserProfile] = []
    user_id = 0
    for cell_id in range(num_cells):
        cell_period = symbol_period_us / factors[cell_id]
        for position in range(users_per_cell):
            profiles.append(
                UserProfile(
                    user_id=user_id,
                    cell_id=cell_id,
                    config=configs[user_id % len(configs)],
                    symbol_period_us=cell_period,
                    arrival_process=arrival_process,
                    turnaround_budget_us=turnaround_budget_us,
                    phase_offset_us=cell_period * position / users_per_cell,
                    service_class=(
                        resolved_classes[position % len(resolved_classes)]
                        if resolved_classes is not None
                        else None
                    ),
                )
            )
            user_id += 1
    return profiles


def generate_serving_jobs(
    profiles: Sequence[UserProfile],
    jobs_per_user: int,
    rng: RandomState = None,
    scenario: Optional[NetworkScenario] = None,
    handover: Optional[HandoverModel] = None,
) -> List[ServingJob]:
    """Draw every user's stream and merge into one arrival-ordered job list.

    Each profile consumes its own child generator (spawned in profile order
    from the root seed) for its arrivals, so the merged workload is
    reproducible and adding a user never perturbs the other users' streams.
    Each job's payload (channel, bits, noise) is drawn on a payload
    generator spawned from the user's child, on first access to its
    transmission (see :mod:`repro.wireless.traffic`): a run that only
    schedules the jobs draws none.  Ties in arrival time are broken by
    ``(user_id, per-user index)`` for determinism.

    With a :class:`~repro.serving.scenarios.NetworkScenario`, each user's
    stream becomes a piecewise-inhomogeneous Poisson process over the
    scenario horizon: the scenario's per-cell intensity multiplier modulates
    the user's nominal rate (via
    :meth:`~repro.wireless.traffic.TrafficGenerator.stream_modulated`
    thinning on the per-user child generators, so fixed seeds still yield
    bitwise-identical workloads).  ``jobs_per_user`` then acts as a
    per-user ceiling — the realised count varies with the scenario's demand
    — and the user's ``phase_offset_us`` staggers the start of its thinning
    clock without shifting the scenario timeline.

    ``handover`` re-homes each user's jobs along its cell-crossing timeline
    (see :class:`HandoverModel`): a job emitted after the user crossed into
    a neighbouring cell carries that cell as ``cell_id`` and the user's
    original cell as ``home_cell_id``.  Handover needs a scenario: its
    topology is the neighbour graph and its duration the crossing
    timeline's horizon.  Handover draws use their own per-user
    child seeds, so the traffic streams (and therefore arrival times,
    deadlines and channel realisations) are bitwise-identical with and
    without it.
    """
    require(bool(profiles), "profiles must not be empty")
    if handover is not None and scenario is None:
        raise ConfigurationError(
            "handover needs a neighbour graph; pass a scenario, whose topology "
            "supplies it"
        )
    require_positive(jobs_per_user, "jobs_per_user")
    seen_ids = set()
    for profile in profiles:
        if profile.user_id in seen_ids:
            raise ConfigurationError(f"duplicate user_id {profile.user_id} in profiles")
        seen_ids.add(profile.user_id)

    for profile in profiles:
        require_non_negative(profile.phase_offset_us, "phase_offset_us")
        if scenario is not None and not 0 <= profile.cell_id < scenario.num_cells:
            raise ConfigurationError(
                f"user {profile.user_id} sits in cell {profile.cell_id}, outside "
                f"scenario {scenario.name!r}'s {scenario.num_cells}-cell grid"
            )

    root = ensure_rng(rng)
    children = spawn_rngs(root, len(profiles))
    tagged: List[Tuple[float, int, int, int, ChannelUse, ServiceClass, Optional[int]]] = []
    for profile, child in zip(profiles, children):
        generator = profile.traffic_generator()
        if scenario is not None:
            uses = list(
                generator.stream_modulated(
                    horizon_us=scenario.duration_us,
                    intensity=functools.partial(scenario.intensity, profile.cell_id),
                    peak_intensity=scenario.peak_intensity(),
                    rng=child,
                    max_count=jobs_per_user,
                    start_us=profile.phase_offset_us,
                )
            )
        else:
            uses = []
            for use in generator.stream(jobs_per_user, child):
                if profile.phase_offset_us:
                    use = dataclasses.replace(
                        use,
                        arrival_time_us=use.arrival_time_us + profile.phase_offset_us,
                        deadline_us=(
                            use.deadline_us + profile.phase_offset_us
                            if use.deadline_us is not None
                            else None
                        ),
                    )
                uses.append(use)

        service_class = profile.resolved_service_class
        if handover is not None and uses:
            # Timeline draws come from the user's dedicated handover child,
            # never from `child`, so traffic streams stay untouched.
            times, cells = _handover_timeline(
                profile, handover, scenario.topology, scenario.duration_us
            )
            home_cell: Optional[int] = profile.cell_id
        else:
            times, cells = (), ()
            home_cell = profile.cell_id if handover is not None else None
        for use in uses:
            cell_id = _cell_at(use.arrival_time_us, profile.cell_id, times, cells)
            tagged.append(
                (
                    use.arrival_time_us,
                    profile.user_id,
                    use.index,
                    cell_id,
                    use,
                    service_class,
                    home_cell,
                )
            )

    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        ServingJob(job_id, user_id, cell_id, use, service_class, home_cell)
        for job_id, (_, user_id, _, cell_id, use, service_class, home_cell) in enumerate(
            tagged
        )
    ]
