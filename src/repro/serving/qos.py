"""Multi-service QoS classes for the RAN serving layer.

A production RAN does not serve one homogeneous deadline class: URLLC-like
control traffic demands tight turnaround at any cost, eMBB bulk transfers
tolerate hundreds of microseconds, and best-effort background traffic only
asks not to be dropped.  This module names those classes as first-class
:class:`ServiceClass` objects carried by every
:class:`~repro.serving.workload.UserProfile` and
:class:`~repro.serving.workload.ServingJob`:

* a **priority** (0 = most critical) that prefixes the EDF order, so a
  queued URLLC job always outranks a queued best-effort job regardless of
  their absolute deadlines;
* a **per-class turnaround budget** that overrides the profile's generic
  deadline;
* a **degradation ladder** (``demotable`` / ``sheddable``) that tells
  class-aware admission control what may be sacrificed under pressure —
  protected classes (neither flag) are never moved off the annealers, while
  sheddable classes can be offloaded to the classical fallback purely to
  relieve a *higher* class.

The ladder also partitions batching: jobs only coalesce across classes on
the same :attr:`~ServiceClass.degradation_tier`, so a protected URLLC job is
never trapped in a batch behind degradable bulk work (see
:attr:`~repro.serving.workload.ServingJob.compat_key`).

:data:`DEFAULT_CLASS` reproduces the pre-QoS serving layer bitwise: one
priority level, the profile's own budget, demotable under pressure (the
legacy admission-control behaviour) and never shed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.exceptions import ConfigurationError
from repro.utils.validation import require, require_non_negative

__all__ = [
    "ServiceClass",
    "DEFAULT_CLASS",
    "URLLC",
    "EMBB",
    "BEST_EFFORT",
    "SERVICE_CLASSES",
    "resolve_service_class",
]


@dataclass(frozen=True)
class ServiceClass:
    """One QoS class: priority, deadline budget and degradation ladder rung.

    Attributes
    ----------
    name:
        Registry key; also the label in per-class reports.
    priority:
        Scheduling rank, 0 = most critical.  Class-aware EDF serves lower
        numbers strictly first.
    turnaround_budget_us:
        Relative deadline of the class's jobs.  ``None`` defers to the
        :class:`~repro.serving.workload.UserProfile`'s own budget (the
        legacy single-class behaviour).
    demotable:
        Whether a deadline-pressured job of this class may be demoted to a
        classical fallback worker by admission control.
    sheddable:
        Whether queued jobs of this class may be offloaded to the classical
        path *pre-emptively* — even when not themselves pressured — to free
        annealer capacity for a pressured higher class.
    """

    name: str
    priority: int
    turnaround_budget_us: Optional[float] = None
    demotable: bool = True
    sheddable: bool = False

    def __post_init__(self) -> None:
        require(bool(self.name), "a service class needs a non-empty name")
        require_non_negative(self.priority, "priority")
        if self.turnaround_budget_us is not None and self.turnaround_budget_us <= 0:
            raise ConfigurationError(
                f"turnaround_budget_us must be positive or None, got "
                f"{self.turnaround_budget_us}"
            )
        if self.sheddable and not self.demotable:
            raise ConfigurationError(
                f"service class {self.name!r} is sheddable but not demotable; "
                "shedding is a stronger degradation than demotion"
            )

    @property
    def degradation_tier(self) -> int:
        """Batching boundary: 0 = protected, 1 = degradable.

        Protected jobs (neither demotable nor sheddable) must never share a
        batch with degradable jobs — a batch is dispatched as one unit, so
        co-batching would let admission control drag a protected job onto
        the classical path alongside its degradable batch-mates.
        """
        return 0 if not (self.demotable or self.sheddable) else 1


#: The legacy single-class behaviour: profile budgets, one priority level,
#: demotable under deadline pressure (exactly the pre-QoS admission rule).
DEFAULT_CLASS = ServiceClass(
    name="default", priority=1, turnaround_budget_us=None, demotable=True, sheddable=False
)

#: Tight-deadline control traffic: top priority, never degraded.
URLLC = ServiceClass(
    name="urllc", priority=0, turnaround_budget_us=250.0, demotable=False, sheddable=False
)

#: Bulk video/data: mid priority, demoted to classical when pressured.
EMBB = ServiceClass(
    name="embb", priority=1, turnaround_budget_us=900.0, demotable=True, sheddable=False
)

#: Background traffic: lowest priority, shed pre-emptively under pressure.
BEST_EFFORT = ServiceClass(
    name="best_effort",
    priority=2,
    turnaround_budget_us=2_500.0,
    demotable=True,
    sheddable=True,
)

#: The named catalog :func:`resolve_service_class` accepts.
SERVICE_CLASSES: Dict[str, ServiceClass] = {
    cls.name: cls for cls in (DEFAULT_CLASS, URLLC, EMBB, BEST_EFFORT)
}


def resolve_service_class(
    service_class: Union[str, ServiceClass, None],
) -> ServiceClass:
    """Normalise a class name, instance or ``None`` into a :class:`ServiceClass`.

    ``None`` resolves to :data:`DEFAULT_CLASS`, keeping every pre-QoS call
    site valid; unknown names raise with the catalog listed.
    """
    if service_class is None:
        return DEFAULT_CLASS
    if isinstance(service_class, ServiceClass):
        return service_class
    if isinstance(service_class, str):
        try:
            return SERVICE_CLASSES[service_class]
        except KeyError:
            raise ConfigurationError(
                f"unknown service class {service_class!r}; catalog: "
                + ", ".join(sorted(SERVICE_CLASSES))
            ) from None
    raise ConfigurationError(
        "service_class must be a name, ServiceClass or None, got "
        f"{type(service_class).__name__}"
    )
