"""Deadline-aware scheduling policies and batch coalescing.

The serving simulator is work-conserving: whenever a worker is idle and jobs
are queued, a policy picks the next job and the scheduler *coalesces* it with
other queued jobs that are batch-compatible (identical QUBO size and
modulation — an annealer submission programs one problem shape) up to the
configured batch ceiling.  Under light load batches stay small and latency
is minimal; under heavy load queues build and batch occupancy — the batched
engine's throughput lever — rises automatically.

Two policies are provided:

* **FIFO** — arrival order, the baseline any queueing system starts from;
* **EDF** (earliest deadline first) — classic real-time scheduling, which
  minimises deadline misses when the plant is feasibly loaded.  Jobs without
  deadlines sort last.

EDF is **class-aware** by default: the job's
:class:`~repro.serving.qos.ServiceClass` priority prefixes the deadline, so
a queued URLLC job always outranks bulk traffic, and coalescing uses the
class-extended ``compat_key`` (protected classes never co-batch with
degradable ones — see ``docs/qos.md``).  Pass ``class_aware=False`` (or use
the simulator's flag) for the legacy class-blind order and shape-only
batching; with single-default-class workloads the two modes are
bitwise-identical, since every priority is equal and every tier matches.
"""

from __future__ import annotations

import abc
import heapq
import math
from typing import List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.serving.workload import ServingJob

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "EdfPolicy",
    "resolve_policy",
    "select_batch",
]


class SchedulingPolicy(abc.ABC):
    """Total order over queued jobs; the minimum is served next."""

    #: Policy name used in reports and the CLI.
    name: str = "policy"

    @abc.abstractmethod
    def key(self, job: ServingJob) -> Tuple:
        """Sort key; the job with the smallest key is scheduled first."""


class FifoPolicy(SchedulingPolicy):
    """First-in-first-out: serve in arrival order."""

    name = "fifo"

    def key(self, job: ServingJob) -> Tuple:
        return (job.arrival_us, job.job_id)


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first; deadline-free jobs are served last.

    With ``class_aware`` (the default) the service-class priority prefixes
    the deadline, so a lower-priority job is never served before a queued
    higher class regardless of absolute deadlines.  Single-class workloads
    have one priority everywhere, making the prefix a constant — the order
    (and therefore every downstream output) is bitwise-identical to the
    class-blind policy.
    """

    name = "edf"

    def __init__(self, class_aware: bool = True) -> None:
        self.class_aware = class_aware

    def key(self, job: ServingJob) -> Tuple:
        # Deadline-free jobs sort last (a channel use rejects a NaN
        # deadline, which would poison tuple comparison).  Equal-deadline
        # jobs fall back to arrival order and then the unique job_id,
        # mirroring FifoPolicy, so the policy is a total order: select_batch
        # output is invariant under any permutation of the queue.
        deadline = job.deadline_us
        if deadline is None:
            deadline = math.inf
        if not self.class_aware:
            return (deadline, job.arrival_us, job.job_id)
        return (job.service_class.priority, deadline, job.arrival_us, job.job_id)


_POLICIES = {"fifo": FifoPolicy, "edf": EdfPolicy}


def resolve_policy(policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Normalise a policy name or instance into a :class:`SchedulingPolicy`."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICIES[policy.lower()]()
        except KeyError:
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; use one of {sorted(_POLICIES)}"
            ) from None
    raise ConfigurationError(
        f"policy must be a name or SchedulingPolicy, got {type(policy).__name__}"
    )


def _batch_key(job: ServingJob, class_aware: bool) -> Tuple:
    """The coalescing key: class-extended by default, shape-only when blind."""
    return job.compat_key if class_aware else job.shape_key


def select_batch(
    queue: List[ServingJob],
    policy: SchedulingPolicy,
    max_batch_size: Optional[int],
    class_aware: bool = True,
) -> List[ServingJob]:
    """Pop the policy's next job plus compatible companions from ``queue``.

    The head job is the policy minimum over ``queue``; the rest of the batch
    is filled with queued jobs sharing the head's
    :attr:`~repro.serving.workload.ServingJob.compat_key`, taken in policy
    order (ties in queue order), never exceeding ``max_batch_size``
    (``None`` = unbounded).  Selected jobs are removed from ``queue``; the
    batch is returned.

    ``class_aware=False`` coalesces on the physical
    :attr:`~repro.serving.workload.ServingJob.shape_key` alone — the legacy
    class-blind behaviour, which may batch protected and degradable jobs
    together.

    This is the definition of a batch.  The simulator picks demotion batches
    with it from the admission candidates, and answers the whole-queue case
    from per-batch-key ready heaps that select the same batch (see
    ``docs/serving.md``).
    """
    if not queue:
        return []
    head = min(queue, key=policy.key)
    head_key = _batch_key(head, class_aware)
    compatible = [job for job in queue if _batch_key(job, class_aware) == head_key]
    limit = len(compatible) if max_batch_size is None else max_batch_size
    # Equivalent to sorted(compatible, key=policy.key)[:limit], without
    # ordering the whole compatible set.
    batch = heapq.nsmallest(limit, compatible, key=policy.key)
    selected = {job.job_id for job in batch}
    queue[:] = [job for job in queue if job.job_id not in selected]
    return batch
