"""The deterministic multiprocessing shard runner.

:class:`ParallelRunner` executes a list of :class:`ShardTask` work units —
serially for ``workers in (None, 0, 1)``, across a
``concurrent.futures.ProcessPoolExecutor`` otherwise — and returns results
in *task order* regardless of completion order.  Because every shard's
randomness is seeded explicitly through its own arguments (the library-wide
child-seed discipline), the assembled sweep is bitwise-identical to the
serial path at any worker count; parallelism only changes wall-clock time.

When a :class:`~repro.parallel.cache.ResultCache` is attached, each task is
fingerprinted first and only cache misses are executed; fresh results are
stored back, so a re-run with one changed shard recomputes exactly that
shard.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.parallel.cache import ResultCache, task_fingerprint
from repro.telemetry.log import get_logger
from repro.utils.validation import require_non_negative

__all__ = ["ShardTask", "RunStats", "ParallelRunner"]

_log = get_logger(__name__)


@dataclass(frozen=True)
class ShardTask:
    """One independent work unit of a sharded sweep.

    Attributes
    ----------
    key:
        Stable shard identity — e.g. ``("scenario-study", "flash-crowd",
        "autoscaled")`` — used in the cache fingerprint and error messages.
    fn:
        A *module-level* function (it must be picklable by reference for the
        process pool).  All shard randomness must enter through ``kwargs``
        as seeds, never as live generator objects.
    kwargs:
        Keyword arguments of the shard; these are canonicalised into the
        cache fingerprint, so they must contain only seeds, configuration
        dataclasses and plain data.
    """

    key: Tuple[Union[str, int, float], ...]
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """The shard's content address (see :func:`task_fingerprint`)."""
        return task_fingerprint(self.fn, self.kwargs, self.key)

    def execute(self) -> Any:
        """Run the shard in the current process."""
        return self.fn(**dict(self.kwargs))


@dataclass
class RunStats:
    """Execution statistics of one :meth:`ParallelRunner.run_sharded` call."""

    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1


class ParallelRunner:
    """Executes shard tasks serially or across a process pool, with caching.

    Parameters
    ----------
    workers:
        Default worker count for :meth:`run_sharded`.  ``None``, ``0`` and
        ``1`` all mean "serial, in this process" (no pool is created);
        negative counts are rejected.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`.  When present,
        tasks are fingerprinted and only misses execute.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if workers is not None:
            workers = int(workers)
            require_non_negative(workers, "workers")
        self.workers = workers
        self.cache = cache
        self.last_run = RunStats()

    def run_sharded(self, tasks: Sequence[ShardTask]) -> List[Any]:
        """Execute ``tasks`` and return their results in task order.

        The result list satisfies ``results[i] == tasks[i].fn(**tasks[i].kwargs)``
        bit for bit, whether shards ran serially, in a pool of any size, or
        came out of the cache.
        """
        workers = self.workers
        effective = 1 if workers in (None, 0) else workers
        stats = RunStats(tasks=len(tasks), workers=effective)
        self.last_run = stats
        if not tasks:
            return []
        tel = telemetry.active()

        results: List[Any] = [None] * len(tasks)
        pending: List[int] = []
        fingerprints: Dict[int, str] = {}
        if self.cache is not None:
            for index, task in enumerate(tasks):
                fingerprints[index] = task.fingerprint()
                hit, value = self.cache.get(fingerprints[index], key=task.key)
                if hit:
                    results[index] = value
                    stats.cache_hits += 1
                    _log.debug("parallel.cache_hit", key=task.key)
                else:
                    pending.append(index)
                    stats.cache_misses += 1
        else:
            pending = list(range(len(tasks)))
        if tel is not None:
            tel.registry.counter("repro_parallel_tasks_total").inc(len(tasks))
            tel.registry.counter("repro_parallel_cache_hits_total").inc(stats.cache_hits)
            tel.registry.counter("repro_parallel_cache_misses_total").inc(stats.cache_misses)

        stats.executed = len(pending)
        if pending:
            # Results are stored the moment each shard completes, so an
            # interrupted or partially failed sweep keeps every shard it
            # already paid for.
            def store(index: int, value: Any) -> None:
                if self.cache is not None:
                    self.cache.put(fingerprints[index], value)

            if effective > 1 and len(pending) > 1:
                self._run_pool(tasks, pending, results, min(effective, len(pending)), store)
            else:
                for index in pending:
                    task = tasks[index]
                    if tel is not None:
                        with tel.tracer.span("parallel.shard", key=str(task.key)):
                            results[index] = self._run_one(task)
                    else:
                        results[index] = self._run_one(task)
                    store(index, results[index])
                    _log.debug("parallel.shard_done", key=task.key)
        _log.info(
            "parallel.run_sharded",
            tasks=stats.tasks,
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            workers=effective,
        )
        return results

    @staticmethod
    def _run_one(task: ShardTask) -> Any:
        try:
            return task.execute()
        except Exception as error:
            # Re-raise unchanged (callers rely on the exception type, e.g.
            # ConfigurationError for invalid sweep configs), annotated with
            # which shard failed.
            error.add_note(f"while executing shard {task.key!r}")
            raise

    @staticmethod
    def _run_pool(
        tasks: Sequence[ShardTask],
        pending: Sequence[int],
        results: List[Any],
        workers: int,
        store: Callable[[int, Any], None],
    ) -> None:
        # Telemetry enabled in *this* process does not propagate into pool
        # workers (each child has its own disabled-by-default singleton), so
        # shard-internal spans are lost under multiprocessing; the parent
        # still records a completion event per shard.  Use serial mode when
        # a full trace matters — results are bitwise-identical either way.
        tel = telemetry.active()
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = {
                executor.submit(tasks[index].fn, **dict(tasks[index].kwargs)): index
                for index in pending
            }
            failure: Optional[BaseException] = None
            for future in as_completed(futures):
                index = futures[future]
                if future.cancelled():
                    continue
                error = future.exception()
                if error is not None:
                    if failure is None:
                        # First failure wins: cancel what has not started,
                        # but keep draining so every in-flight shard that
                        # completes is still stored — a retry after fixing
                        # the bad shard reuses everything already paid for.
                        failure = error
                        failure.add_note(f"while executing shard {tasks[index].key!r}")
                        for other in futures:
                            other.cancel()
                    continue
                results[index] = future.result()
                store(index, results[index])
                if tel is not None:
                    tel.tracer.event("parallel.shard_done", key=str(tasks[index].key))
                _log.debug("parallel.shard_done", key=tasks[index].key)
            if failure is not None:
                raise failure
