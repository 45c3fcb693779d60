"""Content-addressed on-disk caching of shard results.

A sweep point's result is a pure function of (the code that computes it, the
shard's configuration, its derived seeds).  :func:`task_fingerprint` turns
that triple into a stable SHA-256 key — the function's qualified name, a
digest of the whole ``repro`` package source and of the function's defining
module cover the code, and :func:`canonical_token` reduces the arguments
(dataclass configs, tuples, numpy scalars and arrays) to a canonical JSON
form — and :class:`ResultCache` stores pickled results under that key.
Re-running a sweep with one changed point therefore recomputes only that
point; editing *any* library code invalidates every cached entry.

Cache entries are written atomically (temp file + rename) so an interrupted
run never leaves a truncated entry behind, and unreadable entries are
treated as misses and evicted rather than crashing the sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import pathlib
import pickle
import sys
import tempfile
import warnings
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.telemetry.log import get_logger

__all__ = ["ResultCache", "canonical_token", "task_fingerprint"]

_log = get_logger(__name__)

#: Bump to invalidate every existing cache entry (serialisation layout changes).
CACHE_FORMAT_VERSION = 1


def canonical_token(value: Any) -> Any:
    """Reduce ``value`` to a deterministic JSON-serialisable token.

    Supported forms: ``None``, booleans, integers, strings, floats
    (canonicalised through ``repr`` so ``0.1`` hashes identically across
    runs), numpy scalars, lists/tuples, mappings (sorted by key),
    dataclasses (class name plus per-field tokens in declaration order) and
    numpy arrays (dtype, shape and a digest of the raw bytes).  Anything
    else — live generators, open handles, arbitrary objects — is rejected:
    shard arguments must carry *seeds*, not stateful randomness, or the
    fingerprint could not witness what the shard will actually compute.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    # np.float64 subclasses float: coerce before repr so both hash alike.
    if isinstance(value, (float, np.floating)):
        return ["float", repr(float(value))]
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["ndarray", str(value.dtype), list(value.shape), digest]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            [field.name, canonical_token(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]
        return ["dataclass", type(value).__qualname__, fields]
    if isinstance(value, Mapping):
        # Keys canonicalise like any other value (str(1) == str("1") would
        # collide); entries sort by the JSON form of the key token so the
        # result is order-independent even for mixed key types.
        entries = [
            [canonical_token(key), canonical_token(item)] for key, item in value.items()
        ]
        entries.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return ["mapping", entries]
    if isinstance(value, (list, tuple)):
        return ["sequence", [canonical_token(item) for item in value]]
    raise ConfigurationError(
        f"cannot canonicalise a {type(value).__name__} into a cache key; shard "
        "arguments must be seeds/configs, not stateful objects"
    )


@functools.lru_cache(maxsize=1)
def _library_digest() -> str:
    """Digest of the entire ``repro`` package source, computed once per process.

    A shard's result depends on code throughout the stack — the simulators,
    kernels and report builders, not just the experiment module holding the
    shard function — so the fingerprint hashes every ``*.py`` file of the
    installed package.  Any library edit therefore invalidates every cached
    entry; this is deliberately conservative (a comment edit recomputes too)
    because silently replaying stale results would be far worse.
    """
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _source_digest(function: Callable) -> str:
    """Digest of the shard function's *defining module* source.

    Covers shard functions defined outside the ``repro`` package (test
    helpers, user scripts), which :func:`_library_digest` cannot see.
    Memoized per function object: large sweeps fingerprint thousands of
    tasks over a handful of shard functions.
    """
    module = sys.modules.get(function.__module__)
    source: Optional[str] = None
    if module is not None:
        try:
            source = inspect.getsource(module)
        except (OSError, TypeError):
            source = None
    if source is None:
        try:
            source = inspect.getsource(function)
        except (OSError, TypeError):  # builtins, C extensions, exec'd code
            code = getattr(function, "__code__", None)
            source = repr(code.co_code) if code is not None else repr(function)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def task_fingerprint(
    function: Callable,
    kwargs: Mapping[str, Any],
    key: Sequence[Union[str, int, float]] = (),
) -> str:
    """The content address of one shard: code identity + canonical arguments."""
    payload = {
        "version": CACHE_FORMAT_VERSION,
        # Results can legitimately change across interpreter/numpy upgrades
        # (float reductions, percentile internals), so the environment is
        # part of a result's identity.
        "environment": {
            "python": ".".join(str(part) for part in sys.version_info[:3]),
            "numpy": np.__version__,
        },
        "function": f"{function.__module__}.{function.__qualname__}",
        "library": _library_digest(),
        "source": _source_digest(function),
        "key": canonical_token(tuple(key)),
        "kwargs": canonical_token(kwargs),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed pickle store for shard results.

    Parameters
    ----------
    root:
        Directory holding the cache (created on first write).  Entries are
        sharded into 256 two-hex-character subdirectories to keep directory
        listings short on large sweeps.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._write_disabled = False

    def _path(self, fingerprint: str) -> pathlib.Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.pkl"

    def get(self, fingerprint: str, key: Optional[Any] = None) -> Tuple[bool, Optional[Any]]:
        """Look up a fingerprint; returns ``(hit, value)`` and counts the outcome.

        ``key`` is the human-readable shard identity (``ShardTask.key``),
        used only to make the corrupt-entry warning actionable.
        """
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception as error:
            # A corrupt pickle can raise nearly anything (ValueError,
            # KeyError, UnicodeDecodeError, ... from bad opcode streams): a
            # damaged or stale entry is a miss, not a crash; evict it so the
            # recomputed result can take its place.  An eviction is never
            # silent: it is counted here, surfaced through the telemetry
            # registry, and logged with the shard key — repeated evictions
            # mean a sick disk or a writer racing this cache.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            self.evictions += 1
            _log.warning(
                "cache.evicted_corrupt_entry",
                key="<unknown>" if key is None else key,
                fingerprint=fingerprint[:12],
                error=type(error).__name__,
            )
            tel = telemetry.active()
            if tel is not None:
                tel.registry.counter("repro_cache_evictions_total").inc()
            return False, None
        self.hits += 1
        return True, value

    def put(self, fingerprint: str, value: Any) -> None:
        """Store ``value`` under ``fingerprint`` atomically.

        A cache that cannot be written (read-only checkout, full disk) must
        not abort a sweep whose compute is already paid for: the first
        ``OSError`` downgrades the run to uncached execution with a single
        warning, and later stores are skipped silently.
        """
        if self._write_disabled:
            return
        path = self._path(fingerprint)
        temp_name: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{fingerprint[:8]}-", suffix=".tmp"
            )
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except OSError as error:
            self._write_disabled = True
            warnings.warn(
                f"result cache at {self.root} is not writable ({error}); "
                "continuing without storing results",
                RuntimeWarning,
                stacklevel=2,
            )
            self._cleanup_temp(temp_name)
        except BaseException:
            self._cleanup_temp(temp_name)
            raise

    @staticmethod
    def _cleanup_temp(temp_name: Optional[str]) -> None:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
