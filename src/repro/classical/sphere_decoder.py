"""Tree-search MIMO detectors: fixed-complexity and K-best sphere decoding.

The paper's conclusion names FCSD (Barbero & Thompson) and the K-best sphere
decoder (Guo & Nilsson) as "tree search-based solvers" with tunable
complexity that could initialise reverse annealing with controllable quality.

Both detectors work on the QR decomposition of the channel: with ``H = Q R``
and ``z = Q^H y`` the objective ``||y - H x||^2`` decomposes level by level
over users detected in reverse order, because ``R`` is upper triangular.

* :class:`KBestSphereDecoder` performs breadth-first search keeping the ``K``
  best partial candidates per level.
* :class:`FixedComplexitySphereDecoder` fully expands the first
  ``full_expansion_levels`` detected users and continues each branch with
  successive-interference-cancellation (single best child) for the rest, so
  its complexity is fixed at ``M ** full_expansion_levels`` leaf candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.classical.base import MIMODetector
from repro.exceptions import SolverError
from repro.utils.validation import require_non_negative, require_positive
from repro.wireless.mimo import MIMOInstance

__all__ = ["KBestSphereDecoder", "FixedComplexitySphereDecoder"]


@dataclass
class _PartialPath:
    """A partial candidate in the detection tree (symbols chosen so far)."""

    symbols: Tuple[complex, ...]
    metric: float


def _qr_preprocess(instance: MIMOInstance) -> Tuple[np.ndarray, np.ndarray]:
    """Return (R, z) from the thin QR decomposition of the channel."""
    channel = instance.channel_matrix
    if channel.shape[0] < channel.shape[1]:
        raise SolverError(
            "sphere decoding requires at least as many receive antennas as users "
            f"(got {channel.shape[0]} x {channel.shape[1]})"
        )
    q_matrix, r_matrix = np.linalg.qr(channel)
    z_vector = np.conjugate(q_matrix.T) @ instance.received
    return r_matrix, z_vector


def _level_metric(
    r_matrix: np.ndarray,
    z_vector: np.ndarray,
    level: int,
    num_users: int,
    chosen: Tuple[complex, ...],
    candidate: complex,
) -> float:
    """Incremental metric for assigning ``candidate`` to user ``level``.

    ``chosen`` holds the symbols of users ``level+1 .. num_users-1`` in
    detection order (most recently detected first).
    """
    residual = z_vector[level] - r_matrix[level, level] * candidate
    for offset, symbol in enumerate(chosen):
        column = level + 1 + offset
        residual -= r_matrix[level, column] * symbol
    return float(np.abs(residual) ** 2)


class KBestSphereDecoder(MIMODetector):
    """Breadth-first K-best sphere decoding.

    Parameters
    ----------
    k_best:
        Number of partial candidates retained per detection level.  ``K`` of
        at least the constellation order makes the first level exact; larger
        values approach full ML at higher cost.
    """

    name = "k-best-sphere-decoder"

    def __init__(self, k_best: int = 8) -> None:
        require_positive(k_best, "k_best")
        self.k_best = int(k_best)

    def detect(self, instance: MIMOInstance) -> np.ndarray:
        """Return hard symbol decisions for every user."""
        r_matrix, z_vector = _qr_preprocess(instance)
        points = instance.modulation_scheme.points
        num_users = instance.num_users

        paths: List[_PartialPath] = [_PartialPath(symbols=(), metric=0.0)]
        for level in range(num_users - 1, -1, -1):
            expanded: List[_PartialPath] = []
            for path in paths:
                for candidate in points:
                    metric = path.metric + _level_metric(
                        r_matrix, z_vector, level, num_users, path.symbols, candidate
                    )
                    expanded.append(
                        _PartialPath(symbols=(candidate,) + path.symbols, metric=metric)
                    )
            expanded.sort(key=lambda item: item.metric)
            paths = expanded[: self.k_best]

        best = paths[0]
        return np.asarray(best.symbols, dtype=complex)


class FixedComplexitySphereDecoder(MIMODetector):
    """Fixed-complexity sphere decoder (FCSD).

    Parameters
    ----------
    full_expansion_levels:
        Number of users (detected first) whose symbols are fully enumerated;
        the remaining users are detected by per-branch successive interference
        cancellation.  ``1`` is the classic FCSD-rho=1 configuration; setting
        it to the number of users recovers exact ML at exponential cost.
    """

    name = "fcsd"

    def __init__(self, full_expansion_levels: int = 1) -> None:
        require_non_negative(full_expansion_levels, "full_expansion_levels")
        self.full_expansion_levels = int(full_expansion_levels)

    def detect(self, instance: MIMOInstance) -> np.ndarray:
        """Return hard symbol decisions for every user."""
        r_matrix, z_vector = _qr_preprocess(instance)
        points = instance.modulation_scheme.points
        num_users = instance.num_users
        full_levels = min(self.full_expansion_levels, num_users)

        paths: List[_PartialPath] = [_PartialPath(symbols=(), metric=0.0)]
        for depth, level in enumerate(range(num_users - 1, -1, -1)):
            expanded: List[_PartialPath] = []
            for path in paths:
                if depth < full_levels:
                    candidates = points
                else:
                    # Successive interference cancellation: keep only the
                    # single best child of this branch.
                    metrics = [
                        _level_metric(r_matrix, z_vector, level, num_users, path.symbols, candidate)
                        for candidate in points
                    ]
                    candidates = [points[int(np.argmin(metrics))]]
                for candidate in candidates:
                    metric = path.metric + _level_metric(
                        r_matrix, z_vector, level, num_users, path.symbols, candidate
                    )
                    expanded.append(
                        _PartialPath(symbols=(candidate,) + path.symbols, metric=metric)
                    )
            paths = expanded

        best = min(paths, key=lambda item: item.metric)
        return np.asarray(best.symbols, dtype=complex)
