"""Distribution statistics for experiment reports.

The paper reports averaged distributions over many instances and many anneal
samples.  :func:`histogram_percentiles` bins a ΔE% distribution into the
percentile histogram shown in paper Figure 6.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["histogram_percentiles"]


def histogram_percentiles(
    values: Sequence[float],
    bin_edges: Sequence[float],
) -> np.ndarray:
    """Fraction of samples falling in each bin (sums to 1 for covering bins).

    Used to reproduce the "average distribution of cost function value
    percentile" histograms of paper Figure 6.
    """
    array = np.asarray(values, dtype=float).ravel()
    edges = np.asarray(bin_edges, dtype=float).ravel()
    if edges.size < 2:
        raise ConfigurationError("bin_edges must contain at least two edges")
    if np.any(np.diff(edges) <= 0):
        raise ConfigurationError("bin_edges must be strictly increasing")
    if array.size == 0:
        return np.zeros(edges.size - 1)
    counts, _ = np.histogram(array, bins=edges)
    return counts / array.size
