"""Zero-forcing (ZF) linear MIMO detection.

Zero-forcing inverts the channel with its Moore-Penrose pseudo-inverse and
quantises each resulting soft symbol to the nearest constellation point.  The
paper's conclusion identifies ZF as a "linear solver" candidate for
initialising reverse annealing: it typically achieves a better initial-state
quality ΔE_IS% than greedy search at the cost of a matrix inversion.
"""

from __future__ import annotations

import numpy as np

from repro.classical.base import MIMODetector
from repro.exceptions import SolverError
from repro.wireless.mimo import MIMOInstance

__all__ = ["ZeroForcingDetector"]


class ZeroForcingDetector(MIMODetector):
    """Pseudo-inverse equalisation followed by nearest-point quantisation."""

    name = "zero-forcing"

    def detect(self, instance: MIMOInstance) -> np.ndarray:
        """Return hard symbol decisions for every user."""
        channel = instance.channel_matrix
        if channel.shape[0] < channel.shape[1]:
            raise SolverError(
                "zero-forcing requires at least as many receive antennas as users "
                f"(got {channel.shape[0]} x {channel.shape[1]})"
            )
        try:
            pseudo_inverse = np.linalg.pinv(channel)
        except np.linalg.LinAlgError as error:  # pragma: no cover - numpy rarely fails here
            raise SolverError(f"pseudo-inverse failed: {error}") from error

        soft_symbols = pseudo_inverse @ instance.received
        return self.quantise(instance, soft_symbols)

    @staticmethod
    def quantise(instance: MIMOInstance, soft_symbols: np.ndarray) -> np.ndarray:
        """Quantise soft symbol estimates to the nearest constellation points."""
        modulation = instance.modulation_scheme
        points = modulation.points
        soft_symbols = np.asarray(soft_symbols, dtype=complex).ravel()
        indices = np.argmin(np.abs(soft_symbols[:, None] - points[None, :]), axis=1)
        return points[indices]
