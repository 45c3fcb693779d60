"""Linear minimum mean-square error (MMSE) MIMO detection.

The MMSE detector regularises the channel inversion with the noise variance,
trading a small bias for much better robustness than zero-forcing when the
channel is ill-conditioned.  In the paper's noiseless protocol it coincides
with zero-forcing (regularisation 0), but the extension benchmarks that sweep
SNR use it as the stronger linear baseline and as an RA initialiser.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classical.base import MIMODetector
from repro.classical.zero_forcing import ZeroForcingDetector
from repro.utils.validation import require_non_negative
from repro.wireless.mimo import MIMOInstance

__all__ = ["MMSEDetector"]


class MMSEDetector(MIMODetector):
    """MMSE equalisation followed by nearest-point quantisation.

    Parameters
    ----------
    noise_variance:
        Complex noise variance used in the regularisation term.  ``None``
        (default) lets :meth:`detect` fall back to zero regularisation, i.e.
        zero-forcing behaviour, which matches the paper's noiseless protocol.
    """

    name = "mmse"

    def __init__(self, noise_variance: Optional[float] = None) -> None:
        if noise_variance is not None:
            require_non_negative(noise_variance, "noise_variance")
        self.noise_variance = noise_variance

    def detect(self, instance: MIMOInstance) -> np.ndarray:
        """Return hard symbol decisions for every user."""
        variance = self.noise_variance if self.noise_variance is not None else 0.0

        channel = instance.channel_matrix
        num_users = channel.shape[1]
        gram = np.conjugate(channel.T) @ channel
        signal_energy = instance.modulation_scheme.average_energy()
        regulariser = (variance / signal_energy) * np.eye(num_users)
        try:
            filter_matrix = np.linalg.solve(gram + regulariser, np.conjugate(channel.T))
        except np.linalg.LinAlgError:
            # Singular Gram matrix with zero regularisation: fall back to the
            # pseudo-inverse, which handles the rank-deficient case.
            filter_matrix = np.linalg.pinv(channel)

        soft_symbols = filter_matrix @ instance.received
        return ZeroForcingDetector.quantise(instance, soft_symbols)
