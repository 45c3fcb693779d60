"""Time-to-solution (TTS), the paper's headline performance metric (Eq. 2).

TTS(C_t) is the expected wall-clock time needed to observe the global optimum
at least once with confidence ``C_t``, given a solver whose single execution
lasts ``duration`` and succeeds with probability ``p*``:

    TTS(C_t) = duration * log(1 - C_t/100) / log(1 - p*).

Conventions handled explicitly:

* ``p* = 0``  → TTS is infinite (the solver never succeeds);
* ``p* = 1``  → TTS equals one execution's duration;
* ``p* >= C_t/100`` would make the repeat count smaller than one; the repeat
  count is floored at 1 because a solver cannot run for less than one
  execution.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_positive

__all__ = ["time_to_solution", "TTSResult"]

#: The confidence C_t of the paper's TTS(99%).
_CONFIDENCE_PERCENT = 99.0


@dataclass(frozen=True)
class TTSResult:
    """TTS together with the quantities it was computed from."""

    tts_us: float
    success_probability: float
    duration_us: float
    confidence_percent: float
    repeats: float

    @property
    def is_finite(self) -> bool:
        """Whether the solver ever found the optimum (p* > 0)."""
        return np.isfinite(self.tts_us)


def time_to_solution(success_probability: float, duration_us: float) -> TTSResult:
    """Compute TTS(99%) from a success probability and per-run duration."""
    if not 0.0 <= success_probability <= 1.0:
        raise ConfigurationError(
            f"success_probability must lie in [0, 1], got {success_probability}"
        )
    require_positive(duration_us, "duration_us")

    if success_probability == 0.0:
        repeats = np.inf
    elif success_probability == 1.0:
        repeats = 1.0
    else:
        repeats = np.log(1.0 - _CONFIDENCE_PERCENT / 100.0) / np.log(1.0 - success_probability)
        repeats = max(repeats, 1.0)

    tts = duration_us * repeats
    return TTSResult(
        tts_us=float(tts),
        success_probability=float(success_probability),
        duration_us=float(duration_us),
        confidence_percent=_CONFIDENCE_PERCENT,
        repeats=float(repeats),
    )
