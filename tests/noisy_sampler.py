"""A test-side annealer whose programmed coefficients carry control noise.

The simulated device programs fields and couplings exactly.  This subclass
adds ICE-like Gaussian noise (integrated control errors) to each instance's
normalised fields and existing couplers, drawn from the instance's own child
generator before the kernel spawns from it, and reports the sigmas in the
``device`` metadata.  The ``single_entry_points`` golden pins two sample
sets drawn through it, and the batch tests use it to check that every draw a
subclass makes in ``_normalise`` stays per-instance.
"""

from __future__ import annotations

import numpy as np

from repro.annealing.sampler import QuantumAnnealerSimulator


class NoisySampler(QuantumAnnealerSimulator):
    def __init__(self, field_noise_sigma: float, coupling_noise_sigma: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.field_noise_sigma = field_noise_sigma
        self.coupling_noise_sigma = coupling_noise_sigma

    def _normalise(self, ising, generator):
        fields, couplings = super()._normalise(ising, generator)
        noisy_fields = fields + generator.normal(0.0, self.field_noise_sigma, size=fields.shape)
        noisy_couplings = couplings.copy()
        if self.coupling_noise_sigma > 0.0:
            rows, cols = np.nonzero(np.triu(couplings, k=1))
            noise = generator.normal(0.0, self.coupling_noise_sigma, size=rows.size)
            noisy_couplings[rows, cols] += noise
        return noisy_fields, noisy_couplings

    def _metadata(self, schedule, num_reads):
        metadata = super()._metadata(schedule, num_reads)
        metadata["device"].update(
            field_noise_sigma=self.field_noise_sigma,
            coupling_noise_sigma=self.coupling_noise_sigma,
        )
        return metadata
