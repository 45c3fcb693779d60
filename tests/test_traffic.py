"""Tests for repro.wireless.traffic."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.wireless.mimo import MIMOConfig, simulate_transmission
from repro.wireless.traffic import ChannelUse, TrafficGenerator


@pytest.fixture
def config():
    return MIMOConfig(num_users=2, modulation="QPSK")


@pytest.fixture
def mix(config):
    return [config, MIMOConfig(num_users=3, modulation="16-QAM")]


class TestTrafficGenerator:
    def test_deterministic_arrivals(self, config):
        generator = TrafficGenerator(config, symbol_period_us=10.0)
        uses = generator.generate(5, rng=1)
        arrivals = [use.arrival_time_us for use in uses]
        assert arrivals == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_poisson_arrivals_increase(self, config):
        generator = TrafficGenerator(config, symbol_period_us=10.0, arrival_process="poisson")
        uses = generator.generate(20, rng=2)
        arrivals = [use.arrival_time_us for use in uses]
        assert all(later >= earlier for earlier, later in zip(arrivals, arrivals[1:]))

    def test_poisson_mean_rate(self, config):
        generator = TrafficGenerator(config, symbol_period_us=10.0, arrival_process="poisson")
        uses = generator.generate(400, rng=3)
        inter = np.diff([use.arrival_time_us for use in uses])
        assert np.mean(inter) == pytest.approx(10.0, rel=0.2)

    def test_indices_sequential(self, config):
        uses = TrafficGenerator(config).generate(4, rng=1)
        assert [use.index for use in uses] == [0, 1, 2, 3]

    def test_deadlines(self, config):
        generator = TrafficGenerator(config, symbol_period_us=10.0, turnaround_budget_us=50.0)
        uses = generator.generate(3, rng=1)
        assert all(use.has_deadline for use in uses)
        assert uses[1].deadline_us == pytest.approx(60.0)

    def test_no_deadline_by_default(self, config):
        uses = TrafficGenerator(config).generate(2, rng=1)
        assert not uses[0].has_deadline

    def test_each_use_has_fresh_channel(self, config):
        uses = TrafficGenerator(config).generate(2, rng=1)
        first = uses[0].transmission.instance.channel_matrix
        second = uses[1].transmission.instance.channel_matrix
        assert not np.allclose(first, second)

    def test_offered_load(self, config):
        generator = TrafficGenerator(config, symbol_period_us=4.0)
        assert generator.offered_load_bits_per_us() == pytest.approx(1.0)

    def test_reproducible_stream(self, config):
        first = TrafficGenerator(config).generate(3, rng=9)
        second = TrafficGenerator(config).generate(3, rng=9)
        assert np.allclose(
            first[2].transmission.instance.received, second[2].transmission.instance.received
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"symbol_period_us": 0.0},
            {"arrival_process": "bursty"},
            {"turnaround_budget_us": -1.0},
        ],
    )
    def test_invalid_configuration(self, config, kwargs):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(config, **kwargs)

    def test_negative_count_rejected(self, config):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(config).generate(-1)


class TestHeterogeneousMix:
    def test_cyclic_mix_alternates_configurations(self, mix):
        uses = TrafficGenerator(mix, job_mix="cyclic").generate(4, rng=1)
        assert [use.qubo_variable_count for use in uses] == [4, 12, 4, 12]
        assert [use.modulation for use in uses] == ["QPSK", "16-QAM", "QPSK", "16-QAM"]

    def test_random_mix_draws_from_the_set(self, mix):
        uses = TrafficGenerator(mix, job_mix="random").generate(30, rng=2)
        sizes = {use.qubo_variable_count for use in uses}
        assert sizes == {4, 12}

    def test_single_config_stream_unchanged_by_mix_machinery(self, config):
        # The mix path must not consume extra randomness for a single config:
        # wrapping the config in a list yields the identical stream.
        plain = TrafficGenerator(config).generate(3, rng=9)
        wrapped = TrafficGenerator([config], job_mix="random").generate(3, rng=9)
        assert np.allclose(
            plain[2].transmission.instance.received,
            wrapped[2].transmission.instance.received,
        )

    def test_offered_load_averages_over_mix(self, mix):
        generator = TrafficGenerator(mix, symbol_period_us=4.0)
        # Mean of 4 and 12 bits per channel use over a 4 us period.
        assert generator.offered_load_bits_per_us() == pytest.approx(2.0)

    def test_heterogeneous_flag(self, config, mix):
        assert not TrafficGenerator(config).is_heterogeneous
        assert TrafficGenerator(mix).is_heterogeneous

    @pytest.mark.parametrize("bad", [[], ["QPSK"], "not-a-config"])
    def test_invalid_config_sequences_rejected(self, bad):
        with pytest.raises((ConfigurationError, TypeError)):
            TrafficGenerator(bad)

    def test_invalid_job_mix_rejected(self, mix):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(mix, job_mix="round-robin")


class TestImpairedStreams:
    def test_identity_impairments_leave_the_stream_bitwise_unchanged(self, config):
        from repro.wireless import ChannelImpairments

        plain = TrafficGenerator(config).generate(4, rng=3)
        identity = TrafficGenerator(
            config, impairments=ChannelImpairments()
        ).generate(4, rng=3)
        for a, b in zip(plain, identity):
            assert np.array_equal(
                a.transmission.instance.received, b.transmission.instance.received
            )
            assert np.array_equal(
                a.transmission.instance.channel_matrix,
                b.transmission.instance.channel_matrix,
            )

    def test_temporally_correlated_stream_evolves_smoothly(self, config):
        from repro.wireless import ChannelImpairments

        impairments = ChannelImpairments(temporal_correlation=0.99)
        uses = TrafficGenerator(config, impairments=impairments).generate(2, rng=5)
        first = uses[0].transmission.instance.channel_matrix
        second = uses[1].transmission.instance.channel_matrix
        # Successive blocks at a=0.99 stay close; independent draws do not.
        assert np.linalg.norm(second - first) < 0.5 * np.linalg.norm(first)

    def test_restreaming_the_same_generator_is_reproducible(self, config):
        from repro.wireless import ChannelImpairments

        generator = TrafficGenerator(
            config, impairments=ChannelImpairments(temporal_correlation=0.9)
        )
        first = generator.generate(3, rng=4)
        second = generator.generate(3, rng=4)
        for a, b in zip(first, second):
            assert np.array_equal(
                a.transmission.instance.channel_matrix,
                b.transmission.instance.channel_matrix,
            )

    def test_interleaved_streams_keep_independent_fading_state(self, config):
        from repro.wireless import ChannelImpairments

        generator = TrafficGenerator(
            config, impairments=ChannelImpairments(temporal_correlation=0.9)
        )
        reference = generator.generate(4, rng=4)
        # Interleave two lazy streams of the same generator: each must see
        # its own coherence run, identical to an uninterleaved stream.
        first = generator.stream(4, rng=4)
        second = generator.stream(4, rng=4)
        collected = []
        for _ in range(4):
            collected.append((next(first), next(second)))
        for (a, b), ref in zip(collected, reference):
            for use in (a, b):
                assert np.array_equal(
                    use.transmission.instance.channel_matrix,
                    ref.transmission.instance.channel_matrix,
                )

    def test_mixed_shapes_keep_separate_fading_processes(self, mix):
        from repro.wireless import ChannelImpairments

        impairments = ChannelImpairments(temporal_correlation=0.9)
        uses = TrafficGenerator(mix, impairments=impairments).generate(4, rng=6)
        shapes = {use.transmission.instance.channel_matrix.shape for use in uses}
        assert shapes == {(2, 2), (3, 3)}

    def test_interference_scale_tracks_arrival_time(self, config):
        from repro.wireless import ChannelImpairments

        impairments = ChannelImpairments(interference_power=1.0)
        generator = TrafficGenerator(
            config,
            symbol_period_us=10.0,
            impairments=impairments,
            interference_scale=lambda t_us: 0.0 if t_us < 15.0 else 3.0,
        )
        uses = generator.generate(4, rng=7)
        powers = [use.transmission.interference_power for use in uses]
        assert powers == [0.0, 0.0, 3.0, 3.0]

    def test_interference_scale_requires_impairments(self, config):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(config, interference_scale=lambda t_us: 1.0)

    def test_negative_interference_scale_rejected(self, config):
        from repro.wireless import ChannelImpairments

        generator = TrafficGenerator(
            config,
            impairments=ChannelImpairments(interference_power=1.0),
            interference_scale=lambda t_us: -1.0,
        )
        with pytest.raises(ConfigurationError):
            generator.generate(1, rng=1)

    def test_imperfect_csi_flows_into_the_stream(self, config):
        from repro.wireless import ChannelImpairments

        impairments = ChannelImpairments(csi_error_variance=0.1)
        uses = TrafficGenerator(config, impairments=impairments).generate(2, rng=8)
        for use in uses:
            assert not use.transmission.has_perfect_csi


class TestChannelUseDeadlineValidation:
    def test_deadline_must_exceed_arrival(self, config, rng):
        transmission = simulate_transmission(config, rng=rng)
        with pytest.raises(ConfigurationError):
            ChannelUse(index=0, arrival_time_us=10.0, transmission=transmission, deadline_us=10.0)
        with pytest.raises(ConfigurationError):
            ChannelUse(index=0, arrival_time_us=10.0, transmission=transmission, deadline_us=5.0)

    def test_nan_deadline_rejected(self, config, rng):
        transmission = simulate_transmission(config, rng=rng)
        with pytest.raises(ConfigurationError):
            ChannelUse(
                index=0, arrival_time_us=10.0, transmission=transmission, deadline_us=float("nan")
            )

    def test_valid_deadline_accepted(self, config, rng):
        transmission = simulate_transmission(config, rng=rng)
        use = ChannelUse(
            index=0, arrival_time_us=10.0, transmission=transmission, deadline_us=10.5
        )
        assert use.has_deadline
        assert use.qubo_variable_count == 4
