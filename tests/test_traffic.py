"""Tests for repro.wireless.traffic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert all(use.deadline_us is not None for use in uses)
        assert uses[1].deadline_us == pytest.approx(60.0)

    def test_no_deadline_by_default(self, config):
        uses = TrafficGenerator(config).generate(2, rng=1)
        assert uses[0].deadline_us is None

    def test_each_use_has_fresh_channel(self, config):
        uses = TrafficGenerator(config).generate(2, rng=1)
        first = uses[0].transmission.instance.channel_matrix
        second = uses[1].transmission.instance.channel_matrix
        assert not np.allclose(first, second)

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
        uses = TrafficGenerator(mix).generate(4, rng=1)
        assert [use.qubo_variable_count for use in uses] == [4, 12, 4, 12]
        assert [use.modulation for use in uses] == ["QPSK", "16-QAM", "QPSK", "16-QAM"]

    def test_single_config_stream_unchanged_by_mix_machinery(self, config):
        # Wrapping a single config in a list yields the identical stream.
        plain = TrafficGenerator(config).generate(3, rng=9)
        wrapped = TrafficGenerator([config]).generate(3, rng=9)
        assert np.allclose(
            plain[2].transmission.instance.received,
            wrapped[2].transmission.instance.received,
        )

    @pytest.mark.parametrize("bad", [[], ["QPSK"], "not-a-config"])
    def test_invalid_config_sequences_rejected(self, bad):
        with pytest.raises((ConfigurationError, TypeError)):
            TrafficGenerator(bad)


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
        assert use.deadline_us is not None
        assert use.qubo_variable_count == 4


# ---------------------------------------------------------------------- #
# The split seed tree: arrivals on the caller's generator, payloads lazily
# on a generator spawned from it
# ---------------------------------------------------------------------- #

_MIX = (
    MIMOConfig(num_users=2, modulation="QPSK"),
    MIMOConfig(num_users=3, modulation="16-QAM"),
    MIMOConfig(num_users=2, modulation="16-QAM", num_receive_antennas=3),
)
_split_settings = settings(max_examples=25, deadline=None, derandomize=True)


def _generator(arrival_process="poisson", mix=_MIX):
    return TrafficGenerator(
        list(mix),
        symbol_period_us=10.0,
        arrival_process=arrival_process,
        turnaround_budget_us=40.0,
    )


def _stream(generator, modulated, seed, count=12):
    if modulated:
        return generator.stream_modulated(
            horizon_us=400.0,
            intensity=lambda t_us: 0.5 if t_us < 200.0 else 2.0,
            peak_intensity=2.0,
            rng=seed,
            max_count=count,
        )
    return generator.stream(count, rng=seed)


def _uses(generator, modulated, seed, count=12):
    return list(_stream(generator, modulated, seed, count))


def _schedule(uses):
    return [(use.index, use.arrival_time_us, use.deadline_us, use.config) for use in uses]


def _job_key(job):
    use = job.channel_use
    return (job.job_id, job.user_id, job.cell_id, use.arrival_time_us, use.deadline_us)


def _same_transmission(a, b):
    return (
        np.array_equal(a.instance.channel_matrix, b.instance.channel_matrix)
        and np.array_equal(a.instance.received, b.instance.received)
        and np.array_equal(a.transmitted_bits, b.transmitted_bits)
        and a.interference_power == b.interference_power
        and a.has_perfect_csi == b.has_perfect_csi
    )


class TestSplitSeedTree:
    @given(
        seed=st.integers(0, 2**31),
        arrival_process=st.sampled_from(["deterministic", "poisson"]),
        modulated=st.booleans(),
    )
    @_split_settings
    def test_schedule_is_independent_of_the_payload_draws(self, seed, arrival_process, modulated):
        if modulated:
            arrival_process = "poisson"
        undrawn = _uses(_generator(arrival_process), modulated, seed)
        # Drawing each payload as it is emitted, or streaming links whose
        # payloads draw fewer values, leaves the arrival draws untouched.
        drawn = []
        for use in _stream(_generator(arrival_process), modulated, seed):
            use.transmission
            drawn.append(use)
        small = _uses(_generator(arrival_process, mix=_MIX[:1]), modulated, seed)
        assert _schedule(undrawn) == _schedule(drawn)
        assert [entry[:3] for entry in _schedule(undrawn)] == [
            entry[:3] for entry in _schedule(small)
        ]

    @given(seed=st.integers(0, 2**31))
    @_split_settings
    def test_serving_job_ids_are_independent_of_the_link_configs(self, seed):
        from repro.serving import generate_serving_jobs, uniform_cell_profiles

        workloads = [
            generate_serving_jobs(
                uniform_cell_profiles(
                    num_cells=2, users_per_cell=2, configs=configs, symbol_period_us=20.0
                ),
                jobs_per_user=5,
                rng=seed,
            )
            for configs in ([_MIX[:2], _MIX[1:]], [_MIX[:1]])
        ]
        keys = [[_job_key(job) for job in jobs] for jobs in workloads]
        assert keys[0] == keys[1]

    @given(
        seed=st.integers(0, 2**31),
        modulated=st.booleans(),
        order=st.permutations(range(12)),
    )
    @_split_settings
    def test_any_access_order_replays_the_payload_generator(self, seed, modulated, order):
        generator = _generator()
        in_order = _uses(generator, modulated, seed)
        shuffled = _uses(generator, modulated, seed)
        backwards = _uses(generator, modulated, seed)
        for position in order:
            if position < len(shuffled):
                shuffled[position].transmission
        for use in reversed(backwards):
            use.transmission
        # The replay: one payload generator spawned from the arrival seed,
        # drawn in index order.
        payload_rng = np.random.default_rng(seed).spawn(1)[0]
        for first, second, third in zip(in_order, shuffled, backwards):
            expected = simulate_transmission(first.config, rng=payload_rng)
            for use in (first, second, third):
                assert _same_transmission(use.transmission, expected)

    def test_repr_equality_pickle_and_replace_never_draw(self):
        import dataclasses
        import pickle

        generator = _generator()
        reference = generator.generate(6, rng=21)
        uses = generator.generate(6, rng=21)
        copies = [
            dataclasses.replace(use, arrival_time_us=use.arrival_time_us + 5.0) for use in uses
        ]
        retimed = [dataclasses.replace(use, arrival_time_us=use.arrival_time_us) for use in uses]

        def observed():
            return (
                [repr(use) for use in uses + copies],
                [[a == b for b in uses + copies + retimed] for a in uses],
                [hash(use) for use in uses + retimed],
            )

        before = observed()
        pickled = pickle.dumps(uses)
        assert not any(use.payload.is_drawn for use in uses + copies + retimed)
        assert retimed == uses and copies != uses
        assert uses != reference
        for position in (4, 1, 5, 0, 3, 2):
            uses[position].transmission
        assert observed() == before
        # A copy shares its original's payload; a pickled undrawn stream
        # draws what the original drew, and so does a pickled drawn one.
        restored_undrawn = pickle.loads(pickled)
        restored_drawn = pickle.loads(pickle.dumps(uses))
        assert not any(use.payload.is_drawn for use in restored_undrawn)
        for use, copy, undrawn, drawn, expected in zip(
            uses, copies, restored_undrawn, restored_drawn, reference
        ):
            assert copy.transmission is use.transmission
            for other in (use, undrawn, drawn):
                assert _same_transmission(other.transmission, expected.transmission)

    def test_a_stream_read_in_order_keeps_no_transmission(self):
        import weakref

        generator = _generator()
        read = []
        for use in generator.stream(200, rng=3):
            read.append(weakref.ref(use.transmission))
            assert sum(ref() is not None for ref in read) == 1
        kept = use
        # Claimed transmissions drawn early are not kept by the stream either.
        uses = generator.generate(20, rng=3)
        uses[9].transmission
        early = [weakref.ref(use.transmission) for use in uses[:10]]
        survivor = uses[-1]
        del uses
        assert not any(ref() is not None for ref in read[:-1] + early)
        assert kept.transmission is read[-1]()
        assert not survivor.payload.is_drawn

    def test_keys_never_draw_the_payload(self, mix):
        uses = TrafficGenerator(mix).generate(8, rng=4)
        assert [use.qubo_variable_count for use in uses] == [
            use.config.qubo_variable_count for use in uses
        ]
        assert {use.modulation for use in uses} <= {"QPSK", "16-QAM"}
        assert not any(use.payload.is_drawn for use in uses)
        assert uses[5].transmission is not None
        assert all(use.payload.is_drawn for use in uses[:6])
        assert not any(use.payload.is_drawn for use in uses[6:])

    def test_a_given_transmission_sets_the_config_and_replace_swaps_it(self, config, rng):
        import dataclasses

        transmission = simulate_transmission(config, rng=rng)
        use = ChannelUse(index=0, arrival_time_us=1.0, transmission=transmission)
        assert use.transmission is transmission
        assert use.config == MIMOConfig(num_users=2, modulation="QPSK", num_receive_antennas=2)
        wider = simulate_transmission(MIMOConfig(3, "16-QAM"), rng=rng)
        swapped = dataclasses.replace(use, transmission=wider)
        assert swapped.transmission is wider and swapped.qubo_variable_count == 12
        with pytest.raises(ConfigurationError):
            ChannelUse(index=0, arrival_time_us=1.0)


# ---------------------------------------------------------------------- #
# Thinning against a reference loop
# ---------------------------------------------------------------------- #


def _reference_thinning(period_us, horizon_us, intensity, peak, generator, max_count, start_us):
    """Ogata thinning drawn with ``exponential(scale)`` gaps and ``uniform()`` accepts.

    Returns the accepted ``(index, arrival time)`` pairs and the number of
    candidates thinned; ``generator`` is left where the last draw put it.
    """
    accepted = []
    candidates = 0
    arrival = start_us
    while max_count is None or len(accepted) < max_count:
        arrival += float(generator.exponential(period_us / peak))
        if arrival >= horizon_us:
            break
        candidates += 1
        if float(generator.uniform()) * peak >= float(intensity(arrival)):
            continue
        accepted.append((len(accepted), arrival))
    return accepted, candidates


class TestThinningOracle:
    """``stream_modulated`` draws exactly what the reference loop draws."""

    # The outage scenario silences its middle cell (m = 0) for half the
    # horizon; busy-day mixes a sinusoid, a flash crowd and an outage of cell 0.
    @pytest.mark.parametrize(
        "name, cell, max_count",
        [("cell-outage", 1, None), ("cell-outage", 1, 40), ("busy-day", 1, None)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 2024])
    def test_arrivals_indices_and_end_state_match(self, name, cell, max_count, seed):
        import functools

        from repro.serving import build_scenario

        scenario = build_scenario(name, 3, horizon_us=2_000.0)
        intensity = functools.partial(scenario.intensity, cell)
        peak = scenario.peak_intensity()
        generator = _generator()
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        uses = list(
            generator.stream_modulated(
                horizon_us=scenario.duration_us,
                intensity=intensity,
                peak_intensity=peak,
                rng=ours,
                max_count=max_count,
                start_us=3.5,
            )
        )
        expected, candidates = _reference_thinning(
            generator.symbol_period_us,
            scenario.duration_us,
            intensity,
            peak,
            theirs,
            max_count,
            3.5,
        )
        assert [(use.index, use.arrival_time_us) for use in uses] == expected
        assert ours.bit_generator.state == theirs.bit_generator.state
        # Non-vacuous: the stream both accepted and rejected candidates.
        assert 0 < len(expected) < candidates
        if name == "cell-outage":
            silent = [t for _, t in expected if 500.0 <= t < 1_500.0]
            assert silent == []
