"""Workload mix, arrivals, request sampling, and SLO targets (Table 6)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.units import days
from repro.workloads.arrivals import DiurnalRateProfile, generate_arrivals
from repro.workloads.requests import RequestSampler, SampledRequest
from repro.workloads.spec import (
    CHAT,
    Priority,
    SEARCH,
    SLO_TARGETS,
    SUMMARIZE,
    SloTargets,
    TABLE6_MIX,
    WorkloadSpec,
)


class TestTable6:
    def test_shares_sum_to_one(self):
        assert sum(w.share for w in TABLE6_MIX) == pytest.approx(1.0)

    def test_workload_ranges_match_table6(self):
        assert SUMMARIZE.prompt_range == (2048, 8192)
        assert SUMMARIZE.output_range == (256, 512)
        assert SEARCH.prompt_range == (512, 2048)
        assert SEARCH.output_range == (1024, 2048)
        assert CHAT.prompt_range == (2048, 4096)
        assert CHAT.output_range == (128, 2048)

    def test_priorities_match_table6(self):
        assert SUMMARIZE.high_priority_probability == 0.0   # Low
        assert SEARCH.high_priority_probability == 1.0      # High
        assert CHAT.high_priority_probability == 0.5        # 50:50

    def test_all_served_by_bloom(self):
        """Section 6.4: BLOOM-176B is the worst-case evaluation model."""
        assert all(w.model_name == "BLOOM-176B" for w in TABLE6_MIX)

    def test_slo_targets_match_table6(self):
        assert SLO_TARGETS[Priority.HIGH].p50_impact == 0.01
        assert SLO_TARGETS[Priority.HIGH].p99_impact == 0.05
        assert SLO_TARGETS[Priority.LOW].p50_impact == 0.05
        assert SLO_TARGETS[Priority.LOW].p99_impact == 0.50
        assert all(t.max_power_brakes == 0 for t in SLO_TARGETS.values())

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (0, 10), (1, 2), 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (1, 10), (1, 2), 1.5, 0.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec("bad", (1, 10), (1, 2), 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            SloTargets(p50_impact=-0.1, p99_impact=0.1)


class TestDiurnalProfile:
    def test_rate_peaks_at_peak_hour(self):
        profile = DiurnalRateProfile(base_rate=1.0, noise_amplitude=0.0,
                                     weekly_amplitude=0.0, peak_hour=15.0)
        peak_rate = profile.rate(15 * 3600.0)
        trough_rate = profile.rate(3 * 3600.0)
        assert peak_rate > trough_rate
        assert peak_rate == pytest.approx(1.3, abs=0.01)

    def test_rates_vectorized_matches_scalar(self):
        profile = DiurnalRateProfile(base_rate=2.0)
        times = np.array([0.0, 3600.0, 86400.0])
        vector = profile.rates(times)
        scalar = [profile.rate(float(t)) for t in times]
        assert np.allclose(vector, scalar)

    def test_max_rate_dominates(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        times = np.linspace(0, days(7), 5000)
        assert profile.rates(times).max() <= profile.max_rate + 1e-9

    def test_rate_always_positive(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        times = np.linspace(0, days(7), 5000)
        assert (profile.rates(times) > 0).all()

    def test_excessive_amplitudes_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalRateProfile(base_rate=1.0, daily_amplitude=0.9,
                               weekly_amplitude=0.2)

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalRateProfile(base_rate=0.0)


class TestArrivalGeneration:
    def test_count_tracks_expected(self):
        profile = DiurnalRateProfile(base_rate=2.0, daily_amplitude=0.2,
                                     weekly_amplitude=0.05,
                                     noise_amplitude=0.02)
        arrivals = generate_arrivals(profile, 0.0, 3600.0, seed=0)
        expected = profile.rates(np.linspace(0, 3600.0, 720)).mean() * 3600.0
        assert len(arrivals) == pytest.approx(expected, rel=0.08)

    def test_sorted_and_in_window(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        arrivals = generate_arrivals(profile, 100.0, 500.0, seed=1)
        assert arrivals == sorted(arrivals)
        assert all(100.0 <= t < 500.0 for t in arrivals)

    def test_deterministic_for_seed(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        assert generate_arrivals(profile, 0, 600, seed=5) == \
            generate_arrivals(profile, 0, 600, seed=5)

    def test_empty_window_rejected(self):
        profile = DiurnalRateProfile(base_rate=1.0)
        with pytest.raises(ConfigurationError):
            generate_arrivals(profile, 10.0, 10.0)


class TestRequestSampler:
    def test_sizes_within_workload_ranges(self):
        sampler = RequestSampler(seed=0)
        for request in sampler.sample_many(np.arange(500.0)):
            lo_p, hi_p = request.workload.prompt_range
            lo_o, hi_o = request.workload.output_range
            assert lo_p <= request.input_tokens <= hi_p
            assert lo_o <= request.output_tokens <= hi_o

    def test_mix_ratios_converge(self):
        sampler = RequestSampler(seed=1)
        requests = sampler.sample_many(np.arange(4000.0))
        shares = {
            name: sum(1 for r in requests if r.workload.name == name) / 4000
            for name in ("Summarize", "Search", "Chat")
        }
        assert shares["Summarize"] == pytest.approx(0.25, abs=0.03)
        assert shares["Search"] == pytest.approx(0.25, abs=0.03)
        assert shares["Chat"] == pytest.approx(0.50, abs=0.03)

    def test_priority_split_is_50_50(self):
        sampler = RequestSampler(seed=2)
        assert sampler.expected_priority_split() == pytest.approx(0.5)
        requests = sampler.sample_many(np.arange(4000.0))
        high = sum(1 for r in requests if r.priority is Priority.HIGH)
        assert high / 4000 == pytest.approx(0.5, abs=0.03)

    def test_search_is_always_high_priority(self):
        sampler = RequestSampler(seed=3)
        requests = sampler.sample_many(np.arange(2000.0))
        assert all(
            r.priority is Priority.HIGH
            for r in requests if r.workload.name == "Search"
        )
        assert all(
            r.priority is Priority.LOW
            for r in requests if r.workload.name == "Summarize"
        )

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestSampler(mix=(SUMMARIZE, SEARCH))  # shares sum to 0.5


class TestSampledRequest:
    def test_slotted_without_instance_dict(self):
        request = RequestSampler(seed=4).sample(1.5)
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.input_tokens = 1  # still frozen

    def test_pickle_round_trip(self):
        import pickle

        requests = RequestSampler(seed=5).sample_many(np.arange(50.0))
        clones = pickle.loads(
            pickle.dumps(requests, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert clones == requests
        assert [hash(r) for r in clones] == [hash(r) for r in requests]
        # Priorities come back as the enum members themselves.
        assert all(
            clone.workload == original.workload
            and clone.priority is original.priority
            for clone, original in zip(clones, requests)
        )


class _ChoiceOracle:
    """The request sampler as it drew with ``Generator.choice(p=...)``.

    :class:`RequestSampler` precomputes the cdf that ``choice`` rebuilds
    on every call; this keeps the per-call body it must match draw for
    draw.
    """

    def __init__(self, mix, seed):
        self.mix = mix
        self.rng = np.random.default_rng(seed)

    def sample(self, arrival_time):
        shares = [w.share for w in self.mix]
        index = int(self.rng.choice(len(self.mix), p=shares))
        workload = self.mix[index]
        is_high = self.rng.random() < workload.high_priority_probability
        lo_p, hi_p = workload.prompt_range
        lo_o, hi_o = workload.output_range
        return SampledRequest(
            arrival_time=arrival_time,
            workload=workload,
            priority=Priority.HIGH if is_high else Priority.LOW,
            input_tokens=int(self.rng.integers(lo_p, hi_p + 1)),
            output_tokens=int(self.rng.integers(lo_o, hi_o + 1)),
        )


@st.composite
def token_ranges(draw):
    lo = draw(st.integers(min_value=1, max_value=10_000))
    # Width 0 is a one-value range: ``integers`` consumes no draw.
    width = draw(st.one_of(
        st.just(0), st.integers(0, 3), st.integers(0, 2 ** 40)
    ))
    return (lo, lo + width)


@st.composite
def workload_specs(draw, share):
    return WorkloadSpec(
        name=f"w{draw(st.integers(0, 99))}",
        prompt_range=draw(token_ranges()),
        output_range=draw(token_ranges()),
        share=share,
        high_priority_probability=draw(st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)
        )),
    )


@st.composite
def mixes(draw):
    """1-4 workloads whose shares sum to 1 within 1e-9 (not exactly)."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=4))
    shares = [w / sum(weights) for w in weights]
    # Nudge the last share: the sampler must normalize the cdf the way
    # ``choice`` does, not assume the shares already sum to 1.
    shares[-1] = min(1.0, shares[-1] + draw(st.floats(-5e-10, 5e-10)))
    return tuple(draw(workload_specs(share)) for share in shares)


arrival_batches = st.lists(
    st.one_of(
        st.floats(0.0, 1e6),  # one ``sample`` call
        st.lists(st.floats(0.0, 1e6), max_size=20),  # one ``sample_many``
    ),
    max_size=12,
)


class TestRequestSamplerMatchesChoice:
    @settings(max_examples=200, deadline=None)
    @given(mixes(), st.integers(0, 2 ** 32 - 1), arrival_batches)
    def test_same_stream_as_choice(self, mix, seed, batches):
        sampler = RequestSampler(mix=mix, seed=seed)
        oracle = _ChoiceOracle(mix, seed)
        for batch in batches:
            if isinstance(batch, list):
                got = sampler.sample_many(batch)
                want = [oracle.sample(t) for t in batch]
            else:
                got = [sampler.sample(batch)]
                want = [oracle.sample(batch)]
            assert got == want
        # Both generators end in the same state: no extra or lost draw.
        assert sampler.sample(0.0) == oracle.sample(0.0)

    @settings(max_examples=100, deadline=None)
    @given(mixes(), st.one_of(
        st.floats(0.1, 1.0 - 1e-6),  # shares summing below 1
        st.floats(1.0 + 1e-6, 3.0),  # shares summing above 1
    ))
    def test_shares_off_one_rejected(self, mix, total):
        shares = [w.share * total for w in mix]
        assume(all(share <= 1.0 for share in shares))
        scaled = tuple(
            replace(w, share=share) for w, share in zip(mix, shares)
        )
        with pytest.raises(ConfigurationError):
            RequestSampler(mix=scaled)
