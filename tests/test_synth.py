import contextlib
import gc
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import scored_pairs
from prefeval import synth
from prefeval.config import Metric, MetricConfig, RatingSource
from prefeval.data_io import read_dataset, write_dataset
from prefeval.dataset import ValidationMode, Verdict, validate
from prefeval.pir import pir
from prefeval.scales import DiscountFunction, DiscountKind
from prefeval.synth import SynthSpec, generate_synthetic


class TestDeterminism:
    def test_same_spec_same_dataset(self):
        spec = SynthSpec(n_queries=8, n_raters=4, seed=99, n_preferences=16, rater_noise=0.2)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seed_different_dataset(self):
        a = generate_synthetic(SynthSpec(n_queries=8, n_raters=4, seed=1))
        b = generate_synthetic(SynthSpec(n_queries=8, n_raters=4, seed=2))
        assert a != b


@st.composite
def small_specs(draw):
    """Small specs with every model drawn: noise, overlap, list length, verdict count, clicks."""
    n_queries, n_raters = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    most = n_queries * n_raters  # one verdict per (query, rater)
    n_preferences = draw(st.sampled_from((None, 0, most)) | st.integers(0, most))
    unit = st.floats(0, 1)
    return SynthSpec(
        n_queries, n_raters, draw(st.integers(0, 2 ** 32)),
        list_len=draw(st.integers(1, 12)), n_preferences=n_preferences,
        order_noise_a=draw(unit), order_noise_b=draw(unit), overlap=draw(unit),
        rater_noise=draw(unit), click_rate=draw(st.sampled_from((0.0, 1.0)) | unit),
    )


class TestRoundTrip:
    @given(small_specs())
    @example(SynthSpec(1001, 2, 1))  # q1000 sorts between q100 and q101
    def test_generated_dataset_equals_its_written_files(self, spec):
        dataset = generate_synthetic(spec)
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(dataset, tmp)
            assert read_dataset(tmp) == dataset


class TestStrictValidity:
    @pytest.mark.parametrize("kwargs", [
        dict(n_queries=5, n_raters=2),
        dict(n_queries=10, n_raters=4, n_preferences=30, rater_noise=0.3),
        dict(n_queries=6, n_raters=3, overlap=0.4),
        dict(n_queries=4, n_raters=2, list_len=12),
    ])
    def test_generated_datasets_validate_strictly(self, kwargs):
        ds = generate_synthetic(SynthSpec(seed=7, **kwargs))
        report = validate(ds, ValidationMode.STRICT, max_cutoff=min(10, kwargs.get("list_len", 10)))
        assert report.issues == ()

    def test_study_scale_shape(self):
        # 42 queries, 31 raters, 147 verdicts: the magnitude of a real
        # side-by-side study this toolkit is shaped for
        spec = SynthSpec(n_queries=42, n_raters=31, seed=2010, n_preferences=147)
        ds = generate_synthetic(spec)
        assert len(ds.queries) == 42
        assert len({rater for raters in ds.judgments.values() for rater in raters}) <= 31
        assert len(ds.preferences) == 147
        assert validate(ds, ValidationMode.STRICT).issues == ()

    def test_downstream_accepts_strict_valid_dataset(self):
        ds = generate_synthetic(SynthSpec(n_queries=6, n_raters=3, seed=3, n_preferences=12))
        for source in RatingSource:
            for metric in Metric:
                kw = {"esl_n": 1.5} if metric is Metric.ESL else {}
                cfg = MetricConfig(metric=metric, discount=DiscountFunction(DiscountKind.LOG2),
                                   rating_source=source, cutoff=5, **kw)
                pairs, _ = scored_pairs(ds, cfg)
                pir(pairs, 0.0)


class TestGradeMarginals:
    def test_exact_quota_when_divisible(self):
        weights = (1 / 6,) * 6
        spec = SynthSpec(n_queries=5, n_raters=2, seed=13, list_len=12,
                         grade_weights_a=weights, grade_weights_b=weights)
        ds = generate_synthetic(spec)
        per_variant = {"a": Counter(), "b": Counter()}
        for (_, rid), raters in ds.judgments.items():  # each result's first grade
            per_variant["a" if "-a" in rid else "b"][next(iter(raters.values()))] += 1
        for counter in per_variant.values():
            assert all(count == 10 for count in counter.values())  # 5 queries * 2 each

    def test_skewed_weights_shift_the_mix(self):
        spec = SynthSpec(
            n_queries=10, n_raters=2, seed=13,
            grade_weights_a=(0.5, 0.3, 0.2, 0.0, 0.0, 0.0),
            grade_weights_b=(0.0, 0.0, 0.0, 0.2, 0.3, 0.5),
        )
        ds = generate_synthetic(spec)
        grades_a = [g for (_, rid), raters in ds.judgments.items() if "-a" in rid
                    for g in raters.values()]
        grades_b = [g for (_, rid), raters in ds.judgments.items() if "-b" in rid
                    for g in raters.values()]
        assert max(grades_a) <= 3 < min(grades_b)


class TestPreferenceModel:
    def test_all_top_grades_produce_only_equal_verdicts(self):
        spec = SynthSpec(n_queries=6, n_raters=2, seed=5,
                         grade_weights_a=(1, 0, 0, 0, 0, 0),
                         grade_weights_b=(1, 0, 0, 0, 0, 0))
        ds = generate_synthetic(spec)
        assert {p.verdict for p in ds.preferences} == {Verdict.EQUAL}
        pairs, _ = scored_pairs(ds, MetricConfig(Metric.PRECISION,
                                                 DiscountFunction(DiscountKind.NONE)))
        cell = pir(pairs, 0.0)
        assert cell.empty_denominator
        assert cell.pir == 0.5

    def test_ordering_advantage_prefers_variant_a(self):
        ds = generate_synthetic(SynthSpec(n_queries=30, n_raters=3, seed=77, n_preferences=60))
        counts = Counter(p.verdict for p in ds.preferences)
        assert counts[Verdict.A] > counts[Verdict.B]

    def test_preference_distribution_across_queries(self):
        ds = generate_synthetic(SynthSpec(n_queries=10, n_raters=5, seed=1, n_preferences=23))
        per_query = Counter(p.query_id for p in ds.preferences)
        assert sum(per_query.values()) == 23
        assert set(per_query.values()) <= {2, 3}
        rater_pairs = {(p.query_id, p.rater_id) for p in ds.preferences}
        assert len(rater_pairs) == 23


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_queries=0, n_raters=1),
        dict(n_queries=1, n_raters=0),
        dict(n_queries=2, n_raters=2, n_preferences=5),
        dict(n_queries=2, n_raters=1, n_preferences=4),
        dict(n_queries=1, n_raters=1, grade_weights_a=(1, 0, 0)),
        dict(n_queries=1, n_raters=1, overlap=1.5),
        dict(n_queries=1, n_raters=1, rater_noise=-0.1),
        dict(n_queries=1, n_raters=1, order_noise_a=2.0),
        dict(n_queries=1, n_raters=1, equal_margin=float("nan")),
        dict(n_queries=1, n_raters=1, equal_margin=float("inf")),
        dict(n_queries=1, n_raters=1, equal_margin=-1.0),
        dict(n_queries=1, n_raters=1, click_rate=float("nan")),
        dict(n_queries=1, n_raters=1, click_rate=-1.0),
        dict(n_queries=1, n_raters=1, click_rate=1.5),
        dict(n_queries=1, n_raters=1, grade_weights_a=(float("nan"), 1, 1, 1, 1, 1)),
        dict(n_queries=1, n_raters=1, grade_weights_a=(float("inf"), 1, 1, 1, 1, 1)),
        dict(n_queries=1, n_raters=1, grade_weights_b=(1, 1, 1, 1, 1, float("nan"))),
        dict(n_queries=1, n_raters=1, grade_weights_b=(1, 1, 1, 1, 1, float("inf"))),
    ])
    def test_infeasible_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(seed=1, **kwargs)


class TestGcPause:
    """Generation runs with the cyclic collector off, and gives the caller's state back."""

    SPEC = SynthSpec(n_queries=6, n_raters=3, seed=4, n_preferences=12)

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_collector_is_off_while_generating(self, monkeypatch):
        seen, place = [], synth._place_grades

        def spy_place(*args):
            seen.append(gc.isenabled())
            return place(*args)

        monkeypatch.setattr(synth, "_place_grades", spy_place)
        gc.enable()
        generate_synthetic(self.SPEC)
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, monkeypatch, enabled, raises):
        if raises:
            monkeypatch.setattr(synth, "_place_grades", lambda *args: 1 / 0)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ZeroDivisionError) if raises else contextlib.nullcontext():
            generate_synthetic(self.SPEC)
        assert gc.isenabled() is enabled

    def test_generation_leaves_no_cycles(self):
        """What the pause rests on: generation makes no garbage that only a collection frees."""
        gc.collect()
        dataset = generate_synthetic(SynthSpec(n_queries=300, n_raters=4, seed=11,
                                               n_preferences=600))
        assert gc.collect() == 0
        assert dataset.sessions
