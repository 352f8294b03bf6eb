import dataclasses

import pytest

from conftest import binary_pair_dataset, make_session
from prefeval.dataset import Variant, Verdict
from prefeval.implicit import (
    DEFAULT_THRESHOLD_GRIDS,
    Direction,
    ExcludedSession,
    ImplicitMeasure,
    SessionEndpoint,
    click_count,
    descriptive_stats,
    first_click_rank,
    implicit_pairs,
    implicit_pir,
    mean_click_rank,
    session_duration,
)
from prefeval.pir import pir
from prefeval.synth import SynthSpec, generate_synthetic


class TestSessionDuration:
    def test_explicit_end(self):
        s = make_session(start=100, end=152)
        assert session_duration(s, SessionEndpoint.EXPLICIT_END) == 52

    def test_last_click(self):
        s = make_session(start=100, end=200, click_ranks_ts=((2, 110), (5, 130)))
        assert session_duration(s, SessionEndpoint.LAST_CLICK) == 30

    def test_last_click_without_clicks_is_excluded(self):
        with pytest.raises(ExcludedSession):
            session_duration(make_session(), SessionEndpoint.LAST_CLICK)


class TestClickMeasures:
    def test_click_count_empty(self):
        assert click_count(make_session()) == 0

    def test_click_count_keeps_repeats(self):
        s = make_session(click_ranks_ts=((1, 110), (3, 120), (3, 130)))
        assert click_count(s) == 3

    def test_click_count_ten(self):
        s = make_session(end=400, click_ranks_ts=tuple((r, 100 + 10 * r) for r in range(1, 11)))
        assert click_count(s) == 10

    def test_mean_click_rank(self):
        assert mean_click_rank(make_session(click_ranks_ts=((1, 110), (5, 120)))) == 3.0
        assert mean_click_rank(make_session(click_ranks_ts=((2, 110),))) == 2.0

    def test_mean_click_rank_is_a_float_when_whole(self):
        assert type(mean_click_rank(make_session(click_ranks_ts=((1, 110), (5, 120))))) is float

    def test_mean_click_rank_no_clicks_is_21(self):
        assert mean_click_rank(make_session()) == 21

    def test_first_click_rank_follows_time_not_rank(self):
        s = make_session(click_ranks_ts=((4, 110), (1, 120)))
        assert first_click_rank(s) == 4

    def test_first_click_rank_no_clicks_is_21(self):
        assert first_click_rank(make_session()) == 21

    def test_first_click_rank_single(self):
        assert first_click_rank(make_session(click_ranks_ts=((7, 110),))) == 7

    def test_rank_measures_stay_within_clicked_bounds(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            clicks = tuple(
                (rng.randint(1, 20), 100 + i * 5) for i in range(rng.randint(1, 8))
            )
            s = make_session(end=100 + len(clicks) * 5, click_ranks_ts=clicks)
            ranks = [r for r, _ in clicks]
            assert min(ranks) <= mean_click_rank(s) <= max(ranks)
            assert first_click_rank(s) <= max(ranks)


def with_sessions(ds, session_specs):
    sessions = tuple(make_session(**spec) for spec in session_specs)
    return dataclasses.replace(ds, sessions=sessions)


class TestImplicitPir:
    def base(self):
        return binary_pair_dataset(
            [("q1", 5, 2, Verdict.A), ("q2", 2, 5, Verdict.B)], list_len=10
        )

    def test_identical_logs_stay_at_baseline(self):
        ds = self.base()
        specs = []
        for qid in ("q1", "q2"):
            for variant in (Variant.A, Variant.B):
                specs.append(dict(qid=qid, variant=variant, start=100, end=150,
                                  click_ranks_ts=((1, 120),)))
        ds = with_sessions(ds, specs)
        series = implicit_pir(ds, ImplicitMeasure.DURATION)
        assert all(cell.pir == 0.5 for cell in series.cells)

    def test_direction_flip_mirrors_pir(self):
        ds = with_sessions(self.base(), [
            dict(qid="q1", variant=Variant.A, start=0, end=30),
            dict(qid="q1", variant=Variant.B, start=0, end=90),
            dict(qid="q2", variant=Variant.A, start=0, end=80),
            dict(qid="q2", variant=Variant.B, start=0, end=20),
        ])
        lower = implicit_pir(ds, ImplicitMeasure.DURATION,
                             direction=Direction.LOWER_BETTER, thresholds=(0.0, 10.0))
        higher = implicit_pir(ds, ImplicitMeasure.DURATION,
                              direction=Direction.HIGHER_BETTER, thresholds=(0.0, 10.0))
        for cell_low, cell_high in zip(lower.cells, higher.cells):
            assert cell_high.pir == pytest.approx(1.0 - cell_low.pir)

    def test_queries_without_usable_sessions_are_excluded(self):
        ds = with_sessions(self.base(), [
            dict(qid="q1", variant=Variant.A, start=0, end=30),
            # q1 variant B missing entirely; q2 has both
            dict(qid="q2", variant=Variant.A, start=0, end=80),
            dict(qid="q2", variant=Variant.B, start=0, end=20),
        ])
        series = implicit_pir(ds, ImplicitMeasure.DURATION)
        assert series.excluded_queries == 1
        assert series.cells[0].total_pairs == 1

    def test_last_click_endpoint_excludes_clickless_variants(self):
        ds = with_sessions(self.base(), [
            dict(qid="q1", variant=Variant.A, start=0, end=30, click_ranks_ts=((1, 10),)),
            dict(qid="q1", variant=Variant.B, start=0, end=90),
            dict(qid="q2", variant=Variant.A, start=0, end=80, click_ranks_ts=((1, 10),)),
            dict(qid="q2", variant=Variant.B, start=0, end=20, click_ranks_ts=((2, 15),)),
        ])
        series = implicit_pir(ds, ImplicitMeasure.DURATION,
                              endpoint=SessionEndpoint.LAST_CLICK)
        assert series.excluded_queries == 1

    def test_variant_scores_average_over_raters(self):
        ds = self.base()
        ds = with_sessions(ds, [
            dict(qid="q1", rater="r1", variant=Variant.A, start=0, end=30),
            dict(qid="q1", rater="r2", variant=Variant.A, start=0, end=50),
            dict(qid="q1", variant=Variant.B, start=0, end=100),
            dict(qid="q2", variant=Variant.A, start=0, end=10),
            dict(qid="q2", variant=Variant.B, start=0, end=10),
        ])
        pairs, excluded = implicit_pairs(ds, ImplicitMeasure.DURATION,
                                         direction=Direction.LOWER_BETTER)
        assert excluded == 0
        # q1: mean(30, 50) = 40 vs 100, negated by the lower-is-better orientation
        assert pairs[0][0] == pytest.approx(-40.0)
        assert pairs[0][1] == pytest.approx(-100.0)

    def test_matches_reference_enumeration_on_synthetic_logs(self):
        ds = generate_synthetic(SynthSpec(n_queries=10, n_raters=4, seed=5,
                                          n_preferences=20, rater_noise=0.2))
        for measure in ImplicitMeasure:
            series = implicit_pir(ds, measure)
            pairs, _ = implicit_pairs(ds, measure)
            for cell in series.cells:
                assert cell == pir(pairs, cell.threshold)

    @pytest.mark.parametrize("thresholds", [(3.0, 1.0, 2.0), (0.0, 1.0, 1.0)])
    def test_grid_must_increase_strictly(self, thresholds):
        ds = generate_synthetic(SynthSpec(n_queries=3, n_raters=2, seed=1))
        with pytest.raises(ValueError, match="strictly increasing"):
            implicit_pir(ds, ImplicitMeasure.CLICK_COUNT, thresholds=thresholds)

    def test_default_threshold_grids(self):
        assert DEFAULT_THRESHOLD_GRIDS[ImplicitMeasure.DURATION][:3] == (0.0, 5.0, 10.0)
        assert DEFAULT_THRESHOLD_GRIDS[ImplicitMeasure.DURATION][-1] == 120.0
        assert DEFAULT_THRESHOLD_GRIDS[ImplicitMeasure.CLICK_COUNT][-1] == 10.0
        assert DEFAULT_THRESHOLD_GRIDS[ImplicitMeasure.MEAN_CLICK_RANK][-1] == 20.0


class TestDescriptiveStats:
    def test_empty_sessions_undefined_shares(self):
        ds = binary_pair_dataset([("q1", 3, 2, Verdict.A)], list_len=10)
        stats = descriptive_stats(ds)
        for variant_stats in stats.variants.values():
            assert variant_stats.sessions == 0
            assert variant_stats.zero_click_share is None
            assert variant_stats.clicks_per_session == {}
            assert variant_stats.mean_satisfaction is None

    def test_single_session_click_totals(self):
        ds = binary_pair_dataset([("q1", 3, 2, Verdict.A)], list_len=10)
        ds = with_sessions(ds, [dict(qid="q1", variant=Variant.A, start=100, end=150,
                                     click_ranks_ts=((1, 110), (2, 120)))])
        stats = descriptive_stats(ds)
        a_stats = stats.variants[Variant.A]
        assert a_stats.clicks_by_rank == {1: 1, 2: 1}
        assert a_stats.clicks_per_session == {2: 1}
        assert a_stats.zero_click_share == 0.0

    def test_click_totals_sum_to_click_counts(self):
        ds = generate_synthetic(SynthSpec(n_queries=12, n_raters=3, seed=8, n_preferences=24))
        stats = descriptive_stats(ds)
        for variant in (Variant.A, Variant.B):
            total_by_rank = sum(stats.variants[variant].clicks_by_rank.values())
            total = sum(click_count(s) for s in ds.sessions if s.variant is variant)
            assert total_by_rank == total

    def test_per_rank_relevance_and_grade_mix(self):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        stats = descriptive_stats(ds)
        a_stats = stats.variants[Variant.A]
        assert a_stats.mean_relevance_by_rank == {1: 1.0, 2: 1.0, 3: 0.0}
        assert a_stats.grade_counts_by_rank[1] == {1: 1}
        assert a_stats.grade_counts_by_rank[3] == {6: 1}

    def test_query_type_breakdown(self):
        ds = generate_synthetic(SynthSpec(n_queries=10, n_raters=2, seed=4))
        stats = descriptive_stats(ds)
        assert sum(s.queries for s in stats.query_types.values()) == 10
        assert "informational" in stats.query_types
        for type_stats in stats.query_types.values():
            assert type_stats.mean_terms > 0
