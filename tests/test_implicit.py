import dataclasses
import itertools
import random

import pytest

from conftest import binary_pair_dataset, make_session
from prefeval.cli import main
from prefeval.data_io import load_dataset, write_dataset
from prefeval.dataset import Click, PreferenceJudgment, Variant, Verdict
from prefeval.implicit import (
    DEFAULT_THRESHOLD_GRIDS,
    Direction,
    ImplicitMeasure,
    SessionEndpoint,
    descriptive_stats,
    implicit_pir,
    measure_session,
)
from prefeval.pir import pir
from prefeval.synth import SynthSpec, generate_synthetic

DURATION = ImplicitMeasure.DURATION
CLICKS = ImplicitMeasure.CLICK_COUNT
MEAN_RANK = ImplicitMeasure.MEAN_CLICK_RANK
FIRST_RANK = ImplicitMeasure.FIRST_CLICK_RANK


class TestSessionDuration:
    def test_explicit_end(self):
        s = make_session(start=100, end=152)
        assert measure_session(s, DURATION, SessionEndpoint.EXPLICIT_END) == 52

    def test_last_click(self):
        s = make_session(start=100, end=200, click_ranks_ts=((2, 110), (5, 130)))
        assert measure_session(s, DURATION, SessionEndpoint.LAST_CLICK) == 30

    def test_last_click_without_clicks_is_excluded(self):
        assert measure_session(make_session(), DURATION, SessionEndpoint.LAST_CLICK) is None


class TestClickMeasures:
    def test_click_count_empty(self):
        assert measure_session(make_session(), CLICKS) == 0

    def test_click_count_keeps_repeats(self):
        s = make_session(click_ranks_ts=((1, 110), (3, 120), (3, 130)))
        assert measure_session(s, CLICKS) == 3

    def test_click_count_ten(self):
        s = make_session(end=400, click_ranks_ts=tuple((r, 100 + 10 * r) for r in range(1, 11)))
        assert measure_session(s, CLICKS) == 10

    def test_mean_click_rank(self):
        assert measure_session(make_session(click_ranks_ts=((1, 110), (5, 120))), MEAN_RANK) == 3.0
        assert measure_session(make_session(click_ranks_ts=((2, 110),)), MEAN_RANK) == 2.0

    def test_mean_click_rank_is_a_float_when_whole(self):
        s = make_session(click_ranks_ts=((1, 110), (5, 120)))
        assert type(measure_session(s, MEAN_RANK)) is float

    def test_mean_click_rank_no_clicks_is_21(self):
        assert measure_session(make_session(), MEAN_RANK) == 21

    def test_first_click_rank_follows_time_not_rank(self):
        s = make_session(click_ranks_ts=((4, 110), (1, 120)))
        assert measure_session(s, FIRST_RANK) == 4

    def test_first_click_rank_no_clicks_is_21(self):
        assert measure_session(make_session(), FIRST_RANK) == 21

    def test_first_click_rank_single(self):
        assert measure_session(make_session(click_ranks_ts=((7, 110),)), FIRST_RANK) == 7

    def test_rank_measures_stay_within_clicked_bounds(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            clicks = tuple(
                (rng.randint(1, 20), 100 + i * 5) for i in range(rng.randint(1, 8))
            )
            s = make_session(end=100 + len(clicks) * 5, click_ranks_ts=clicks)
            ranks = [r for r, _ in clicks]
            assert min(ranks) <= measure_session(s, MEAN_RANK) <= max(ranks)
            assert measure_session(s, FIRST_RANK) <= max(ranks)

    def test_first_click_breaks_timestamp_ties_by_rank(self):
        s = make_session(click_ranks_ts=((9, 110), (2, 110), (1, 120)))
        assert measure_session(s, FIRST_RANK) == 2

    def test_tied_click_timestamps_score_the_same_after_a_round_trip(self, tmp_path):
        """A library-built dataset scores as its written-and-loaded copy, clicks in file order."""
        ds = generate_synthetic(SynthSpec(6, 3, 3, n_preferences=12))
        ds = dataclasses.replace(ds, sessions=tuple(
            dataclasses.replace(s, clicks=(Click(rank=9, ts=s.clicks[0].ts), *s.clicks))
            if s.clicks else s for s in ds.sessions))
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        for measure in ImplicitMeasure:
            assert implicit_pir(loaded, measure) == implicit_pir(ds, measure)
        assert descriptive_stats(loaded) == descriptive_stats(ds)


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
        assert series.excluded == 1
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
        assert series.excluded == 1

    def test_band_keeps_its_bounds_and_excludes_each_query_once(self):
        ds = binary_pair_dataset(
            [("q1", 5, 2, Verdict.A), ("q2", 2, 5, Verdict.B), ("q3", 5, 2, Verdict.A)],
            list_len=10)
        more = tuple(PreferenceJudgment("q2", rater, Verdict.B) for rater in ("r2", "r3"))
        ds = dataclasses.replace(ds, preferences=ds.preferences + more)
        ds = with_sessions(ds, [
            dict(qid="q1", variant=Variant.A, start=0, end=30),  # on the lower bound
            dict(qid="q1", variant=Variant.B, start=0, end=60),  # on the upper bound
            dict(qid="q2", variant=Variant.A, start=0, end=20),  # below: empties q2's A
            dict(qid="q2", variant=Variant.B, start=0, end=45),
            dict(qid="q3", rater="r1", variant=Variant.A, start=0, end=40),
            dict(qid="q3", rater="r2", variant=Variant.A, start=0, end=90),  # above: dropped
            dict(qid="q3", variant=Variant.B, start=0, end=50),
        ])
        series = implicit_pir(ds, DURATION, thresholds=(0.0, 10.0), band=(30.0, 60.0))
        # q2 and its three verdicts drop out; q1 prefers A by 30 s, q3 by 50 - 40 = 10 s.
        assert series.excluded == 1
        assert [(c.total_pairs, c.correct_pref, c.missed_pref) for c in series.cells] == [
            (2, 2, 0), (2, 1, 1)]
        assert [c.pir for c in series.cells] == [1.0, 0.75]
        unbanded = implicit_pir(ds, DURATION, thresholds=(0.0,))
        assert unbanded.excluded == 0
        assert unbanded.cells[0].total_pairs == 5

    def test_variant_scores_average_over_raters(self):
        ds = self.base()
        ds = with_sessions(ds, [
            dict(qid="q1", rater="r1", variant=Variant.A, start=0, end=30),
            dict(qid="q1", rater="r2", variant=Variant.A, start=0, end=50),
            dict(qid="q1", variant=Variant.B, start=0, end=100),
            dict(qid="q2", variant=Variant.A, start=0, end=10),
            dict(qid="q2", variant=Variant.B, start=0, end=10),
        ])
        series = implicit_pir(ds, DURATION, direction=Direction.LOWER_BETTER,
                              thresholds=(0.0, 59.0, 60.0))
        assert series.excluded == 0
        # q1: mean(30, 50) = 40 s against 100 s, a 60 s gap for A; q2 ties and misses its B.
        assert [(c.correct_pref, c.missed_pref) for c in series.cells] == [(1, 1), (1, 1), (0, 2)]
        assert [c.pir for c in series.cells] == [0.75, 0.75, 0.5]

    def test_matches_reference_enumeration_on_synthetic_logs(self):
        # At click_rate 0.3, four queries have no LAST_CLICK duration on one side.
        ds = generate_synthetic(SynthSpec(n_queries=10, n_raters=4, seed=5,
                                          n_preferences=20, rater_noise=0.2, click_rate=0.3))
        for endpoint, direction, measure in itertools.product(
                SessionEndpoint, Direction, ImplicitMeasure):
            sign = -1.0 if direction is Direction.LOWER_BETTER else 1.0

            def mean(qid, variant):
                values = [measure_session(s, measure, endpoint) for s in ds.sessions
                          if s.query_id == qid and s.variant is variant]
                values = [v for v in values if v is not None]
                return sign * sum(values) / len(values) if values else None

            pairs, excluded = [], set()
            for p in ds.preferences:
                score_a, score_b = mean(p.query_id, Variant.A), mean(p.query_id, Variant.B)
                if score_a is None or score_b is None:
                    excluded.add(p.query_id)
                else:
                    pairs.append((score_a, score_b, p.verdict))
            series = implicit_pir(ds, measure, endpoint, direction)
            assert series.excluded == len(excluded), (endpoint, direction, measure)
            for cell in series.cells:
                assert cell == pir(pairs, cell.threshold), (endpoint, direction, measure)

    def test_session_file_order_cannot_move_a_cell(self, tmp_path, capsys):
        # Summed in file order, float means printed 0.6451 at t = 3 here and 0.6420 shuffled.
        write_dataset(generate_synthetic(SynthSpec(200, 10, 2, n_preferences=2000)), tmp_path)
        outputs = []
        for shuffled in (False, True):
            if shuffled:
                path = tmp_path / "sessions.tsv"
                header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
                random.Random(2).shuffle(records)
                path.write_text(header + "".join(records), encoding="utf-8")
            assert main(["implicit", str(tmp_path), "--measure", "mean-click-rank"]) == 0
            outputs.append(capsys.readouterr())
        assert "3.0000\t0.6420\n" in outputs[0].out
        assert outputs[1] == outputs[0]

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
            total = sum(len(s.clicks) for s in ds.sessions if s.variant is variant)
            assert total_by_rank == total

    def test_per_rank_relevance_and_grade_mix(self):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        stats = descriptive_stats(ds)
        a_stats = stats.variants[Variant.A]
        assert a_stats.mean_relevance_by_rank == {1: 1.0, 2: 1.0, 3: 0.0}
        assert a_stats.grade_counts_by_rank[1] == {1: 1}
        assert a_stats.grade_counts_by_rank[3] == {6: 1}

    def test_stats_do_not_depend_on_list_pair_order(self):
        # each per-rank mean is an exact sum over the queries; a float sum in list-pair
        # order moved 272 of these values in the last bit over 20 shuffles
        ds = generate_synthetic(SynthSpec(40, 5, 3, n_preferences=80, rater_noise=0.3))
        want = descriptive_stats(ds)
        rng = random.Random(0)
        for _ in range(20):
            pairs = list(ds.list_pairs)
            rng.shuffle(pairs)
            assert descriptive_stats(dataclasses.replace(ds, list_pairs=tuple(pairs))) == want

    def test_query_type_breakdown(self):
        ds = generate_synthetic(SynthSpec(n_queries=10, n_raters=2, seed=4))
        stats = descriptive_stats(ds)
        assert sum(s.queries for s in stats.query_types.values()) == 10
        assert "informational" in stats.query_types
        for type_stats in stats.query_types.values():
            assert type_stats.mean_terms > 0
