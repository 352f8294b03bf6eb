import math

import pytest

from conftest import RATER, binary_pair_dataset, judgment_rows, with_judgments
from prefeval.config import Metric, MetricConfig
from prefeval.data_io import load_click_weights
from prefeval.dataset import ValidationError, Verdict
from prefeval.scales import (
    EXAMPLE_CLICK_WEIGHTS,
    UNIT_NUMERATORS,
    DiscountFunction,
    DiscountKind,
    RelevanceScale,
    check_grade,
)
from prefeval.scoring import resolve_preferences

def units(scale: RelevanceScale) -> tuple[float, ...]:
    """Each grade's unit under ``scale``, ``k / den`` from its numerator table."""
    numerators, den = UNIT_NUMERATORS[scale]
    return tuple(k / den for k in numerators)


ALL_KINDS = [
    DiscountFunction(DiscountKind.NONE),
    DiscountFunction(DiscountKind.LOG5),
    DiscountFunction(DiscountKind.LOG2),
    DiscountFunction(DiscountKind.ROOT),
    DiscountFunction(DiscountKind.RANK),
    DiscountFunction(DiscountKind.SQUARE),
    DiscountFunction.click_based(),
]


class TestGradeToUnit:
    """The six-point grade -> unit rule, which is the SIX_POINT table."""

    @pytest.mark.parametrize("grade,unit", [(1, 1.0), (2, 0.8), (3, 0.6), (4, 0.4), (5, 0.2), (6, 0.0)])
    def test_linear_mapping(self, grade, unit):
        assert units(RelevanceScale.SIX_POINT)[grade - 1] == pytest.approx(unit)

    @pytest.mark.parametrize("bad", [0, 7, -1, 2.5, "3", True])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_grade(bad)


class TestConflate:
    """Conflation onto each scale is that scale's row of unit numerators."""

    def test_six_point_matches_grade_to_unit(self):
        for g in range(1, 7):
            assert units(RelevanceScale.SIX_POINT)[g - 1] == (6 - g) / 5

    @pytest.mark.parametrize(
        "grade,scale,unit",
        [
            (3, RelevanceScale.R2_3, 1.0),
            (4, RelevanceScale.R2_3, 0.0),
            (5, RelevanceScale.R2_5, 1.0),
            (6, RelevanceScale.R2_5, 0.0),
            (1, RelevanceScale.R2_1, 1.0),
            (2, RelevanceScale.R2_1, 0.0),
            (1, RelevanceScale.R3_2, 1.0),
            (2, RelevanceScale.R3_2, 1.0),
            (3, RelevanceScale.R3_2, 0.5),
            (4, RelevanceScale.R3_2, 0.5),
            (5, RelevanceScale.R3_2, 0.0),
            (1, RelevanceScale.R3_1, 1.0),
            (3, RelevanceScale.R3_1, 0.5),
            (5, RelevanceScale.R3_1, 0.5),
            (6, RelevanceScale.R3_1, 0.0),
        ],
    )
    def test_conflation_table(self, grade, scale, unit):
        assert units(scale)[grade - 1] == unit

    @pytest.mark.parametrize("scale", list(RelevanceScale))
    def test_monotone_non_increasing_in_grade(self, scale):
        values = units(scale)
        assert len(values) == 6
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_grade(self):
        with pytest.raises(ValueError):
            check_grade(0)

    @pytest.mark.parametrize("scale", list(RelevanceScale))
    @pytest.mark.parametrize("bad", [0, 7, -1, 2.5, "3", True])
    def test_rejects_bad_grade_on_every_scale(self, scale, bad):
        # the tables are read unchecked (numerators[-1] is grade 6's), so a bad
        # grade must fail validation before the engine reads any scale's table
        with pytest.raises(ValueError):
            check_grade(bad)
        ds = binary_pair_dataset([("q1", 1, 1, Verdict.A)], list_len=1)
        first, *rest = judgment_rows(ds)
        ds = with_judgments(ds, [(*first[:3], bad), *rest])
        cfg = MetricConfig(Metric.PRECISION, DiscountFunction(DiscountKind.NONE), scale=scale)
        with pytest.raises(ValidationError, match="grade-range"):
            resolve_preferences(ds, cfg, (1,), readers=[("q1", RATER, None)])


class TestDiscounts:
    def test_log2_at_1024_is_one_tenth(self):
        assert DiscountFunction(DiscountKind.LOG2).weight(1024) == pytest.approx(0.1)

    def test_square_third_result_one_ninth(self):
        assert DiscountFunction(DiscountKind.SQUARE).weight(3) == pytest.approx(1 / 9)

    def test_none_is_identity(self):
        assert DiscountFunction(DiscountKind.NONE).weight(7) == 1.0

    def test_log5_flat_through_its_base(self):
        f = DiscountFunction(DiscountKind.LOG5)
        assert [f.weight(r) for r in range(1, 6)] == [1.0] * 5
        assert f.weight(25) == pytest.approx(1 / math.log(25, 5)) == pytest.approx(0.5)

    def test_log2_flat_prefix_and_continuity(self):
        f = DiscountFunction(DiscountKind.LOG2)
        assert f.weight(1) == 1.0
        assert f.weight(2) == 1.0
        assert f.weight(3) == pytest.approx(1 / math.log2(3))

    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label())
    def test_rank_one_never_discounted(self, f):
        assert f.weight(1) == 1.0

    @pytest.mark.parametrize("f", ALL_KINDS[:-1], ids=lambda f: f.label())
    def test_non_click_kinds_monotone(self, f):
        weights = [f.weight(r) for r in range(1, 101)]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
        assert all(0 < w <= 1 for w in weights)

    def test_click_table_may_rebound(self):
        f = DiscountFunction.click_based()
        assert f.weight(3) > f.weight(2)
        assert f.weight(7) > f.weight(6)

    def test_steepness_ordering_where_universal(self):
        # square <= rank <= root <= log5 <= none and rank <= log2 <= log5 hold
        # at every rank; root and log2 cross twice (ranks 4 and 16), so that
        # pair is only approximately ordered.
        square, rank_, root = (DiscountFunction(DiscountKind.SQUARE),
                               DiscountFunction(DiscountKind.RANK),
                               DiscountFunction(DiscountKind.ROOT))
        log2_, log5_, none = (DiscountFunction(DiscountKind.LOG2),
                              DiscountFunction(DiscountKind.LOG5),
                              DiscountFunction(DiscountKind.NONE))
        for r in range(2, 201):
            assert square.weight(r) <= rank_.weight(r) <= root.weight(r)
            assert root.weight(r) <= log5_.weight(r) <= none.weight(r)
            assert rank_.weight(r) <= log2_.weight(r) <= log5_.weight(r)

    def test_root_log2_crossing(self):
        root, log2_ = DiscountFunction(DiscountKind.ROOT), DiscountFunction(DiscountKind.LOG2)
        assert root.weight(9) > log2_.weight(9)
        assert root.weight(3) < log2_.weight(3)

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError):
            DiscountFunction(DiscountKind.RANK).weight(0)

    @pytest.mark.parametrize("f", ALL_KINDS, ids=lambda f: f.label())
    def test_weight_table_matches_weight(self, f):
        assert f.weights(3) == tuple(f.weight(r) for r in range(1, 4))
        assert f.weights(10) == tuple(f.weight(r) for r in range(1, 11))
        assert f.weights(2)[:2] == (f.weight(1), f.weight(2))

    def test_weight_table_stops_at_missing_click_rank(self):
        f = DiscountFunction.click_based({1: 1.0, 2: 0.5})
        assert f.weights(2) == (1.0, 0.5)
        with pytest.raises(ValueError):
            f.weights(3)



class TestDiscountHash:
    """Discounts hash by kind and compare click tables, so equal ones key one dict entry."""

    def test_equal_click_discounts_hash_equal_and_key_a_dict(self):
        first = DiscountFunction.click_based()
        second = DiscountFunction.click_based(dict(reversed(EXAMPLE_CLICK_WEIGHTS.items())))
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert {first: "click"}[second] == "click"
        assert len({first, second, DiscountFunction(DiscountKind.RANK),
                    DiscountFunction(DiscountKind.RANK)}) == 2

    def test_configs_with_click_discounts_hash(self):
        configs = [MetricConfig(Metric.NDCG, DiscountFunction.click_based()) for _ in range(2)]
        assert hash(configs[0]) == hash(configs[1])
        assert len(set(configs)) == 1

    def test_different_click_tables_stay_unequal(self):
        other = {**EXAMPLE_CLICK_WEIGHTS, 2: 0.5}
        assert DiscountFunction.click_based() != DiscountFunction.click_based(other)


class TestClickTable:
    def test_example_table_is_valid(self):
        f = DiscountFunction.click_based(EXAMPLE_CLICK_WEIGHTS)
        assert f.weight(1) == 1.0

    def test_rank_outside_table_is_error(self):
        with pytest.raises(ValueError, match="no weight for rank"):
            DiscountFunction.click_based({1: 1.0, 2: 0.5}).weight(3)

    def test_requires_table(self):
        with pytest.raises(ValueError):
            DiscountFunction(DiscountKind.CLICK_BASED)

    def test_table_on_other_kind_rejected(self):
        with pytest.raises(ValueError):
            DiscountFunction(DiscountKind.RANK, {1: 1.0})

    @pytest.mark.parametrize("table", [{1: 0.9, 2: 0.5}, {1: 1.0, 2: 0.0}, {1: 1.0, 2: 1.5}, {0: 1.0}])
    def test_bad_tables_rejected(self, table):
        with pytest.raises(ValueError):
            DiscountFunction.click_based(table)

    def test_load_click_weights(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# rank weight\n1 1.0\n2 0.23\n3 0.25\n")
        table = load_click_weights(path)
        assert table == {1: 1.0, 2: 0.23, 3: 0.25}
        f = DiscountFunction.click_based(table)
        assert f.weight(2) == 0.23

    @pytest.mark.parametrize("body", ["1 1.0\n1 0.5\n", "1\n", "one 1.0\n", ""])
    def test_load_click_weights_rejects_malformed(self, tmp_path, body):
        path = tmp_path / "weights.txt"
        path.write_text(body)
        with pytest.raises(ValueError):
            load_click_weights(path)
