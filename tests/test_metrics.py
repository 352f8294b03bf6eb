"""Metric formula tests against hand-computed oracles and published worked examples."""

import math
import random

import pytest

from prefeval.metrics import (
    ApNorm,
    average_precision,
    dcg,
    err,
    esl,
    ideal_ranking,
    ndcg,
    precision_at,
    reciprocal_rank,
)
from prefeval.scales import DiscountFunction, DiscountKind

NONE = DiscountFunction(DiscountKind.NONE)
LOG2 = DiscountFunction(DiscountKind.LOG2)
RANK = DiscountFunction(DiscountKind.RANK)
SQUARE = DiscountFunction(DiscountKind.SQUARE)

ROW_A = [1.0, 1.0, 0.0, 1.0, 0.0]
ROW_B = [0.0, 1.0, 1.0, 1.0, 0.0]  # the CG/DCG companion row
ROW_LATE = [0.0, 0.0, 1.0, 1.0, 1.0]  # the AP companion row


def rnd_list(rng, n=None):
    n = n or rng.randint(1, 10)
    return [rng.randint(0, 5) / 5 for _ in range(n)]


class TestPrecision:
    def test_three_of_five(self):
        assert precision_at(ROW_A, 5) == pytest.approx(0.6)
        assert precision_at(ROW_LATE, 5) == pytest.approx(0.6)

    def test_all_zero(self):
        assert precision_at([0.0, 0.0, 0.0], 3) == 0.0

    def test_graded_mean(self):
        assert precision_at([1.0, 0.5, 0.0], 3) == pytest.approx(0.5)

    def test_discounted_matches_hand_sum(self):
        rng = random.Random(0)
        for _ in range(50):
            rels = rnd_list(rng)
            c = rng.randint(1, len(rels))
            want = sum(rels[i] / (i + 1) for i in range(c)) / c
            assert precision_at(rels, c, discount=RANK) == pytest.approx(want, abs=1e-12)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            precision_at([1.0], 2)
        with pytest.raises(ValueError):
            precision_at([1.0], 0)


class TestCumulatedGain:
    def test_prefix_values(self):
        assert [dcg(ROW_A, c, NONE) for c in range(1, 6)] == [1, 2, 2, 3, 3]
        assert [dcg(ROW_B, c, NONE) for c in range(1, 6)] == [0, 1, 2, 3, 3]

    def test_dcg_log2_prefixes(self):
        got = [dcg(ROW_A, c, LOG2) for c in range(1, 6)]
        assert got == [1.0, 2.0, 2.0, 2.5, 2.5]
        got = [dcg(ROW_B, c, LOG2) for c in range(1, 6)]
        for value, want in zip(got, [0.0, 1.0, 1.63, 2.13, 2.13]):
            assert value == pytest.approx(want, abs=0.005)

    def test_dcg_without_discount_is_cg(self):
        rng = random.Random(1)
        for _ in range(50):
            rels = rnd_list(rng)
            for c in range(1, len(rels) + 1):
                assert dcg(rels, c, NONE) == pytest.approx(math.fsum(rels[:c]))

    def test_dcg_hand_oracle(self):
        rng = random.Random(2)
        for _ in range(50):
            rels = rnd_list(rng)
            c = rng.randint(1, len(rels))
            want = sum(
                rels[i] * (1.0 if i + 1 < 2 else 1 / math.log2(i + 1)) for i in range(c)
            )
            assert dcg(rels, c, LOG2) == pytest.approx(want, abs=1e-12)


class TestNdcg:
    def test_perfect_order_scores_one(self):
        rng = random.Random(3)
        for _ in range(50):
            pool = rnd_list(rng)
            if not any(pool):
                continue
            ordered = sorted(pool, reverse=True)
            assert ndcg(ordered, pool, len(pool), LOG2) == 1.0

    def test_hand_value(self):
        want = (0.2 + 1.0 + 0.6 / math.log2(3)) / (1.0 + 0.6 + 0.2 / math.log2(3))
        assert ndcg([0.2, 1.0, 0.6], [1.0, 0.6, 0.2], 3, LOG2) == pytest.approx(want)
        assert want == pytest.approx(0.914, abs=5e-4)

    def test_zero_pool_is_excluded_query(self):
        assert ndcg([0.0, 0.0], [0.0, 0.0], 2, LOG2) is None
        assert ndcg([1.0, 0.0], [], 2, LOG2) is None

    def test_ideal_ranking_truncates(self):
        assert ideal_ranking([0.2, 1.0, 0.6, 0.8], 2) == [1.0, 0.8]

    def test_pool_smaller_than_cutoff(self):
        # only one judged value available: ideal is just that value
        assert ndcg([1.0, 0.0], [1.0], 2, NONE) == pytest.approx(1.0)


class TestAveragePrecision:
    def test_worked_example_rank_discount(self):
        ap1 = average_precision(ROW_A, 5, RANK, ApNorm.BY_KNOWN_RELEVANT, known_relevant=3)
        ap2 = average_precision(ROW_LATE, 5, RANK, ApNorm.BY_KNOWN_RELEVANT, known_relevant=3)
        assert ap1 == pytest.approx((1 + 1 + 3 / 4) / 3) == pytest.approx(0.9167, abs=5e-4)
        assert ap2 == pytest.approx((1 / 3 + 2 / 4 + 3 / 5) / 3) == pytest.approx(0.4778, abs=5e-4)
        assert (ap1 + ap2) / 2 == pytest.approx(0.6972, abs=5e-4)

    def test_all_zero(self):
        assert average_precision([0.0] * 4, 4, RANK, ApNorm.BY_EVALUATED_COUNT) == 0.0

    def test_graded_no_discount_may_exceed_one(self):
        got = average_precision([1.0, 0.8], 2, NONE, ApNorm.BY_EVALUATED_COUNT)
        assert got == pytest.approx(1.22)

    def test_classical_ap_oracle(self):
        # binary rels, rank discount, known-relevant divisor: textbook AP
        rng = random.Random(4)
        for _ in range(50):
            rels = [float(rng.randint(0, 1)) for _ in range(rng.randint(1, 10))]
            if not any(rels):
                continue
            relevant = int(sum(rels))
            hits = 0
            want = 0.0
            for i, rel in enumerate(rels):
                if rel:
                    hits += 1
                    want += hits / (i + 1)
            want /= relevant
            got = average_precision(rels, len(rels), RANK, ApNorm.BY_KNOWN_RELEVANT,
                                    known_relevant=relevant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_known_relevant_required(self):
        assert average_precision([1.0], 1, RANK, ApNorm.BY_KNOWN_RELEVANT) is None
        assert average_precision([1.0], 1, RANK, ApNorm.BY_KNOWN_RELEVANT, known_relevant=0) is None


class TestErr:
    def test_all_zero(self):
        assert err([0.0, 0.0], 2, RANK) == 0.0

    def test_single_perfect_result(self):
        assert err([1.0], 1, RANK) == pytest.approx(31 / 32)
        assert err([1.0], 1, SQUARE) == pytest.approx(31 / 32)

    def test_three_term_hand_expansion(self):
        want = 31 / 32 + (1 / 3) * (1 / 32) * (7 / 32)
        assert err([1.0, 0.0, 0.6], 3, RANK) == pytest.approx(want)
        assert want == pytest.approx(0.9710, abs=5e-5)

    def test_naive_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            rels = rnd_list(rng)
            c = rng.randint(1, len(rels))
            want = 0.0
            for r in range(1, c + 1):
                prob = (2 ** (5 * rels[r - 1]) - 1) / 2 ** 5
                damp = 1.0
                for i in range(1, r):
                    damp *= 1 - (2 ** (5 * rels[i - 1]) - 1) / 2 ** 5
                want += (1 / r) * damp * prob
            assert err(rels, c, RANK) == pytest.approx(want, abs=1e-12)


class TestReciprocalRank:
    @pytest.mark.parametrize("f", [NONE, LOG2, RANK, SQUARE], ids=lambda f: f.label())
    def test_first_rank_hit(self, f):
        assert reciprocal_rank([0.2, 0.0], 2, f) == 1.0

    def test_no_relevant_result(self):
        assert reciprocal_rank([0.0, 0.0, 0.0], 3, RANK) == 0.0

    def test_fourth_rank_with_rank_discount(self):
        assert reciprocal_rank([0.0, 0.0, 0.0, 0.6], 4, RANK) == 0.25


class TestEsl:
    @pytest.mark.parametrize("f", [NONE, LOG2, RANK, SQUARE], ids=lambda f: f.label())
    @pytest.mark.parametrize("c", [1, 3, 5])
    def test_perfect_first_result(self, f, c):
        rels = [1.0] + [0.0] * (c - 1)
        assert esl(rels, c, f, n=1) == 1.0

    def test_all_zero_scores_zero(self):
        for c in (1, 2, 7):
            assert esl([0.0] * c, c, RANK, n=1) == 0.0

    def test_half_relevant_everywhere(self):
        assert esl([0.5, 0.5], 2, NONE, n=1) == pytest.approx(0.5)

    def test_target_never_reached_uses_cutoff(self):
        # reaches 0.4 of the 2.0 target; score counts all c ranks
        got = esl([0.2, 0.2], 2, NONE, n=2)
        assert got == pytest.approx(1 - (2 - 0.4) / 2)

    def test_requires_positive_target(self):
        with pytest.raises(ValueError):
            esl([1.0], 1, NONE, n=0)

    def test_naive_oracle(self):
        rng = random.Random(6)
        for _ in range(50):
            rels = rnd_list(rng)
            c = rng.randint(1, len(rels))
            n = rng.choice([0.5, 1, 1.5, 2.5])
            reach = c
            acc = 0.0
            for i in range(c):
                acc += rels[i]
                if acc >= n:
                    reach = i + 1
                    break
            gained = sum(rels[i] / (i + 1) for i in range(reach))
            want = 1 - (reach - gained) / c
            assert esl(rels, c, RANK, n=n) == pytest.approx(want, abs=1e-12)


class TestUnitRange:
    def test_bounded_metrics_stay_in_unit_interval(self):
        rng = random.Random(8)
        for _ in range(100):
            rels = rnd_list(rng)
            c = rng.randint(1, len(rels))
            pool = rels[:c] + rnd_list(rng, 3)
            assert 0.0 <= precision_at(rels, c) <= 1.0
            assert 0.0 <= err(rels, c, RANK) <= 1.0
            assert 0.0 <= reciprocal_rank(rels, c, RANK) <= 1.0
            assert 0.0 <= esl(rels, c, NONE, n=1.0) <= 1.0
            if any(pool):
                assert 0.0 <= ndcg(rels, pool, c, LOG2) <= 1.0


class TestSuffixInvariance:
    def test_values_beyond_cutoff_do_not_matter(self):
        rng = random.Random(7)
        for _ in range(30):
            rels = rnd_list(rng, n=8)
            c = rng.randint(1, 7)
            tail_shuffled = rels[:c] + rels[c:][::-1]
            pool = rels[:c]
            for compute in (
                lambda v: precision_at(v, c, discount=LOG2),
                lambda v: dcg(v, c, NONE),
                lambda v: dcg(v, c, RANK),
                lambda v: average_precision(v, c, RANK),
                lambda v: err(v, c, SQUARE),
                lambda v: reciprocal_rank(v, c, RANK),
                lambda v: esl(v, c, RANK, n=1),
            ):
                assert compute(rels) == compute(tail_shuffled)
            if any(pool):
                assert ndcg(rels, pool, c, LOG2) == ndcg(tail_shuffled, pool, c, LOG2)
