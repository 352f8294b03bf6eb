import copy
import dataclasses
import inspect
import pickle

import pytest

from conftest import binary_pair_dataset, judgment_rows, make_query, make_session, with_judgments
from prefeval.data_io import FILE_NAMES, ParseError, load_dataset, write_dataset
from prefeval.dataset import (
    Click,
    PreferenceJudgment,
    RankedListPair,
    ValidationError,
    ValidationMode,
    Variant,
    Verdict,
    validate,
)

STRICT = ValidationMode.STRICT
LENIENT = ValidationMode.LENIENT


@pytest.fixture
def well_formed():
    ds = binary_pair_dataset(
        [("q1", 3, 2, Verdict.A), ("q2", 1, 4, Verdict.B)], list_len=10
    )
    session = make_session(qid="q1", start=100, end=160, click_ranks_ts=((1, 110), (3, 150)))
    return dataclasses.replace(ds, sessions=(session,))


def kinds(report):
    return {issue.kind for issue in report.issues}


class TestWellFormed:
    def test_strict_report_is_empty(self, well_formed):
        report = validate(well_formed, STRICT)
        assert report.issues == ()
        assert report.ok

    def test_validate_is_idempotent_and_read_only(self, well_formed):
        first = validate(well_formed, STRICT)
        second = validate(well_formed, STRICT)
        assert first == second


class TestSessionInvariants:
    def test_click_at_rank_zero(self, well_formed):
        bad = make_session(qid="q2", start=10, end=50, click_ranks_ts=((0, 20),))
        ds = dataclasses.replace(well_formed, sessions=well_formed.sessions + (bad,))
        report = validate(ds, STRICT)
        assert "click-rank" in kinds(report)
        assert not report.ok

    def test_click_outside_session_window(self, well_formed):
        bad = make_session(qid="q2", start=10, end=50, click_ranks_ts=((1, 60),))
        ds = dataclasses.replace(well_formed, sessions=well_formed.sessions + (bad,))
        assert "click-time" in kinds(validate(ds, STRICT))

    def test_start_after_end(self, well_formed):
        bad = make_session(qid="q2", start=100, end=50)
        ds = dataclasses.replace(well_formed, sessions=well_formed.sessions + (bad,))
        assert "time-order" in kinds(validate(ds, STRICT))


class TestJudgmentCoverage:
    def test_unjudged_listed_result_is_strict_error(self, well_formed):
        # drop the judgment of the result at rank 3 of q1 variant A
        victim = well_formed.pair_by_query["q1"].variant_a[2]
        ds = with_judgments(well_formed, [row for row in judgment_rows(well_formed)
                                          if row[:2] != ("q1", victim)])
        report = validate(ds, STRICT)
        assert "missing-judgment" in kinds(report)
        assert not report.ok
        assert victim in report.errors[0].message

        lenient = validate(ds, LENIENT)
        assert lenient.ok
        assert "missing-judgment" in {w.kind for w in lenient.warnings}

    def test_coverage_only_applies_within_cutoff(self, well_formed):
        # drop the judgment of variant A's rank-10 result: a violation at
        # cut-off 10, out of scope at cut-off 9
        victim = well_formed.pair_by_query["q1"].variant_a[9]
        ds = with_judgments(well_formed, [row for row in judgment_rows(well_formed)
                                          if row[:2] != ("q1", victim)])
        assert not validate(ds, STRICT, max_cutoff=10).ok
        assert validate(ds, STRICT, max_cutoff=9).ok


class TestReferences:
    def test_dangling_query_in_pair(self, well_formed):
        extra = RankedListPair(query_id="ghost", variant_a=("x",) * 10, variant_b=("y",) * 10)
        ds = dataclasses.replace(well_formed, list_pairs=well_formed.list_pairs + (extra,))
        assert "dangling-query" in kinds(validate(ds, LENIENT))

    def test_judgment_for_unlisted_result(self, well_formed):
        ds = with_judgments(well_formed, [*judgment_rows(well_formed), ("q1", "nowhere", "r1", 2)])
        assert "dangling-result" in kinds(validate(ds, STRICT))

    def test_grade_out_of_range(self, well_formed):
        # the grade rule conflation applies: an int, not a bool, in 1..6
        for grade in (7, 0, "3", True, 3.0):
            extra = ("q1", well_formed.pair_by_query["q1"].variant_a[0], "r9", grade)
            ds = with_judgments(well_formed, [*judgment_rows(well_formed), extra])
            assert "grade-range" in kinds(validate(ds, STRICT)), grade

    def test_grade_and_session_messages(self, well_formed):
        class Grade(int):
            pass

        rid = well_formed.pair_by_query["q1"].variant_a[0]
        extra = [("q1", rid, f"r{9 + i}", grade)
                 for i, grade in enumerate((7, 0, "3", True, 3.0, Grade(2)))]
        bad = make_session(qid="ghost", rater="r2", variant=Variant.B, start=50, end=40,
                           click_ranks_ts=((0, 45), (2, 60)))
        ds = dataclasses.replace(with_judgments(well_formed, [*judgment_rows(well_formed), *extra]),
                                 sessions=well_formed.sessions + (bad,))
        judgment = f"error: grade-range: judgment ('q1', '{rid}', "
        session = "session ('ghost', 'r2', B)"
        assert [str(issue) for issue in validate(ds, STRICT).issues] == [
            f"{judgment}'r9'): grade must be 1..6, got 7",
            f"{judgment}'r10'): grade must be 1..6, got 0",
            f"{judgment}'r11'): grade must be an integer, got '3'",
            f"{judgment}'r12'): grade must be an integer, got True",
            f"{judgment}'r13'): grade must be an integer, got 3.0",
            f"error: dangling-query: {session} references an unknown query",
            f"error: time-order: {session} starts after it ends",
            f"error: click-rank: {session} has a click at rank 0",
            f"error: click-time: {session} has a click outside the session interval",
            f"error: click-time: {session} has a click outside the session interval",
        ]

    @pytest.mark.parametrize("mode", [STRICT, LENIENT])
    def test_verdict_on_query_without_list_pair(self, well_formed, mode):
        ds = dataclasses.replace(well_formed, list_pairs=well_formed.list_pairs[1:])
        report = validate(ds, mode)
        assert [str(issue) for issue in report.errors] == [
            "error: unpaired-preference: rater 'r1' has a verdict for query 'q1',"
            " which has no list pair"]


class TestGradeIndex:
    def test_validation_that_passes_leaves_its_index(self, well_formed):
        assert "grades" not in well_formed.__dict__
        validate(well_formed, STRICT)
        index = well_formed.__dict__["grades"]
        assert index[("q1", well_formed.list_pairs[0].variant_a[0])] == {"r1": 1}
        assert index is well_formed.judgments

    def test_validation_that_fails_leaves_none(self, well_formed):
        ds = with_judgments(well_formed, [*judgment_rows(well_formed), ("q1", "q1-a01", "r2", 7)])
        assert not validate(ds, LENIENT).ok
        assert "grades" not in ds.__dict__
        with pytest.raises(ValidationError, match="grade-range"):
            ds.grades

    @pytest.mark.parametrize("mode, severity", [(STRICT, "error"), (LENIENT, "warning")])
    def test_an_empty_rater_map_is_not_judged(self, well_formed, mode, severity):
        # a file cannot hold it: a bad-field, and the listed result it keys has no judgment
        rid = well_formed.pair_by_query["q1"].variant_a[0]
        ds = dataclasses.replace(well_formed, judgments={**well_formed.judgments, ("q1", rid): {}})
        assert [(i.severity, i.kind) for i in validate(ds, mode).issues] == [
            (severity, "missing-judgment"), ("error", "bad-field")]

    def test_equality_compares_the_maps_not_their_order(self, well_formed):
        reordered = {key: dict(reversed(raters.items()))
                     for key, raters in reversed(well_formed.judgments.items())}
        assert list(reordered) != list(well_formed.judgments)
        assert dataclasses.replace(well_formed, judgments=reordered) == well_formed
        changed = with_judgments(well_formed, [(*row[:3], 7 - row[3])
                                               for row in judgment_rows(well_formed)])
        assert changed != well_formed

    def test_a_dataset_has_no_hash(self, well_formed):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(well_formed)

    def test_unvalidated_dataset_is_validated_leniently_once(self, well_formed, monkeypatch):
        # a missing judgment is no error in lenient mode, at any cut-off
        ds = with_judgments(well_formed, judgment_rows(well_formed)[1:])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return validate(*args, **kwargs)

        monkeypatch.setattr("prefeval.dataset.validate", counted)
        assert ds.grades is ds.grades
        assert calls == [(LENIENT,)]


class TestDuplicates:
    @pytest.mark.parametrize("placement", ["adjacent", "last", "headerless"])
    def test_duplicate_judgment(self, well_formed, tmp_path, placement):
        # the grade index holds one grade per (query, result, rater), so a second line for
        # one is malformed, wherever it stands and however the file is spelled
        write_dataset(well_formed, tmp_path)
        path = tmp_path / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines(keepends=True)
        again = lines[1].replace("\t1\t", "\t2\t")
        at = 2 if placement == "adjacent" else len(lines)
        lines.insert(at, again)
        if placement == "headerless":
            lines = [line.replace("\t", " ") for line in lines[1:]]
            at -= 1
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path)
        assert str(exc.value) == f"{path}:{at + 1}: rater 'r1' judged ('q1', 'q1-a01') twice"

    def test_duplicate_preference(self, well_formed):
        ds = dataclasses.replace(
            well_formed, preferences=well_formed.preferences + (well_formed.preferences[0],)
        )
        assert "duplicate-preference" in kinds(validate(ds, STRICT))

    def test_duplicate_query(self, well_formed):
        ds = dataclasses.replace(well_formed, queries=well_formed.queries + (make_query("q1"),))
        assert "duplicate-query" in kinds(validate(ds, STRICT))

    def test_duplicate_pair(self, well_formed):
        ds = dataclasses.replace(
            well_formed, list_pairs=well_formed.list_pairs + (well_formed.list_pairs[0],)
        )
        assert "duplicate-pair" in kinds(validate(ds, STRICT))

    def test_duplicate_result_within_variant(self, well_formed):
        pair = well_formed.list_pairs[0]
        twisted = dataclasses.replace(
            pair, variant_a=(pair.variant_a[0],) + pair.variant_a[:9]
        )
        ds = dataclasses.replace(
            well_formed, list_pairs=(twisted,) + well_formed.list_pairs[1:]
        )
        assert "duplicate-result" in kinds(validate(ds, STRICT))

    def test_duplicate_session(self, well_formed, tmp_path):
        # one per variant is fine; a second A session of the same rater is not, as at load
        again = dataclasses.replace(well_formed.sessions[0], start_ts=90)
        other_variant = dataclasses.replace(well_formed.sessions[0], variant=Variant.B)
        assert validate(dataclasses.replace(
            well_formed, sessions=well_formed.sessions + (other_variant,)), STRICT).ok
        ds = dataclasses.replace(well_formed, sessions=well_formed.sessions + (again,))
        report = validate(ds, STRICT)
        assert [str(i) for i in report.issues if i.kind == "duplicate-session"] == [
            "error: duplicate-session: rater 'r1' has more than one A session for query 'q1'"]
        write_dataset(ds, tmp_path)
        with pytest.raises(ValueError, match="duplicate session"):
            load_dataset(tmp_path)


class TestListLength:
    def test_short_list_flagged_against_cutoff(self, well_formed):
        report = validate(well_formed, STRICT, max_cutoff=10)
        assert report.ok
        pair = well_formed.list_pairs[0]
        short = dataclasses.replace(pair, variant_b=pair.variant_b[:4])
        ds = dataclasses.replace(well_formed, list_pairs=(short,) + well_formed.list_pairs[1:])
        assert "short-list" in kinds(validate(ds, STRICT))
        assert "short-list" not in kinds(validate(ds, STRICT, max_cutoff=4))


RECORDS = [
    make_query("q1"),
    RankedListPair(query_id="q1", variant_a=("d1", "d2"), variant_b=("d2", "d1")),
    PreferenceJudgment(query_id="q1", rater_id="r1", verdict=Verdict.A),
    Click(rank=1, ts=110),
    make_session(click_ranks_ts=((1, 110),), satisfied=False),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestRecordTypes:
    def test_frozen_and_slotted(self, record):
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        assert not hasattr(record, "__dict__")

    def test_equal_copies_hash_and_compare_equal(self, record):
        copy = dataclasses.replace(record)
        assert copy == record and copy is not record
        assert hash(copy) == hash(record)
        assert len({record, copy}) == 1

    def test_replace_changes_one_field(self, record):
        field = dataclasses.fields(record)[0]
        value = getattr(record, field.name)
        changed = dataclasses.replace(record, **{field.name: value + value})
        assert changed != record
        assert getattr(changed, field.name) == value + value
        assert dataclasses.replace(changed, **{field.name: value}) == record

    def test_pickle_round_trip(self, record):
        assert pickle.loads(pickle.dumps(record)) == record

    def test_signature_is_the_fields_with_their_defaults(self, record):
        params = inspect.signature(type(record)).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(record)]

    def test_positional_and_keyword_construction_agree(self, record):
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert type(record)(*values.values()) == type(record)(**values) == record

    def test_omitted_defaults_equal_the_field_defaults(self, record):
        fields = dataclasses.fields(record)
        built = type(record)(**{f.name: getattr(record, f.name) for f in fields
                                if f.default is dataclasses.MISSING})
        assert [getattr(built, f.name) for f in fields] == [
            getattr(record, f.name) if f.default is dataclasses.MISSING else f.default
            for f in fields]

    @pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r, 0)),
                                            copy.copy, copy.deepcopy],
                             ids=["pickle-0", "copy", "deepcopy"])
    def test_copies_are_equal(self, record, round_trip):
        copied = round_trip(record)
        assert copied == record and type(copied) is type(record)

    def test_missing_or_unknown_argument_raises(self, record):
        values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        first = next(iter(values))
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
            type(record)(**{n: v for n, v in values.items() if n != first})
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            type(record)(**values, bogus=1)
        with pytest.raises(TypeError, match="positional arguments"):
            type(record)(*values.values(), 1)


def test_loaded_dataset_pickles_equal(tmp_path, well_formed):
    write_dataset(well_formed, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.grades and loaded.pair_by_query  # filled caches travel too
    restored = pickle.loads(pickle.dumps(loaded))
    assert restored == loaded == well_formed
    assert restored.grades == loaded.grades
    assert validate(restored, STRICT) == validate(loaded, STRICT)
