import dataclasses
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import binary_pair_dataset, judgment_rows, make_session, scored_pairs, with_judgments
from prefeval.data_io import (
    FILE_NAMES,
    ParseError,
    load_dataset,
    read_judgments,
    read_queries,
    write_dataset,
)
from prefeval.dataset import (
    Click,
    Language,
    QueryType,
    ValidationError,
    ValidationMode,
    Variant,
    Verdict,
    validate,
)
from prefeval.implicit import descriptive_stats
from prefeval.pir import pir
from prefeval.config import Metric, MetricConfig
from prefeval.scales import DiscountFunction, DiscountKind
from prefeval.synth import SynthSpec, generate_synthetic


# Every character a record field can hold: no tab, LF or CR, no lone surrogate.
FIELD_CHARS = st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r")
# Every query text or information need, and every id the id rule accepts (non-empty).
TEXT = st.text(FIELD_CHARS)
ID = st.text(FIELD_CHARS, min_size=1)
# (kind, id) of one id of each kind in a SynthSpec(3, 2, 1) dataset
ID_KINDS = [("query", "q002"), ("result", "q002-b03"), ("rater", "u01")]


@pytest.fixture
def round_trip_dataset():
    return generate_synthetic(
        SynthSpec(n_queries=6, n_raters=3, seed=17, n_preferences=12, rater_noise=0.1)
    )


class TestRoundTrip:
    def test_write_load_identity(self, tmp_path, round_trip_dataset):
        write_dataset(round_trip_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded == round_trip_dataset

    def test_write_is_byte_stable(self, tmp_path, round_trip_dataset):
        write_dataset(round_trip_dataset, tmp_path / "one")
        write_dataset(load_dataset(tmp_path / "one"), tmp_path / "two")
        for name in FILE_NAMES.values():
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_clicks_out_of_time_order_round_trip(self, tmp_path):
        """Clicks load in file order, so a session's clicks in any order round-trip."""
        ds = generate_synthetic(SynthSpec(6, 3, 3, n_preferences=12))
        ds = dataclasses.replace(ds, sessions=tuple(
            dataclasses.replace(s, clicks=(Click(rank=9, ts=s.clicks[0].ts), *s.clicks)[::-1])
            if s.clicks else s for s in ds.sessions))
        assert any(len(s.clicks) > 2 for s in ds.sessions)
        write_dataset(ds, tmp_path / "one")
        loaded = load_dataset(tmp_path / "one")
        assert loaded == ds
        write_dataset(loaded, tmp_path / "two")
        for name in FILE_NAMES.values():
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_writer_is_the_readers_inverse_for_records_out_of_canonical_order(self, tmp_path):
        """Records are written in the order the dataset holds them, so they load back in it."""
        ds = generate_synthetic(SynthSpec(6, 3, 3, n_preferences=12))

        def reverse(held):  # a tuple of records, or a (query, result) -> {rater: value} map
            if isinstance(held, tuple):
                return held[::-1]
            return {key: dict(reversed(raters.items())) for key, raters in reversed(held.items())}

        ds = dataclasses.replace(ds, **{
            field.name: reverse(getattr(ds, field.name)) for field in dataclasses.fields(ds)})
        assert ds.sessions and ds.queries[0].id > ds.queries[-1].id
        assert judgment_rows(ds)[0][:3] > judgment_rows(ds)[1][:3] > judgment_rows(ds)[-1][:3]
        write_dataset(ds, tmp_path / "one")
        loaded = load_dataset(tmp_path / "one")
        assert loaded == ds
        write_dataset(loaded, tmp_path / "two")
        for name in FILE_NAMES.values():
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_interleaved_judgments_are_regrouped_once(self, tmp_path, round_trip_dataset):
        # The grade index holds one rater map per (query, result), so lines that interleave
        # (query, result) groups load grouped; the first write groups them, and later ones
        # write the same bytes.
        write_dataset(round_trip_dataset, tmp_path / "in")
        path = tmp_path / "in" / FILE_NAMES["judgments"]
        header, *lines = path.read_text().splitlines(keepends=True)
        raters = len(round_trip_dataset.judgments[next(iter(round_trip_dataset.judgments))])
        assert raters > 1
        interleaved = lines[::raters] + [line for i, line in enumerate(lines) if i % raters]
        path.write_text(header + "".join(interleaved))
        loaded = load_dataset(tmp_path / "in")
        assert loaded == round_trip_dataset
        write_dataset(loaded, tmp_path / "one")
        assert (tmp_path / "one" / FILE_NAMES["judgments"]).read_text() == header + "".join(lines)
        write_dataset(load_dataset(tmp_path / "one"), tmp_path / "two")
        for name in FILE_NAMES.values():
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_table_fixture_round_trip(self, tmp_path, sample_pir_dataset):
        write_dataset(sample_pir_dataset, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded == sample_pir_dataset

    def test_worked_example_fixtures_load_strict(self, tmp_path, sample_pir_dataset,
                                                 two_query_map_dataset):
        write_dataset(sample_pir_dataset, tmp_path / "pir")
        write_dataset(two_query_map_dataset, tmp_path / "map")
        assert load_dataset(tmp_path / "pir", mode=ValidationMode.STRICT) is not None
        assert load_dataset(tmp_path / "map", mode=ValidationMode.STRICT,
                            max_cutoff=5) is not None


FIXTURES = Path(__file__).parent / "fixtures"


class TestShippedFixtures:
    """The checked-in fixture files are the cross-implementation anchor:
    they must parse, validate strictly, and equal the in-code builders."""

    def test_pir_sample_matches_builder(self, sample_pir_dataset):
        assert load_dataset(FIXTURES / "pir_sample") == sample_pir_dataset

    def test_map_sample_matches_builder(self, two_query_map_dataset):
        assert load_dataset(FIXTURES / "map_sample", max_cutoff=5) == two_query_map_dataset


class TestParseRejections:
    def write_base(self, tmp_path, dataset):
        write_dataset(dataset, tmp_path)

    def test_grade_seven_rejected_with_location(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["judgments"]
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 2)[0] + "\t7\t-"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert str(path) in str(exc.value)
        assert ":2:" in str(exc.value)

    def test_bad_verdict(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["preferences"]
        path.write_text(path.read_text().replace("\tA", "\tMAYBE"))
        with pytest.raises(ParseError, match="verdict"):
            load_dataset(tmp_path, max_cutoff=3)

    def test_zero_rank_click(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        ds = dataclasses.replace(ds, sessions=(make_session(qid="q1", click_ranks_ts=((1, 110),)),))
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["clicks"]
        path.write_text(path.read_text().replace("\t1\t110", "\t0\t110"))
        with pytest.raises(ParseError, match="rank"):
            load_dataset(tmp_path, max_cutoff=3)

    def test_non_contiguous_ranks(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["lists"]
        text = path.read_text().replace("q1\tA\t2\t", "q1\tA\t9\t")
        path.write_text(text)
        with pytest.raises(ParseError, match="contiguous") as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert exc.value.line == 2  # the first line of q1's variant A
        assert f"{path}:2:" in str(exc.value)

    def test_non_contiguous_ranks_report_the_offending_variant(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A), ("q2", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["lists"]
        lines = path.read_text().splitlines()
        first_b = lines.index("q2\tB\t1\tq2-b01") + 1
        path.write_text(path.read_text().replace("q2\tB\t3\t", "q2\tB\t4\t"))
        with pytest.raises(ParseError, match="'q2' variant B ranks are not contiguous") as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert exc.value.line == first_b

    def test_wrong_header_kind(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["queries"]
        path.write_text(path.read_text().replace("queries", "judgments", 1))
        with pytest.raises(ParseError, match="declares"):
            load_dataset(tmp_path, max_cutoff=3)

    def test_headerless_queries_rejected(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["queries"]
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(tmp_path, max_cutoff=3)

    def test_field_count_mismatch(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["preferences"]
        path.write_text(path.read_text().rstrip("\n") + "\textra\n")
        with pytest.raises(ParseError, match="fields"):
            load_dataset(tmp_path, max_cutoff=3)

    def test_orphan_click_rejected(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        ds = dataclasses.replace(ds, sessions=(make_session(qid="q1"),))
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["clicks"]
        orphan_line = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("q1\tr1\tB\t1\t110\n")
            fh.write("q1\tr1\tB\t2\t120\n")
        with pytest.raises(ParseError, match="unknown session") as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert exc.value.line == orphan_line  # the orphan session's first click
        assert f"{path}:{orphan_line}:" in str(exc.value)

    def test_clicks_without_a_session_file_rejected(self, tmp_path):
        session = make_session(qid="q1", click_ranks_ts=((2, 120), (1, 110)))
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(dataclasses.replace(ds, sessions=(session,)), tmp_path)
        (tmp_path / FILE_NAMES["sessions"]).unlink()
        with pytest.raises(ParseError, match="unknown session") as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert exc.value.line == 2  # the first click, below the header
        (tmp_path / FILE_NAMES["clicks"]).write_text("#prefeval\t1\tclicks\n")
        assert load_dataset(tmp_path, max_cutoff=3) == ds  # no click, no orphan

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["judgments"]
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"q1-a02", b"q1-a\xff2")
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="not valid UTF-8") as exc:
            load_dataset(tmp_path, max_cutoff=3)
        assert exc.value.line == 3
        assert str(exc.value).startswith(f"{path}:3: not valid UTF-8 (byte 0xff at offset ")


    @pytest.mark.parametrize("kind,index,field", [
        ("queries", 0, "id"),
        ("judgments", 0, "query_id"),
        ("judgments", 1, "result_id"),
        ("judgments", 2, "rater_id"),
        ("lists", 0, "query_id"),
        ("lists", 3, "result_id"),
        ("preferences", 0, "query_id"),
        ("preferences", 1, "rater_id"),
        ("sessions", 0, "query_id"),
        ("sessions", 1, "rater_id"),
        ("clicks", 0, "query_id"),
        ("clicks", 1, "rater_id"),
    ])
    def test_empty_id_rejected_with_location(self, tmp_path, round_trip_dataset, kind, index, field):
        write_dataset(round_trip_dataset, tmp_path)
        path = tmp_path / FILE_NAMES[kind]
        lines = path.read_text().splitlines()
        fields = lines[2].split("\t")
        fields[index] = ""
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path)
        assert str(exc.value) == f"{path}:3: {field} is empty"


class TestAlternateIngest:
    def test_headerless_whitespace_judgments(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        path = tmp_path / FILE_NAMES["judgments"]
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        path.write_text("\n".join("  ".join(row) for row in rows) + "\n")
        loaded = load_dataset(tmp_path, max_cutoff=3)
        assert loaded.judgments == ds.judgments


    def test_absent_snippet_flags_are_not_held(self, tmp_path, round_trip_dataset):
        # four fields, '-' and '' give no flag; the snippet map holds only those a line gives
        write_dataset(round_trip_dataset, tmp_path)
        path = tmp_path / FILE_NAMES["judgments"]
        header, *lines = path.read_text().splitlines()
        spellings = ["{}", "{}\t-", "{}\t"]
        path.write_text("\n".join([header, *(spellings[i % 3].format(line.rsplit("\t", 1)[0])
                                             for i, line in enumerate(lines))]) + "\n")
        loaded = load_dataset(tmp_path)
        assert loaded.judgments == round_trip_dataset.judgments
        assert loaded.snippets == {}
        assert loaded == dataclasses.replace(round_trip_dataset, snippets={})


class TestLoadBehavior:
    def test_empty_preferences_file_loads(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, None)], list_len=3)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path, max_cutoff=3)
        assert loaded.preferences == ()
        pairs, _ = scored_pairs(loaded, MetricConfig(Metric.PRECISION,
                                                     DiscountFunction(DiscountKind.NONE), cutoff=3))
        assert pir(pairs, 0.0).empty_denominator

    def test_missing_optional_files_default_to_empty(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        for name in ("preferences", "sessions", "clicks"):
            (tmp_path / FILE_NAMES[name]).unlink()
        loaded = load_dataset(tmp_path, max_cutoff=3)
        assert loaded.preferences == ()
        assert loaded.sessions == ()

    def test_without_sessions_neither_session_file_is_opened(self, tmp_path, round_trip_dataset):
        write_dataset(round_trip_dataset, tmp_path)
        (tmp_path / FILE_NAMES["sessions"]).write_text("not\ta session\n")
        (tmp_path / FILE_NAMES["clicks"]).write_bytes(b"\xff\n")
        loaded = load_dataset(tmp_path, sessions=False)
        assert loaded == dataclasses.replace(round_trip_dataset, sessions=())
        assert round_trip_dataset.sessions
        with pytest.raises(ParseError):
            load_dataset(tmp_path)

    def test_missing_required_file(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        write_dataset(ds, tmp_path)
        (tmp_path / FILE_NAMES["judgments"]).unlink()
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path, max_cutoff=3)

    def test_strict_validation_failure_raises(self, tmp_path):
        ds = binary_pair_dataset([("q1", 2, 1, Verdict.A)], list_len=3)
        ds = with_judgments(ds, judgment_rows(ds)[:-1])
        write_dataset(ds, tmp_path)
        with pytest.raises(ValidationError):
            load_dataset(tmp_path, max_cutoff=3)
        loaded = load_dataset(tmp_path, mode=ValidationMode.LENIENT, max_cutoff=3)
        assert len(judgment_rows(loaded)) == 5


class TestStreamingReader:
    """Each file is read as a stream of lines: no reader holds a whole file."""

    @pytest.fixture
    def judgments(self, tmp_path):
        write_dataset(generate_synthetic(SynthSpec(n_queries=300, n_raters=3, seed=3)), tmp_path)
        return tmp_path / FILE_NAMES["judgments"]

    def test_reading_takes_less_memory_than_the_file(self, judgments):
        tracemalloc.start()
        try:
            grades, snippets = read_judgments(judgments)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, grades.values())) > 5000 and snippets
        assert peak - kept < judgments.stat().st_size

    def test_non_utf8_byte_past_the_first_block_reports_its_line(self, judgments):
        data = judgments.read_bytes()
        start = data.index(b"\n", 3 * 8192) + 1  # a line past the first three 8 KiB blocks
        lineno = data.count(b"\n", 0, start) + 1
        offset = data.index(b"\t", start) + 1  # the first byte of its result id
        judgments.write_bytes(data[:offset] + b"\xff" + data[offset:])
        with pytest.raises(ParseError) as exc:
            read_judgments(judgments)
        assert str(exc.value) == (f"{judgments}:{lineno}: not valid UTF-8 "
                                  f"(byte 0xff at offset {offset}: invalid start byte)")

    def test_non_utf8_byte_after_a_byte_order_mark_reports_its_file_offset(self, judgments):
        data = b"\xef\xbb\xbf" + judgments.read_bytes()
        start = data.index(b"\n", 3 * 8192) + 1
        lineno = data.count(b"\n", 0, start) + 1
        offset = data.index(b"\t", start) + 1  # counted from the file's first byte, the mark's
        judgments.write_bytes(data[:offset] + b"\xff" + data[offset:])
        with pytest.raises(ParseError) as exc:
            read_judgments(judgments)
        assert str(exc.value) == (f"{judgments}:{lineno}: not valid UTF-8 "
                                  f"(byte 0xff at offset {offset}: invalid start byte)")

    def test_blank_queries_file_lacks_its_header_and_an_empty_one_holds_none(self, tmp_path):
        path = tmp_path / FILE_NAMES["queries"]
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_queries(path)
        assert str(exc.value) == f"{path}:1: missing '#prefeval\t1\tqueries' header"
        path.write_bytes(b"")
        assert read_queries(path) == []


def _rewrite(path: Path, edit) -> None:
    """Apply ``edit`` to the file's text, with its line ends left untranslated."""
    path.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))


def _blank_lines(text: str) -> str:
    header, _, body = text.partition("\n")
    padded = "\n\n   \n".join(body.split("\n"))
    return f"{header}\n\t\n \t \n{padded}"


def _in_records(edit):
    """Apply ``edit`` to the text after the header line."""
    def apply(text: str) -> str:
        header, _, body = text.partition("\n")
        return f"{header}\n{edit(body)}"
    return apply


def _headerless(text: str) -> str:
    body = text.split("\n", 1)[1]
    return "\n".join(" \t ".join(line.split("\t")) if i % 2 else "  ".join(line.split("\t"))
                     for i, line in enumerate(body.split("\n")))


class TestInternedIds:
    """A loaded dataset holds one object per distinct id, shared by every file that names it."""

    @pytest.mark.parametrize("headerless", [False, True], ids=["canonical", "headerless"])
    def test_each_id_is_one_object(self, tmp_path, round_trip_dataset, headerless):
        write_dataset(round_trip_dataset, tmp_path)
        if headerless:
            for kind in TestParserEquivalence.HEADERLESS_OK:
                _rewrite(tmp_path / FILE_NAMES[kind], _headerless)
        ds = load_dataset(tmp_path)
        assert ds == round_trip_dataset
        assert ds.preferences and ds.sessions and any(s.clicks for s in ds.sessions)
        results, raters = {}, {}
        for qid, rid, rater, _ in judgment_rows(ds):
            assert qid is ds.query_by_id[qid].id
            assert results.setdefault(rid, rid) is rid
            assert raters.setdefault(rater, rater) is rater
        keys = {key: key for key in ds.judgments}  # the snippet flags share the index's keys
        assert ds.snippets and all(keys[key] is key for key in ds.snippets)
        for (qid, rid), flags in ds.snippets.items():
            assert all(rater is raters[rater] for rater in flags)
        for pair in ds.list_pairs:
            assert pair.query_id is ds.query_by_id[pair.query_id].id
            assert all(rid is results[rid] for rid in pair.variant_a + pair.variant_b)
        for record in ds.preferences + ds.sessions:
            assert record.query_id is ds.query_by_id[record.query_id].id
            assert record.rater_id is raters[record.rater_id]


class TestParserEquivalence:
    """The same records in other spellings load exactly as the canonical files do.

    Each case rewrites the bytes of a canonically written dataset.  Accepted
    spellings must load ``==`` to the written dataset; rejected ones must
    raise the same error, word for word, as the canonical-format reader.
    """

    @pytest.fixture
    def data(self, tmp_path, round_trip_dataset):
        write_dataset(round_trip_dataset, tmp_path)
        assert round_trip_dataset.sessions and any(s.clicks for s in round_trip_dataset.sessions)
        return tmp_path

    ALL = tuple(FILE_NAMES)
    HEADERLESS_OK = ("judgments", "lists", "preferences", "sessions", "clicks")

    @pytest.mark.parametrize("kinds, edit", [
        (ALL, lambda t: t.replace("\n", "\r\n")),
        (ALL, lambda t: t.replace("\n", "\r")),
        (ALL, lambda t: t[:-1]),
        (ALL, lambda t: t.replace("\n", "\r\n")[:-2]),
        (ALL, _blank_lines),
        (HEADERLESS_OK, _headerless),
        (HEADERLESS_OK, lambda t: _headerless(t).replace("\n", "\r\n")),
        (ALL, lambda t: "\ufeff" + t),
        (HEADERLESS_OK, lambda t: "\ufeff" + _headerless(t)),
    ], ids=["crlf", "cr", "no-final-newline", "crlf-no-final-newline", "blank-lines",
            "headerless-whitespace", "headerless-crlf", "byte-order-mark",
            "headerless-byte-order-mark"])
    def test_accepted_spellings_load_equal(self, data, round_trip_dataset, kinds, edit):
        for kind in kinds:
            _rewrite(data / FILE_NAMES[kind], edit)
        assert load_dataset(data) == round_trip_dataset

    @pytest.mark.parametrize("spelling", ["0{}", " {}", "{} ", "+{}", "00{}", "٠{}"])
    def test_grade_spellings_outside_the_fast_table(self, data, round_trip_dataset, spelling):
        def respell(text):
            lines = text.split("\n")
            for i in range(1, len(lines) - 1):
                fields = lines[i].split("\t")
                fields[3] = spelling.format(fields[3])
                lines[i] = "\t".join(fields)
            return "\n".join(lines)

        _rewrite(data / FILE_NAMES["judgments"], respell)
        assert load_dataset(data) == round_trip_dataset

    @pytest.mark.parametrize("content", ["", f"#prefeval\t1\t{{kind}}\n", "\n \n"])
    def test_empty_optional_files(self, data, round_trip_dataset, content):
        for kind in ("preferences", "sessions", "clicks"):
            (data / FILE_NAMES[kind]).write_text(content.format(kind=kind), encoding="utf-8")
        want = dataclasses.replace(round_trip_dataset, preferences=(), sessions=())
        assert load_dataset(data) == want

    def test_empty_queries_file_holds_no_queries(self, data):
        (data / FILE_NAMES["queries"]).write_bytes(b"")
        with pytest.raises(ValidationError, match="list pair references unknown query"):
            load_dataset(data)

    def test_separators_that_do_not_end_a_line(self, tmp_path, round_trip_dataset):
        # str.splitlines() would split at each of these; a record file ends lines at LF and CR only
        query = dataclasses.replace(round_trip_dataset.queries[0],
                                    text="a\x0bb\x0cc\x1cd\x85e\u2028f g")
        ds = dataclasses.replace(round_trip_dataset,
                                 queries=(query,) + round_trip_dataset.queries[1:])
        write_dataset(ds, tmp_path)
        assert load_dataset(tmp_path) == ds

    @pytest.mark.parametrize("kind, edit, line, message", [
        ("judgments", lambda t: _blank_lines(t).replace("\t3\t", "\t7\t", 1), None,
         "grade must be 1..6, got 7"),
        ("judgments", lambda t: t.replace("\t3\t", "\t3.0\t", 1), None,
         "grade must be an integer, got '3.0'"),
        ("preferences", lambda t: t.replace("\n", "\r\n").replace("\tA\r", "\tMAYBE\r", 1), None,
         "verdict must be one of A/B/EQUAL, got 'MAYBE'"),
        ("queries", lambda t: t.split("\n", 1)[1], 1,
         "missing '#prefeval\t1\tqueries' header"),
        ("queries", _in_records(lambda body: body.replace("\t", "\r", 1)), 2,
         "query record needs 5 fields, got 1"),
        ("judgments", _in_records(lambda body: body.replace("\t", "  ", 2)), 2,
         "judgment record needs 4 or 5 fields, got 3"),
        ("sessions", lambda t: _blank_lines(_headerless(t)).replace(" A ", " C ", 1), None,
         "variant must be one of A/B, got 'C'"),
    ], ids=["blank-lines-bad-grade", "decimal-grade", "crlf-bad-verdict", "headerless-queries",
            "cr-splits-a-record", "headered-file-splits-on-tabs", "headerless-bad-variant"])
    def test_rejections_are_unchanged(self, data, kind, edit, line, message):
        path = data / FILE_NAMES[kind]
        _rewrite(path, edit)
        if line is None:  # the first physical line that carries the bad value
            bad = message.rsplit(" ", 1)[1].strip("'")
            text = path.read_bytes().decode("utf-8").replace("\r\n", "\n")
            line = next(i for i, raw in enumerate(text.split("\n"), start=1)
                        if bad in raw.replace("\t", " ").split(" "))
        with pytest.raises(ParseError) as exc:
            load_dataset(data)
        assert str(exc.value) == f"{path}:{line}: {message}"
        assert exc.value.line == line


def _flag(value) -> str:
    return "-" if value is None else "true" if value else "false"


def _reference_files(ds) -> dict[str, bytes]:
    """Each record file's bytes, as ``"\\t".join(map(str, row))`` lines in canonical order."""
    sessions = sorted(ds.sessions, key=lambda s: (s.query_id, s.rater_id, s.variant.value))
    rows = {
        "queries": [(q.id, q.query_type.value, q.language.value, q.text, q.info_need)
                    for q in sorted(ds.queries, key=lambda q: q.id)],
        "judgments": [(qid, rid, rater, grade, _flag(ds.snippets.get((qid, rid), {}).get(rater)))
                      for qid, rid, rater, grade in sorted(judgment_rows(ds))],
        "lists": [(p.query_id, v.value, rank, rid)
                  for p in sorted(ds.list_pairs, key=lambda p: p.query_id)
                  for v in (Variant.A, Variant.B)
                  for rank, rid in enumerate(p.variant(v), start=1)],
        "preferences": [(p.query_id, p.rater_id, p.verdict.value)
                        for p in sorted(ds.preferences, key=lambda p: (p.query_id, p.rater_id))],
        "sessions": [(s.query_id, s.rater_id, s.variant.value, s.start_ts, s.end_ts,
                      _flag(s.satisfied)) for s in sessions],
        "clicks": [(s.query_id, s.rater_id, s.variant.value, c.rank, c.ts)
                   for s in sessions for c in s.clicks],
    }
    return {kind: "".join("\t".join(map(str, row)) + "\n"
                          for row in [("#prefeval", 1, kind), *body]).encode("utf-8")
            for kind, body in rows.items()}


def _assert_written_as_joined(ds, root: Path) -> None:
    write_dataset(ds, root)
    for kind, want in _reference_files(ds).items():
        assert (root / FILE_NAMES[kind]).read_bytes() == want, kind


class TestWriterBytes:
    """Each written line is exactly the tab join of ``str`` of its record's fields."""

    def test_optional_booleans_clicks_and_tied_timestamps(self, tmp_path, round_trip_dataset):
        ds = round_trip_dataset
        flags = (None, True, False)
        snippets = {}
        for i, (qid, rid, rater, _) in enumerate(judgment_rows(ds)):
            if flags[i % 3] is not None:  # the map holds only the flags a judgment gives
                snippets.setdefault((qid, rid), {})[rater] = flags[i % 3]
        sessions = []
        for i, s in enumerate(ds.sessions):
            clicks = s.clicks
            if i % 4 == 0:
                clicks = ()
            elif clicks:  # a second click at the first one's timestamp, ranked after it
                first = clicks[0]
                clicks = (first, Click(first.rank + 1, first.ts), *clicks[1:])
            sessions.append(dataclasses.replace(s, satisfied=flags[i % 3], clicks=clicks))
        ds = dataclasses.replace(ds, snippets=snippets, sessions=tuple(sessions))
        assert validate(ds).ok
        assert {ds.snippets.get(row[:2], {}).get(row[2]) for row in judgment_rows(ds)} == set(flags)
        assert {s.satisfied for s in ds.sessions} == set(flags)
        assert any(not s.clicks for s in ds.sessions)
        assert any(len({c.ts for c in s.clicks}) < len(s.clicks) for s in ds.sessions)
        _assert_written_as_joined(ds, tmp_path / "out")
        assert load_dataset(tmp_path / "out") == ds

    def test_dataset_loaded_from_headerless_crlf_files(self, tmp_path, round_trip_dataset):
        write_dataset(round_trip_dataset, tmp_path / "in")
        for name in FILE_NAMES.values():
            edit = lambda t: t.replace("\n", "\r\n")
            if name != FILE_NAMES["queries"]:
                edit = lambda t: _headerless(t).replace("\n", "\r\n")
            _rewrite(tmp_path / "in" / name, edit)
        loaded = load_dataset(tmp_path / "in")
        assert loaded == round_trip_dataset
        _assert_written_as_joined(loaded, tmp_path / "out")

    @pytest.mark.parametrize("field", ["text", "info_need"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\udc80"],
                             ids=["tab", "lf", "cr", "surrogate"])
    def test_line_breaking_query_text_is_refused_before_any_file(
            self, tmp_path, round_trip_dataset, field, char):
        queries = list(round_trip_dataset.queries)
        queries[2] = dataclasses.replace(queries[2], **{field: f"left{char}right"})
        ds = dataclasses.replace(round_trip_dataset, queries=tuple(queries))
        fault = "does not encode as UTF-8" if char == "\udc80" else "holds a tab or line break"
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == (
            f"query {queries[2].id!r} {field} {fault}, which a record file cannot hold")

    @pytest.mark.parametrize("field", ["text", "info_need"])
    def test_query_text_that_is_not_a_string_is_refused_before_any_file(
            self, tmp_path, round_trip_dataset, field):
        queries = list(round_trip_dataset.queries)
        queries[2] = dataclasses.replace(queries[2], **{field: None})
        ds = dataclasses.replace(round_trip_dataset, queries=tuple(queries))
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == (
            f"query {queries[2].id!r} {field} is not a string, which a record file cannot hold")

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\ud800"],
                             ids=["tab", "lf", "cr", "surrogate"])
    @pytest.mark.parametrize("kind, old", ID_KINDS)
    def test_line_breaking_id_is_refused_before_any_file(self, tmp_path, kind, old, char):
        # With rater u01 renamed 'u 0\t1' in every record, this dataset was once written,
        # and then failed to load ("needs 4 or 5 fields, got 6"); with 'u 0\ud8001', the
        # writer left queries.tsv and part of judgments.tsv behind.
        new = f"{old[0]} {old[1:-1]}{char}{old[-1]}"
        ds = _rename_id(generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6)), kind, old, new)
        fault = "does not encode as UTF-8" if char == "\ud800" else "holds a tab or line break"
        assert _refused_alike(ds, tmp_path / "out", "bad-id") == (
            f"{kind} id {new!r} {fault}, which a record file cannot hold")

    @pytest.mark.parametrize("kind, old", ID_KINDS)
    def test_empty_id_is_refused_before_any_file(self, tmp_path, kind, old):
        # With rater u01 renamed '' in every record, this dataset was once written, and
        # then failed to load ("judgments.tsv:2: rater_id is empty").
        ds = _rename_id(generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6)), kind, old, "")
        assert _refused_alike(ds, tmp_path / "out", "bad-id") == (
            f"{kind} id is empty, which a record file cannot load")

    @pytest.mark.parametrize("new", [7, ["u", "01"]], ids=["int", "list"])
    @pytest.mark.parametrize("kind, old", ID_KINDS)
    def test_id_that_is_not_a_string_is_refused_before_any_file(self, tmp_path, kind, old, new):
        # With rater u01 renamed to the int 7 in every record, this dataset validated and was
        # written, and loaded back with rater '7'; with result q002-b03 renamed 7, validate
        # raised TypeError sorting the list's result ids.  Renamed ['u', '01'], an id no set
        # can hold, validate raised TypeError building its id sets (the grade index, keyed
        # by its ids, cannot hold it and keeps the old one).
        ds = _rename_id(generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6)), kind, old, new)
        assert _refused_alike(ds, tmp_path / "out", "bad-id") == (
            f"{kind} id {new!r} is not a string, which a record file cannot hold")

    @pytest.mark.parametrize("records, field, enum", [
        ("queries", "query_type", QueryType), ("queries", "language", Language),
        ("preferences", "verdict", Verdict), ("sessions", "variant", Variant)])
    def test_enum_field_holding_a_plain_string_is_refused_before_any_file(
            self, tmp_path, records, field, enum):
        # With each verdict its plain string value, this dataset validated, PIR counted every
        # verdict as a missed preference (verdicts are compared by identity), and the writer
        # left four files behind before raising AttributeError.
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        plain = tuple(dataclasses.replace(r, **{field: getattr(r, field).value})
                      for r in getattr(ds, records))
        ds = dataclasses.replace(ds, **{records: plain})
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == (
            f"{field} {getattr(plain[0], field)!r} is not a {enum.__name__}")
        with pytest.raises(ValidationError):  # before it reads a query type
            descriptive_stats(ds)

    @pytest.mark.parametrize("records, field, change, message", [
        ("sessions", "end_ts", lambda v: v + 0.5, "end_ts {!r} is not an int"),
        ("sessions", "end_ts", lambda v: "17", "end_ts '17' is not an int"),
        ("sessions", "start_ts", lambda v: True, "start_ts True is not an int"),
        ("clicks", "rank", lambda v: "1", "rank '1' is not an int"),
        ("clicks", "ts", float, "ts {!r} is not an int"),
        ("sessions", "satisfied", lambda v: "yes", "satisfied 'yes' is not a bool or None"),
        ("snippets", "snippet_relevant", lambda v: "yes", "snippet_relevant 'yes' is not a bool"),
        ("snippets", "snippet_relevant", lambda v: None, "snippet_relevant None is not a bool"),
    ], ids=["end-float", "end-text", "start-bool", "rank-text", "ts-float", "satisfied-text",
            "snippet-text", "snippet-none"])
    def test_int_or_bool_field_of_another_type_is_refused_before_any_file(
            self, tmp_path, records, field, change, message):
        # With the first session's end_ts raised by 0.5, this dataset validated and was
        # written, and then failed to load; with end_ts '17', validate raised TypeError
        # comparing it; with snippet_relevant 'yes', it was written as true.  A None flag
        # would be written as '-', which loads as no flag.
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        if records == "clicks":
            i, session = next((i, s) for i, s in enumerate(ds.sessions) if s.clicks)
            first, *rest = session.clicks
            bad = dataclasses.replace(first, **{field: change(getattr(first, field))})
            session = dataclasses.replace(session, clicks=(bad, *rest))
            ds = dataclasses.replace(ds, sessions=(*ds.sessions[:i], session, *ds.sessions[i + 1:]))
        elif records == "snippets":
            key, flags = next(iter(ds.snippets.items()))
            rater = next(iter(flags))
            bad = change(flags[rater])
            ds = dataclasses.replace(ds, snippets={**ds.snippets, key: {**flags, rater: bad}})
        else:
            first, *rest = getattr(ds, records)
            bad = dataclasses.replace(first, **{field: change(getattr(first, field))})
            ds = dataclasses.replace(ds, **{records: (bad, *rest)})
        value = bad if records == "snippets" else getattr(bad, field)
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == message.format(value)

    @pytest.mark.parametrize("judged_pair", [True, False], ids=["other-rater", "unjudged-pair"])
    def test_snippet_flag_without_its_judgment_is_refused_before_any_file(
            self, tmp_path, judged_pair):
        # the writer writes one line per judgment, so it would drop this flag
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        key = next(iter(ds.snippets)) if judged_pair else ("q001", "q001-x01")
        assert "u09" not in ds.judgments.get(key, {})
        ds = dataclasses.replace(ds, snippets={**ds.snippets,
                                               key: {**ds.snippets.get(key, {}), "u09": True}})
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == (
            f"snippet flag {(*key, 'u09')!r} has no judgment, which a record file cannot hold")

    def test_empty_rater_map_is_refused_before_any_file(self, tmp_path):
        # a (query, result) with no rater has no line to write; ranked past the cut-off,
        # the coverage check does not ask for it
        ds = generate_synthetic(SynthSpec(3, 2, 1, list_len=12, n_preferences=6))
        key = ("q001", ds.pair_by_query["q001"].variant_a[11])
        ds = with_judgments(ds, [row for row in judgment_rows(ds) if row[:2] != key])
        ds = dataclasses.replace(ds, judgments={**ds.judgments, key: {}})
        assert _refused_alike(ds, tmp_path / "out", "bad-field") == (
            f"judgment {key!r} has no rater, which a record file cannot hold")

    def test_a_text_fault_comes_before_an_id_fault(self, tmp_path):
        # the writer checked texts before ids, so its first message stays the text's
        ds = _rename_id(generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6)), "rater", "u01", "")
        first, *rest = ds.queries
        ds = dataclasses.replace(ds, queries=(
            first, dataclasses.replace(rest[0], info_need="a\tb"), *rest[1:]))
        report = validate(ds)
        with pytest.raises(ValueError) as exc:
            write_dataset(ds, tmp_path / "out")
        assert str(exc.value) == (f"query {rest[0].id!r} info_need holds a tab or line break,"
                                  " which a record file cannot hold")
        assert [(i.kind, i.message) for i in report.issues] == [
            ("bad-field", str(exc.value)),
            ("bad-id", "rater id is empty, which a record file cannot load")]

    def test_plain_string_session_variant_keeps_the_session_messages(self):
        # validate raised AttributeError naming such a session in its own message
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        first = ds.sessions[0]
        broken = dataclasses.replace(first, variant=first.variant.value, start_ts=first.end_ts + 1)
        sessions = (broken, *ds.sessions[1:])
        report = validate(dataclasses.replace(ds, sessions=sessions))
        assert [(i.kind, i.message) for i in report.issues] == [
            ("time-order", f"session ({first.query_id!r}, {first.rater_id!r},"
                           f" {first.variant.value}) starts after it ends"),
            ("bad-field", f"variant {first.variant.value!r} is not a Variant")]

    @pytest.mark.parametrize("records, field, kind", [
        ("queries", "id", "query"), ("judgments", "query_id", "query"),
        ("judgments", "result_id", "result"), ("judgments", "rater_id", "rater"),
        ("list_pairs", "query_id", "query"), ("list_pairs", "variant_a", "result"),
        ("preferences", "query_id", "query"), ("preferences", "rater_id", "rater"),
        ("sessions", "query_id", "query"), ("sessions", "rater_id", "rater")])
    def test_an_id_in_any_record_is_checked(self, tmp_path, records, field, kind):
        # one more record whose id breaks the rule, whatever else it breaks
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        new = "x\ty"
        if records == "judgments":
            extra = list(judgment_rows(ds)[0])
            extra[("query_id", "result_id", "rater_id").index(field)] = new
            ds = with_judgments(ds, [*judgment_rows(ds), tuple(extra)])
        else:
            first = getattr(ds, records)[0]
            extra = dataclasses.replace(
                first, **{field: (new, *first.variant_a[1:]) if field == "variant_a" else new})
            ds = dataclasses.replace(ds, **{records: (*getattr(ds, records), extra)})
        reported = [i.message for i in validate(ds).errors if i.kind == "bad-id"]
        with pytest.raises(ValueError) as exc:
            write_dataset(ds, tmp_path / "out")
        assert reported == [str(exc.value)] == [
            f"{kind} id {new!r} holds a tab or line break, which a record file cannot hold"]
        assert not (tmp_path / "out").exists()

    @given(query=ID, result=ID, rater=ID)
    @example(query=" q 2 ", result="\x85", rater="\u2028")
    @example(query="#prefeval", result=" r\x0b ", rater="#prefeval\x0b1")
    def test_every_id_validate_accepts_round_trips(self, query, result, rater):
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        rows = judgment_rows(ds)
        assume(query not in ds.query_by_id and rater not in {row[2] for row in rows}
               and result not in {row[1] for row in rows})
        for kind, old, new in (("query", "q002", query), ("result", "q002-b03", result),
                               ("rater", "u01", rater)):
            ds = _rename_id(ds, kind, old, new)
        assert validate(ds).ok
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(ds, tmp)
            assert load_dataset(tmp) == ds

    @given(text=TEXT, info_need=TEXT)
    @example(text="", info_need="")
    @example(text=" \x85 \u2028", info_need="#prefeval\x0b\ufeff ")
    def test_every_text_validate_accepts_round_trips(self, text, info_need):
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        first, *rest = ds.queries
        ds = dataclasses.replace(ds, queries=(
            first, dataclasses.replace(rest[0], text=text, info_need=info_need), *rest[1:]))
        assert validate(ds).ok
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(ds, tmp)
            assert load_dataset(tmp) == ds

    @given(text=TEXT, at=st.integers(min_value=0), char=st.sampled_from("\t\n\r\ud800"),
           field=st.sampled_from(["text", "info_need"]))
    def test_every_text_validate_refuses_the_writer_refuses(self, text, at, char, field):
        ds = generate_synthetic(SynthSpec(3, 2, 1, n_preferences=6))
        at %= len(text) + 1
        first, *rest = ds.queries
        broken = dataclasses.replace(rest[0], **{field: text[:at] + char + text[at:]})
        ds = dataclasses.replace(ds, queries=(first, broken, *rest[1:]))
        fault = "does not encode as UTF-8" if char == "\ud800" else "holds a tab or line break"
        with tempfile.TemporaryDirectory() as tmp:
            assert _refused_alike(ds, Path(tmp) / "out", "bad-field") == (
                f"query {rest[0].id!r} {field} {fault}, which a record file cannot hold")


def _refused_alike(ds, out: Path, kind: str) -> str:
    """The writer's ValueError text for ``ds``, checked to be ``validate``'s one error, of ``kind``.

    Also checks that the writer created nothing at ``out`` and that scoring refuses ``ds``.
    """
    report = validate(ds)
    with pytest.raises(ValueError) as exc:
        write_dataset(ds, out)
    assert [(i.kind, i.message) for i in report.issues] == [(kind, str(exc.value))]
    assert not out.exists()
    with pytest.raises(ValidationError) as refused:  # scoring validates leniently, too
        ds.grades
    assert refused.value.report.errors == report.errors
    return str(exc.value)


def _rename_id(ds, kind, old, new):
    """``ds`` with the query, result or rater id ``old`` renamed ``new`` in every record."""
    fields = {"query": ("id", "query_id"), "result": ("result_id",), "rater": ("rater_id",)}[kind]

    def swap(value):
        return new if value == old else value

    def renamed(records):
        return tuple(dataclasses.replace(r, **{f: swap(getattr(r, f))
                                               for f in fields if hasattr(r, f)})
                     for r in records)

    def renamed_index(index):  # keyed by its ids, so an unhashable id is not held
        if new.__hash__ is None:
            return index
        return {(swap(qid), swap(rid)): {swap(rater): v for rater, v in raters.items()}
                for (qid, rid), raters in index.items()}

    ds = dataclasses.replace(
        ds, queries=renamed(ds.queries), judgments=renamed_index(ds.judgments),
        list_pairs=renamed(ds.list_pairs), preferences=renamed(ds.preferences),
        sessions=renamed(ds.sessions), snippets=renamed_index(ds.snippets))
    if kind == "result":
        ds = dataclasses.replace(ds, list_pairs=tuple(
            dataclasses.replace(p, variant_a=tuple(map(swap, p.variant_a)),
                                variant_b=tuple(map(swap, p.variant_b)))
            for p in ds.list_pairs))
    return ds
