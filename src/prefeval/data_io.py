"""Reading and writing datasets as plain text record files, and reading click-weight tables.

A dataset is one directory of tab-separated files with the fixed names
below, one record per line, each starting with a one-line header naming
the schema version and record kind:

    queries.tsv      id  type  language  text  info_need
    judgments.tsv    query_id  result_id  rater_id  grade  [snippet_relevant]
    lists.tsv        query_id  variant  rank  result_id
    preferences.tsv  query_id  rater_id  verdict
    sessions.tsv     query_id  rater_id  variant  start_ts  end_ts  [satisfied]
    clicks.tsv       query_id  rater_id  variant  rank  ts

Files are UTF-8 text, and CR LF or CR line ends read as LF.  Each file
is read as a stream of lines and checked as it is read, never held
whole, so in a file with two faults (say a bad field and a non-UTF-8
byte further on) the first one in file order can be the one reported.
Booleans are written ``true``/``false`` with ``-`` for absent optional
values.  Query, result and rater ids must not be empty.  Each id is
interned at load, so a loaded dataset holds one string object per
distinct id, shared by every file and record that names it.  Judgment,
list, preference, session and click files are also accepted headerless
with any whitespace as separator, for quick hand-built fixtures; the
queries file always needs its header.  Judgments load as the grade index,
so a second line for one (query, result, rater) is malformed.  Records are
written in the order the dataset holds them, so the writer is the reader's
inverse: for any dataset that loads, the written files load back as the
dataset, and write -> load -> write is byte-stable once a first write has
grouped any interleaved (query, result) lines.  Files are canonical when the
dataset's order is, as ``synth``'s is.  A field ``validate`` reports as
``bad-field`` or ``bad-id`` cannot be written.
"""

from __future__ import annotations

import io
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .dataset import (
    Click,
    EvaluationDataset,
    Language,
    PreferenceJudgment,
    Query,
    QueryType,
    RankedListPair,
    Session,
    ValidationError,
    ValidationMode,
    Variant,
    Verdict,
    MAX_CUTOFF,
    record_faults,
    validate,
)
from .scales import GRADE_BEST, GRADE_WORST, check_grade

SCHEMA_VERSION = 1
HEADER_TAG = "#prefeval"

FILE_NAMES = {
    "queries": "queries.tsv",
    "judgments": "judgments.tsv",
    "lists": "lists.tsv",
    "preferences": "preferences.tsv",
    "sessions": "sessions.tsv",
    "clicks": "clicks.tsv",
}


class ParseError(ValueError):
    def __init__(self, path: Union[str, Path], line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


# kind -> (record name, accepted field counts, (index, name) of each id field in order)
_RECORDS = {
    "queries": ("query", (5,), ((0, "id"),)),
    "judgments": ("judgment", (4, 5), ((0, "query_id"), (1, "result_id"), (2, "rater_id"))),
    "lists": ("list", (4,), ((0, "query_id"), (3, "result_id"))),
    "preferences": ("preference", (3,), ((0, "query_id"), (1, "rater_id"))),
    "sessions": ("session", (5, 6), ((0, "query_id"), (1, "rater_id"))),
    "clicks": ("click", (5,), ((0, "query_id"), (1, "rater_id"))),
}


def _read_rows(path: Path, kind: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-blank record line of ``path``.

    The file is read as a stream of text-mode lines, so CR LF and a lone
    CR end a line as LF does, and a leading UTF-8 byte-order mark is
    dropped.  Each record must have an accepted field count and non-empty
    ids; its id fields come back interned.
    """
    record, counts, ids = _RECORDS[kind]
    intern = sys.intern
    try:
        with open(path, encoding="utf-8-sig", newline=None) as fh:
            first = fh.readline()
            if first.startswith(HEADER_TAG):
                header = first.rstrip("\n")
                fields = header.split("\t")
                if len(fields) != 3 or fields[0] != HEADER_TAG:
                    raise ParseError(path, 1, f"malformed header {header!r}")
                if fields[1] != str(SCHEMA_VERSION):
                    raise ParseError(path, 1, f"unsupported schema version {fields[1]!r}")
                if fields[2] != kind:
                    raise ParseError(path, 1, f"expected {kind!r} records, file declares {fields[2]!r}")
                sep, lines, start = "\t", fh, 2
            elif not first:
                return
            elif kind == "queries":
                raise ParseError(path, 1, f"missing '{HEADER_TAG}\t{SCHEMA_VERSION}\t{kind}' header")
            else:
                sep, lines, start = None, chain((first,), fh), 1
            for lineno, line in enumerate(lines, start):
                if line.isspace():
                    continue
                f = line.rstrip("\n").split(sep)
                if len(f) not in counts:
                    want = " or ".join(map(str, counts))
                    raise ParseError(path, lineno, f"{record} record needs {want} fields, got {len(f)}")
                for i, name in ids:
                    if not f[i]:
                        raise ParseError(path, lineno, f"{name} is empty")
                    f[i] = intern(f[i])
                yield lineno, f
    except UnicodeDecodeError:
        # Text mode decodes in blocks after any byte-order mark, so the error's
        # offset is not the file's.
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(path, *_byte_fault(data, exc)) from None
        raise


def _byte_fault(data: bytes, exc: UnicodeDecodeError) -> tuple[int, str]:
    """Line number and message naming the byte of ``data`` that ``exc`` failed on."""
    return (data.count(b"\n", 0, exc.start) + 1,
            f"not valid UTF-8 (byte {data[exc.start]:#04x} at offset {exc.start}: {exc.reason})")


def _parse_int(value: str, path: Path, lineno: int, field: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(path, lineno, f"{field} must be an integer, got {value!r}") from None


def _lookup(table: dict, value: str, path: Path, lineno: int, field: str, options: str = ""):
    """``table[value]``; a miss is rejected naming ``options`` (default: one of the keys)."""
    try:
        return table[value]
    except KeyError:
        options = options or "one of " + "/".join(table)
        raise ParseError(path, lineno, f"{field} must be {options}, got {value!r}") from None


def _parse_grade(value: str, path: Path, lineno: int) -> int:
    grade = _parse_int(value, path, lineno, "grade")
    try:
        check_grade(grade)
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc)) from None
    return grade


# Each field's accepted spellings map straight to its value; a miss is
# rejected through _lookup.  Only grades have other accepted spellings
# (" 3", "03"): a miss in _GRADES goes through _parse_grade, and since every
# grade is truthy, ``_GRADES.get(v) or _parse_grade`` falls back only on a miss.
_QUERY_TYPES = {m.value: m for m in QueryType}
_LANGUAGES = {m.value: m for m in Language}
_VARIANTS = {m.value: m for m in Variant}
_VERDICTS = {m.value: m for m in Verdict}
_GRADES = {str(g): g for g in range(GRADE_BEST, GRADE_WORST + 1)}
_BOOLS = {"-": None, "": None, "true": True, "false": False}
_FLAGS = {None: "-", True: "true", False: "false"}  # how the writer spells an optional bool


def read_queries(path: Path) -> list[Query]:
    out = []
    for lineno, f in _read_rows(path, "queries"):
        out.append(
            Query(
                id=f[0],
                query_type=_lookup(_QUERY_TYPES, f[1], path, lineno, "query type"),
                language=_lookup(_LANGUAGES, f[2], path, lineno, "language"),
                text=f[3],
                info_need=f[4],
            )
        )
    return out


def read_judgments(path: Path) -> tuple[dict, dict]:
    """``path``'s grade index and snippet flags (those a line gives), in first-line order.

    A second line for one (query, result, rater) raises ParseError.
    """
    grades, snippets = {}, {}
    for lineno, f in _read_rows(path, "judgments"):
        grade = _GRADES.get(f[3]) or _parse_grade(f[3], path, lineno)
        key, rater = (f[0], f[1]), f[2]
        raters = grades.setdefault(key, {})
        if rater in raters:
            raise ParseError(path, lineno, f"rater {rater!r} judged {key!r} twice")
        raters[rater] = grade
        flag = (None if len(f) == 4
                else _lookup(_BOOLS, f[4], path, lineno, "snippet_relevant", "true/false/-"))
        if flag is not None:
            snippets.setdefault(key, {})[rater] = flag
    return grades, snippets


def read_list_pairs(path: Path) -> list[RankedListPair]:
    rankings: dict[tuple[str, Variant], dict[int, str]] = {}
    first_line: dict[tuple[str, Variant], int] = {}
    for lineno, f in _read_rows(path, "lists"):
        variant = _lookup(_VARIANTS, f[1], path, lineno, "variant")
        rank = _parse_int(f[2], path, lineno, "rank")
        if rank < 1:
            raise ParseError(path, lineno, f"rank must be >= 1, got {rank}")
        key = (f[0], variant)
        slots = rankings.get(key)
        if slots is None:
            slots = rankings[key] = {}
            first_line[key] = lineno
        elif rank in slots:
            raise ParseError(path, lineno, f"duplicate rank {rank} for query {f[0]!r} variant {variant.value}")
        slots[rank] = f[3]
    pairs = []
    # Queries in order of first appearance: rankings keeps its keys in that order.
    for qid in dict.fromkeys(qid for qid, _ in rankings):
        lists: dict[Variant, tuple[str, ...]] = {}
        for variant in (Variant.A, Variant.B):
            slots = rankings.get((qid, variant), {})
            # Ranks are distinct and >= 1, so they run 1..n exactly when the largest is n.
            if slots and max(slots) != len(slots):
                raise ParseError(
                    path, first_line[qid, variant],
                    f"query {qid!r} variant {variant.value} ranks are not contiguous from 1",
                )
            lists[variant] = tuple(slots[r] for r in range(1, len(slots) + 1))
        pairs.append(RankedListPair(qid, lists[Variant.A], lists[Variant.B]))
    return pairs


def read_preferences(path: Path) -> list[PreferenceJudgment]:
    out = []
    for lineno, f in _read_rows(path, "preferences"):
        verdict = _lookup(_VERDICTS, f[2], path, lineno, "verdict")
        out.append(PreferenceJudgment(f[0], f[1], verdict))
    return out


def read_sessions(sessions_path: Path, clicks_path: Path) -> list[Session]:
    # (query, rater, variant) -> (line of its first click, clicks)
    clicks: dict[tuple[str, str, Variant], tuple[int, list[Click]]] = {}
    if clicks_path.exists():
        for lineno, f in _read_rows(clicks_path, "clicks"):
            variant = _lookup(_VARIANTS, f[2], clicks_path, lineno, "variant")
            rank = _parse_int(f[3], clicks_path, lineno, "rank")
            if rank < 1:
                raise ParseError(clicks_path, lineno, f"click rank must be >= 1, got {rank}")
            click = Click(rank, _parse_int(f[4], clicks_path, lineno, "timestamp"))
            key = (f[0], f[1], variant)
            entry = clicks.get(key)
            if entry is None:
                clicks[key] = (lineno, [click])
            else:
                entry[1].append(click)

    out = []
    seen = set()
    for lineno, f in _read_rows(sessions_path, "sessions") if sessions_path.exists() else ():
        variant = _lookup(_VARIANTS, f[2], sessions_path, lineno, "variant")
        key = (f[0], f[1], variant)
        if key in seen:
            raise ParseError(sessions_path, lineno, f"duplicate session {key!r}")
        seen.add(key)
        satisfied = (None if len(f) == 5
                     else _lookup(_BOOLS, f[5], sessions_path, lineno, "satisfied", "true/false/-"))
        entry = clicks.pop(key, None)
        session_clicks = () if entry is None else tuple(entry[1])
        out.append(
            Session(
                key[0], key[1], variant,
                _parse_int(f[3], sessions_path, lineno, "start_ts"),
                _parse_int(f[4], sessions_path, lineno, "end_ts"),
                session_clicks, satisfied,
            )
        )
    if clicks:
        key, (lineno, _) = next(iter(clicks.items()))
        raise ParseError(clicks_path, lineno, f"clicks reference unknown session {key!r}")
    return out


def read_dataset(root: Union[str, Path], *, sessions: bool = True) -> EvaluationDataset:
    """Parse the dataset in directory ``root``, without validating it.

    The files carry the names in FILE_NAMES.  Query, judgment and list
    files must exist (FileNotFoundError names the first one missing);
    absent preference, session and click files load as empty.  Raises
    ParseError for malformed files and for a click without its session.
    ``sessions=False`` opens neither session nor click file and gives
    ``sessions=()``, so nothing downstream checks or holds a session.
    """
    paths = {kind: Path(root) / name for kind, name in FILE_NAMES.items()}
    for kind in ("queries", "judgments", "lists"):
        if not paths[kind].exists():
            raise FileNotFoundError(paths[kind])
    queries = tuple(read_queries(paths["queries"]))
    judgments, snippets = read_judgments(paths["judgments"])
    return EvaluationDataset(
        queries=queries,
        judgments=judgments,
        list_pairs=tuple(read_list_pairs(paths["lists"])),
        preferences=(tuple(read_preferences(paths["preferences"]))
                     if paths["preferences"].exists() else ()),
        sessions=tuple(read_sessions(paths["sessions"], paths["clicks"])) if sessions else (),
        snippets=snippets,
    )


def load_dataset(
    root: Union[str, Path],
    *,
    mode: ValidationMode = ValidationMode.STRICT,
    max_cutoff: int = MAX_CUTOFF,
    sessions: bool = True,
) -> EvaluationDataset:
    """:func:`read_dataset` of directory ``root``, then validation in the given mode.

    ``sessions`` is passed on to :func:`read_dataset`.  Raises ParseError
    for malformed files and ValidationError when validation fails in the
    given mode.
    """
    dataset = read_dataset(root, sessions=sessions)
    report = validate(dataset, mode=mode, max_cutoff=max_cutoff)
    if not report.ok:
        raise ValidationError(report)
    return dataset


def load_click_weights(path) -> dict[int, float]:
    """Read a click-weight table from a two-column text file (rank, weight).

    Blank lines and lines starting with ``#`` are skipped.  The file is
    UTF-8, a leading byte-order mark dropped.  Any fault, a byte that is
    not UTF-8 included, raises ValueError naming the line: a usage error,
    not a dataset's ParseError.
    """
    table: dict[int, float] = {}
    data = Path(path).read_bytes()
    try:
        # decoded whole as plain UTF-8, so an error's offset counts any mark
        lines = io.StringIO(data.decode("utf-8").removeprefix("\ufeff"), newline=None)
    except UnicodeDecodeError as exc:
        lineno, message = _byte_fault(data, exc)
        raise ValueError(f"{path}:{lineno}: {message}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'rank weight', got {line!r}")
        try:
            rank = int(parts[0])
            weight = float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed rank/weight {line!r}") from None
        if rank in table:
            raise ValueError(f"{path}:{lineno}: duplicate rank {rank}")
        table[rank] = weight
    if not table:
        raise ValueError(f"{path}: empty click-weight table")
    return table


def write_tsv(path: Union[str, Path], header: Sequence[object],
              rows: Iterable[Iterable[object]]) -> None:
    """Write ``header`` and then each row as one tab-separated UTF-8 line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(map(str, header)) + "\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_dataset(dataset: EvaluationDataset, root: Union[str, Path]) -> None:
    """Write all record files under ``root``, records in the order the dataset holds them.

    Nothing is sorted, so :func:`read_dataset` of the files gives back the dataset.
    Each record is one line of ``str`` of its fields joined by tabs, with
    booleans as ``true``/``false``/``-``; a judgment line is a (query, result, rater)
    of the grade index.  The first fault :func:`record_faults` finds (run
    here only if no validation passed the dataset) raises ValueError before any file.
    """
    if "grades" not in dataset.__dict__ and (faults := record_faults(dataset)):
        raise ValueError(faults[0][1])
    root = Path(root)
    os.makedirs(root, exist_ok=True)

    def write(kind: str, lines: Iterable[str]) -> None:
        with open(root / FILE_NAMES[kind], "w", encoding="utf-8") as fh:
            fh.write(f"{HEADER_TAG}\t{SCHEMA_VERSION}\t{kind}\n")
            fh.writelines(lines)

    write("queries", (f"{q.id}\t{q.query_type.value}\t{q.language.value}\t{q.text}\t{q.info_need}\n"
                      for q in dataset.queries))
    write("judgments", ("".join([f"{head}{rater}\t{grade}\t{_FLAGS[flags.get(rater)]}\n"
                                 for rater, grade in raters.items()])  # per (query, result)
                        for key, raters in dataset.judgments.items()
                        for head, flags in [("%s\t%s\t" % key, dataset.snippets.get(key, {}))]))
    write("lists", (f"{pair.query_id}\t{variant}\t{rank}\t{result_id}\n"
                    for pair in dataset.list_pairs
                    for variant, ranking in (("A", pair.variant_a), ("B", pair.variant_b))
                    for rank, result_id in enumerate(ranking, start=1)))
    write("preferences", (f"{p.query_id}\t{p.rater_id}\t{p.verdict.value}\n"
                          for p in dataset.preferences))
    write("sessions", (
        f"{s.query_id}\t{s.rater_id}\t{s.variant.value}\t{s.start_ts}\t{s.end_ts}\t"
        f"{_FLAGS[s.satisfied]}\n"
        for s in dataset.sessions))
    write("clicks", (f"{s.query_id}\t{s.rater_id}\t{s.variant.value}\t{c.rank}\t{c.ts}\n"
                     for s in dataset.sessions for c in s.clicks))
