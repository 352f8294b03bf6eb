"""Reading and writing datasets as plain text record files.

A dataset is one directory of tab-separated files with the fixed names
below, one record per line, each starting with a one-line header naming
the schema version and record kind:

    queries.tsv      id  type  language  text  info_need
    judgments.tsv    query_id  result_id  rater_id  grade  [snippet_relevant]
    lists.tsv        query_id  variant  rank  result_id
    preferences.tsv  query_id  rater_id  verdict
    sessions.tsv     query_id  rater_id  variant  start_ts  end_ts  [satisfied]
    clicks.tsv       query_id  rater_id  variant  rank  ts

Files are UTF-8 text, and CR LF or CR line ends read as LF.  Booleans
are written ``true``/``false`` with ``-`` for absent optional values.
Query, result and rater ids must not be empty.  Each id is interned at
load, so a loaded dataset holds one string object per distinct id,
shared by every file and record that names it.  Judgment, list,
preference, session and click files are also accepted headerless with
any whitespace as separator, for quick hand-built fixtures; the queries
file always needs its header.  Files are written in a canonical sort
order, so write -> load -> write is byte-stable.
"""

from __future__ import annotations

import os
import sys
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .dataset import (
    Click,
    EvaluationDataset,
    GradedJudgment,
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


def _read_lines(path: Path) -> list[str]:
    """The file's lines without their terminators, read and decoded in one go.

    Line ends are translated as text-mode ``open`` translates them: CR LF
    and a lone CR both end a line.  A final line needs no terminator.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            path, data.count(b"\n", 0, exc.start) + 1,
            f"not valid UTF-8 (byte {data[exc.start]:#04x} at offset {exc.start}: {exc.reason})",
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_rows(path: Path, kind: str, allow_headerless: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-blank record line."""
    lines = _read_lines(path)
    if not lines:
        return
    first = lines[0]
    if first.startswith(HEADER_TAG):
        fields = first.split("\t")
        if len(fields) != 3 or fields[0] != HEADER_TAG:
            raise ParseError(path, 1, f"malformed header {first!r}")
        if fields[1] != str(SCHEMA_VERSION):
            raise ParseError(path, 1, f"unsupported schema version {fields[1]!r}")
        if fields[2] != kind:
            raise ParseError(path, 1, f"expected {kind!r} records, file declares {fields[2]!r}")
        for lineno, line in enumerate(islice(lines, 1, None), start=2):
            if line and not line.isspace():
                yield lineno, line.split("\t")
    elif allow_headerless:
        for lineno, line in enumerate(lines, start=1):
            if line and not line.isspace():
                yield lineno, line.split()
    else:
        raise ParseError(path, 1, f"missing '{HEADER_TAG}\t{SCHEMA_VERSION}\t{kind}' header")


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
_click_order = attrgetter("ts", "rank")
# Applied to every id once its row has passed the field-count and empty-id checks.
_intern = sys.intern


# (field index, name) of the id fields of each record kind, checked in order.
_QUERY_IDS = ((0, "id"),)
_JUDGMENT_IDS = ((0, "query_id"), (1, "result_id"), (2, "rater_id"))
_LIST_IDS = ((0, "query_id"), (3, "result_id"))
_RATER_IDS = ((0, "query_id"), (1, "rater_id"))


def _empty_id(fields: list[str], ids: tuple[tuple[int, str], ...], path: Path,
              lineno: int) -> ParseError:
    name = next(name for i, name in ids if not fields[i])
    return ParseError(path, lineno, f"{name} is empty")


def _expect_fields(fields: list[str], counts: tuple[int, ...], path: Path, lineno: int, kind: str):
    if len(fields) not in counts:
        want = " or ".join(str(c) for c in counts)
        raise ParseError(path, lineno, f"{kind} record needs {want} fields, got {len(fields)}")


def read_queries(path: Path) -> list[Query]:
    out = []
    for lineno, f in _read_rows(path, "queries", allow_headerless=False):
        _expect_fields(f, (5,), path, lineno, "query")
        if not f[0]:
            raise _empty_id(f, _QUERY_IDS, path, lineno)
        out.append(
            Query(
                id=_intern(f[0]),
                query_type=_lookup(_QUERY_TYPES, f[1], path, lineno, "query type"),
                language=_lookup(_LANGUAGES, f[2], path, lineno, "language"),
                text=f[3],
                info_need=f[4],
            )
        )
    return out


def read_judgments(path: Path) -> list[GradedJudgment]:
    out = []
    for lineno, f in _read_rows(path, "judgments", allow_headerless=True):
        _expect_fields(f, (4, 5), path, lineno, "judgment")
        if not (f[0] and f[1] and f[2]):
            raise _empty_id(f, _JUDGMENT_IDS, path, lineno)
        grade = _GRADES.get(f[3]) or _parse_grade(f[3], path, lineno)
        snippet = (None if len(f) == 4
                   else _lookup(_BOOLS, f[4], path, lineno, "snippet_relevant", "true/false/-"))
        out.append(GradedJudgment(_intern(f[0]), _intern(f[1]), _intern(f[2]), grade, snippet))
    return out


def read_list_pairs(path: Path) -> list[RankedListPair]:
    rankings: dict[tuple[str, Variant], dict[int, str]] = {}
    first_line: dict[tuple[str, Variant], int] = {}
    for lineno, f in _read_rows(path, "lists", allow_headerless=True):
        _expect_fields(f, (4,), path, lineno, "list")
        if not (f[0] and f[3]):
            raise _empty_id(f, _LIST_IDS, path, lineno)
        variant = _lookup(_VARIANTS, f[1], path, lineno, "variant")
        rank = _parse_int(f[2], path, lineno, "rank")
        if rank < 1:
            raise ParseError(path, lineno, f"rank must be >= 1, got {rank}")
        key = (_intern(f[0]), variant)
        slots = rankings.get(key)
        if slots is None:
            slots = rankings[key] = {}
            first_line[key] = lineno
        elif rank in slots:
            raise ParseError(path, lineno, f"duplicate rank {rank} for query {f[0]!r} variant {variant.value}")
        slots[rank] = _intern(f[3])
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
    for lineno, f in _read_rows(path, "preferences", allow_headerless=True):
        _expect_fields(f, (3,), path, lineno, "preference")
        if not (f[0] and f[1]):
            raise _empty_id(f, _RATER_IDS, path, lineno)
        verdict = _lookup(_VERDICTS, f[2], path, lineno, "verdict")
        out.append(PreferenceJudgment(_intern(f[0]), _intern(f[1]), verdict))
    return out


def read_sessions(sessions_path: Path, clicks_path: Path) -> list[Session]:
    # (query, rater, variant) -> (line of its first click, clicks)
    clicks: dict[tuple[str, str, Variant], tuple[int, list[Click]]] = {}
    if clicks_path.exists():
        for lineno, f in _read_rows(clicks_path, "clicks", allow_headerless=True):
            _expect_fields(f, (5,), clicks_path, lineno, "click")
            if not (f[0] and f[1]):
                raise _empty_id(f, _RATER_IDS, clicks_path, lineno)
            variant = _lookup(_VARIANTS, f[2], clicks_path, lineno, "variant")
            rank = _parse_int(f[3], clicks_path, lineno, "rank")
            if rank < 1:
                raise ParseError(clicks_path, lineno, f"click rank must be >= 1, got {rank}")
            click = Click(rank, _parse_int(f[4], clicks_path, lineno, "timestamp"))
            key = (_intern(f[0]), _intern(f[1]), variant)
            entry = clicks.get(key)
            if entry is None:
                clicks[key] = (lineno, [click])
            else:
                entry[1].append(click)

    out = []
    seen = set()
    for lineno, f in _read_rows(sessions_path, "sessions", allow_headerless=True):
        _expect_fields(f, (5, 6), sessions_path, lineno, "session")
        if not (f[0] and f[1]):
            raise _empty_id(f, _RATER_IDS, sessions_path, lineno)
        variant = _lookup(_VARIANTS, f[2], sessions_path, lineno, "variant")
        key = (_intern(f[0]), _intern(f[1]), variant)
        if key in seen:
            raise ParseError(sessions_path, lineno, f"duplicate session {key!r}")
        seen.add(key)
        satisfied = (None if len(f) == 5
                     else _lookup(_BOOLS, f[5], sessions_path, lineno, "satisfied", "true/false/-"))
        entry = clicks.pop(key, None)
        session_clicks = () if entry is None else tuple(sorted(entry[1], key=_click_order))
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


def read_dataset(root: Union[str, Path]) -> EvaluationDataset:
    """Parse the dataset in directory ``root``, without validating it.

    The files carry the names in FILE_NAMES.  Query, judgment and list
    files must exist (FileNotFoundError names the first one missing);
    absent preference, session and click files load as empty.  Raises
    ParseError for malformed files.
    """
    paths = {kind: Path(root) / name for kind, name in FILE_NAMES.items()}
    for kind in ("queries", "judgments", "lists"):
        if not paths[kind].exists():
            raise FileNotFoundError(paths[kind])
    return EvaluationDataset(
        queries=tuple(read_queries(paths["queries"])),
        judgments=tuple(read_judgments(paths["judgments"])),
        list_pairs=tuple(read_list_pairs(paths["lists"])),
        preferences=(tuple(read_preferences(paths["preferences"]))
                     if paths["preferences"].exists() else ()),
        sessions=(tuple(read_sessions(paths["sessions"], paths["clicks"]))
                  if paths["sessions"].exists() else ()),
    )


def load_dataset(
    root: Union[str, Path],
    *,
    mode: ValidationMode = ValidationMode.STRICT,
    max_cutoff: int = MAX_CUTOFF,
) -> EvaluationDataset:
    """:func:`read_dataset` of directory ``root``, then validation in the given mode.

    Raises ParseError for malformed files and ValidationError when
    validation fails in the given mode.
    """
    dataset = read_dataset(root)
    report = validate(dataset, mode=mode, max_cutoff=max_cutoff)
    if not report.ok:
        raise ValidationError(report)
    return dataset


def _bool_str(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "true" if value else "false"


def write_tsv(path: Union[str, Path], header: Sequence[object],
              rows: Iterable[Iterable[object]]) -> None:
    """Write ``header`` and then each row as one tab-separated UTF-8 line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(map(str, header)) + "\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def write_dataset(dataset: EvaluationDataset, root: Union[str, Path]) -> None:
    """Write all record files in canonical sort order under ``root``."""
    root = Path(root)
    os.makedirs(root, exist_ok=True)

    def write(kind: str, rows: Iterable[Iterable[object]]) -> None:
        write_tsv(root / FILE_NAMES[kind], (HEADER_TAG, SCHEMA_VERSION, kind), rows)

    write("queries", ([q.id, q.query_type.value, q.language.value, q.text, q.info_need]
                      for q in sorted(dataset.queries, key=lambda q: q.id)))
    write("judgments",
          ([j.query_id, j.result_id, j.rater_id, j.grade, _bool_str(j.snippet_relevant)]
           for j in sorted(dataset.judgments, key=lambda j: (j.query_id, j.result_id, j.rater_id))))
    write("lists", ([pair.query_id, variant.value, rank, result_id]
                    for pair in sorted(dataset.list_pairs, key=lambda p: p.query_id)
                    for variant in (Variant.A, Variant.B)
                    for rank, result_id in enumerate(pair.variant(variant), start=1)))
    write("preferences",
          ([p.query_id, p.rater_id, p.verdict.value]
           for p in sorted(dataset.preferences, key=lambda p: (p.query_id, p.rater_id))))
    sessions = sorted(dataset.sessions, key=lambda s: (s.query_id, s.rater_id, s.variant.value))
    write("sessions", ([s.query_id, s.rater_id, s.variant.value, s.start_ts, s.end_ts,
                        _bool_str(s.satisfied)] for s in sessions))
    write("clicks", ([s.query_id, s.rater_id, s.variant.value, click.rank, click.ts]
                     for s in sessions for click in s.clicks))
