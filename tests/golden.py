"""Golden output digests: fixed command lines over checked-in datasets, hashed.

Each command line of ``COMMANDS`` runs in-process through ``cli.main``.
Its entry in ``fixtures/golden/digests.json`` holds its exit code and the
SHA-256 of its stdout, its stderr and every file it wrote.  Output that
names a path says ``{data}`` for the fixture directory and ``{out}`` for
the command's own output directory, so an entry does not depend on where
the tests run.  ``tests/test_golden.py`` checks every entry.

    python tests/golden.py            # list the entries that moved; exit 1 if any did
    python tests/golden.py --update   # rewrite the digest file and list what moved

A change that moves an entry on purpose runs ``--update`` and says which
entries moved and why.

The datasets under ``fixtures/golden`` are written files, not generated
at test time.  ``clean``, ``noisy``, ``sparse`` and ``tens`` were written
by the ``synth`` lines in ``FIXTURES``; ``COMMANDS`` pins those lines too,
and ``tests/test_golden.py`` checks that they still write those files.
``gaps`` is ``noisy`` without any judgment of ``(q001, q001-a01)`` and
without u03's of ``(q003, q003-b06)``.  Every dataset has sessions;
``sparse`` is mostly grade 6, so NDCG excludes pairs, and gives each
query one verdict, so ``other-users`` cannot sweep it.  ``tens`` has no
rater noise and ten judges per query, so each ``other-users`` relevance
is a mean of nine equal units.  The mean is exact (integer unit
numerators summed and divided once), so it reads the unit itself, where
float summation read 0.7999999999999999 for nine 0.8s: its sweep shows
that the rating source alone does not move a cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
DATA = ROOT / "fixtures" / "golden"
DIGESTS = DATA / "digests.json"

ALL_DISCOUNTS = "--discounts none,log5,log2,root,rank,square,click"
METRICS = ("precision", "ndcg", "map", "err", "mrr", "esl")

# The synth lines that wrote the generated fixtures, by directory name.
FIXTURES = {
    "clean": "synth --out {out} --queries 8 --raters 4 --seed 7 --preferences 20",
    "noisy": "synth --out {out} --queries 8 --raters 4 --seed 11 --preferences 20"
             " --rater-noise 0.1 --overlap 0.4",
    "sparse": "synth --out {out} --queries 8 --raters 3 --seed 5"
              " --grades-a 0.05,0,0,0,0,0.95 --grades-b 0.05,0,0,0,0,0.95",
    "tens": "synth --out {out} --queries 4 --raters 10 --seed 1 --preferences 40",
}

COMMANDS = [
    # sweeps: all seven discounts under both sources, three scales, filters, gaps
    *(f"sweep {{data}}/{ds} {ALL_DISCOUNTS} --rating-source {source} --plot --out {{out}}"
      for ds in ("clean", "noisy") for source in ("same-user", "other-users")),
    "sweep {data}/noisy --scale r3_1 --rating-source other-users --plot --out {out}",
    "sweep {data}/noisy --scale r2_5 --norm known-relevant --n 1.5 --plot --out {out}",
    "sweep {data}/clean --query-type informational --cutoffs 1,3,5 --thresholds 0:0.2:0.05"
    " --out {out}",
    "sweep {data}/sparse --plot --out {out}",
    *(f"sweep {{data}}/gaps --lenient --rating-source {source} --out {{out}}"
      for source in ("same-user", "other-users")),
    # ten noise-free judges per query: leave-one-out means of nine equal units
    "sweep {data}/tens --rating-source other-users --out {out}",
    # breakdowns with their series
    "breakdown {data}/clean --metric ndcg --cutoff 5 --threshold 0.1 --series {out}/series.tsv",
    "breakdown {data}/noisy --metric map --norm known-relevant --rating-source other-users"
    " --cutoff 3 --threshold 0.05 --series {out}/series.tsv",
    "breakdown {data}/sparse --metric ndcg --cutoff 2 --threshold 0",
    # eval: every metric strict, with the click discount, on r3_1 with a filter, and lenient
    *(f"eval {{data}}/noisy --metric {m}" for m in METRICS),
    *(f"eval {{data}}/clean --metric {m} --discount click --cutoff 7" for m in METRICS),
    *(f"eval {{data}}/noisy --metric {m} --scale r3_1 --query-type informational"
      for m in METRICS),
    *(f"eval {{data}}/gaps --metric {m} --cutoff 3 --lenient" for m in METRICS),
    "eval {data}/sparse --metric ndcg --cutoff 3",
    # the session measures
    *(f"implicit {{data}}/noisy --measure {m} --out {{out}}/series.tsv"
      for m in ("duration", "clicks", "mean-click-rank", "first-click-rank")),
    # descriptive statistics and validation
    "stats {data}/clean",
    "stats {data}/sparse",
    "stats {data}/gaps --lenient",
    "validate {data}/clean",
    "validate {data}/gaps --lenient",
    # the main error exits: 1 invalid data, 2 usage, 3 nothing to evaluate
    "validate {data}/gaps",
    "validate {data}/absent",
    "eval {data}/gaps --metric ndcg",
    "sweep {data}/sparse --rating-source other-users --out {out}",
    "eval {data}/clean",
    "eval {data}/clean --metric ndcg --n 2",
    "eval {data}/clean --metric ndcg --cutoff 11",
    "sweep {data}/clean --thresholds 0:0.3:0 --out {out}",
    "sweep {data}/clean --metrics ndcg --discounts click --click-weights {data}/absent"
    " --out {out}",
    "eval {data}/clean --metric ndcg --query-type meta",
    "breakdown {data}/clean --metric ndcg --threshold 0.1 --query-type meta",
    # synthetic datasets: the fixture recipes, every model switched on, 1,001 query ids
    *FIXTURES.values(),
    "synth --out {out} --queries 12 --raters 5 --seed 3 --list-len 12 --overlap 1"
    " --click-rate 1 --order-noise-a 0 --rater-noise 0.9",
    "synth --out {out} --queries 1001 --raters 2 --seed 1",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(command: str, data: Path = DATA) -> tuple[int, str, str, dict[str, bytes]]:
    """One command line's exit code, stdout, stderr and written files, over datasets in ``data``.

    Paths in stdout and stderr read ``{data}`` and ``{out}``; files are keyed by
    their path under the output directory.
    """
    from prefeval.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        argv = [word.format(data=data, out=out) for word in command.split()]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code

        def placed(text: str) -> str:
            return text.replace(str(out), "{out}").replace(str(data), "{data}")

        files = {str(path.relative_to(out)): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        return code, placed(stdout.getvalue()), placed(stderr.getvalue()), files


def run(command: str) -> dict:
    """One command line's exit code and the digests of its stdout, stderr and written files."""
    code, stdout, stderr, files = outputs(command)
    return {"exit": code, "stdout": _sha(stdout.encode()), "stderr": _sha(stderr.encode()),
            "files": {name: _sha(data) for name, data in files.items()}}


def run_all() -> dict:
    return {command: run(command) for command in COMMANDS}


def moved(old: dict, new: dict) -> list[str]:
    """One line per entry that differs between two digest maps, naming the parts that moved."""
    lines = []
    for command in dict.fromkeys((*old, *new)):
        if command not in new:
            lines.append(f"removed: {command}")
        elif command not in old:
            lines.append(f"added: {command}")
        elif old[command] != new[command]:
            was, now = old[command], new[command]
            parts = [key for key in ("exit", "stdout", "stderr") if was[key] != now[key]]
            files = sorted(name for name in {*was["files"], *now["files"]}
                           if was["files"].get(name) != now["files"].get(name))
            parts += files[:3] + [f"{len(files) - 3} more files"] * (len(files) > 3)
            lines.append(f"moved: {command} ({', '.join(parts)})")
    return lines


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"]):
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(), run_all()
    lines = moved(old, new)
    for line in lines:
        print(line)
    if argv == ["--update"]:
        DIGESTS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(new)} entries to {DIGESTS}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT.parent / "src"))
    sys.exit(main(sys.argv[1:]))
