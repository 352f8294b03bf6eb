"""Seeded mutations of a small dataset never make a command escape its exit codes.

Each case copies one synthetic dataset, damages it with one to three
seeded mutations (drop, duplicate or swap a row; blank a field or put a
bad value in it; insert a stray byte; delete a file) and runs every
subcommand on it in-process through ``cli.main``.  Every run must end in
exit code 0, 1, 2 or 3 without an exception.  A failing case is
reproduced by its seed alone.
"""

import random
import shutil

import pytest

from prefeval.cli import main

MUTATIONS = ("drop", "duplicate", "swap", "blank", "bad", "byte", "delete")
BAD_VALUES = (b"x", b"-1", b"0", b"7", b"99", b"nan", b"inf", b"1e400", b"-", b"A", b"EQUAL",
              b"true", b"q999", b" ", b"\xff", b"2.5")
STRAY_BYTES = (b"\xff", b"\x00", b"\t", b"\n", b"\r", b" ", b"#", b"\xc3")
SYNTH_OPTIONS = ("--queries", "--raters", "--seed", "--list-len", "--preferences", "--grades-a",
                 "--grades-b", "--order-noise-a", "--order-noise-b", "--overlap",
                 "--equal-margin", "--rater-noise", "--click-rate")
COMMANDS = (
    ["validate", "{d}"],
    ["validate", "{d}", "--lenient", "--max-cutoff", "5"],
    ["eval", "{d}", "--metric", "ndcg", "--cutoff", "5"],
    ["eval", "{d}", "--metric", "map", "--norm", "known-relevant", "--lenient"],
    ["sweep", "{d}", "--out", "{out}", "--cutoffs", "1,5", "--thresholds", "0:0.2:0.1",
     "--rating-source", "other-users"],
    ["sweep", "{d}", "--out", "{out}", "--metrics", "esl,mrr", "--discounts", "click,root",
     "--cutoffs", "3", "--thresholds", "0,0.05", "--lenient", "--plot"],
    ["breakdown", "{d}", "--metric", "err", "--threshold", "0.05", "--thresholds", "0,0.1",
     "--series", "{out}.tsv"],
    ["implicit", "{d}", "--measure", "duration", "--thresholds", "0:60:30"],
    ["implicit", "{d}", "--measure", "first-click-rank", "--endpoint", "last-click", "--lenient"],
    ["stats", "{d}"],
)


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "template"
    assert main(["synth", "--out", str(root), "--queries", "4", "--raters", "3", "--seed", "8",
                 "--preferences", "6", "--rater-noise", "0.2"]) == 0
    return root


def mutate(root, rng):
    """Apply one seeded mutation to one of the dataset's files that still exists."""
    path = rng.choice(sorted(root.iterdir()))
    kind = rng.choice(MUTATIONS)
    if kind == "delete":
        path.unlink()
        return
    data = path.read_bytes()
    if kind == "byte":
        at = rng.randrange(len(data) + 1)
        path.write_bytes(data[:at] + rng.choice(STRAY_BYTES) + data[at:])
        return
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split(b"\t")
        fields[rng.randrange(len(fields))] = b"" if kind == "blank" else rng.choice(BAD_VALUES)
        lines[i] = b"\t".join(fields)
    path.write_bytes(b"\n".join(lines))


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own errors exit 2
        return exc.code


@pytest.mark.parametrize("seed", range(60))
def test_mutated_dataset_exits_with_a_documented_code(template, tmp_path, seed):
    rng = random.Random(seed)
    data = tmp_path / "data"
    shutil.copytree(template, data)
    for _ in range(rng.randint(1, 3)):  # at most three of the six files go
        mutate(data, rng)
    option = rng.choice(SYNTH_OPTIONS)
    synth = ["synth", "--out", "{out}", "--queries", "2", "--raters", "2", "--seed", "1",
             option, rng.choice(BAD_VALUES).decode("utf-8", "replace")]
    for k, argv in enumerate((*COMMANDS, synth)):
        argv = [arg.format(d=data, out=tmp_path / f"out{k}") for arg in argv]
        assert run(argv) in (0, 1, 2, 3), argv
