"""Every golden command line still gives the exit code, output and files its digest pins."""

import random
import shutil
from pathlib import Path

import pytest

import golden
from prefeval.cli import main
from prefeval.data_io import read_dataset, write_dataset

DIGESTS = golden.load()


def test_every_command_has_a_digest():
    assert list(DIGESTS) == golden.COMMANDS


@pytest.mark.parametrize("command", golden.COMMANDS)
def test_command_matches_its_digest(command):
    assert golden.run(command) == DIGESTS[command], (
        f"{command}: run `python tests/golden.py --update` if the change is intended")


@pytest.mark.parametrize("name", golden.FIXTURES)
def test_fixture_recipe_writes_the_checked_in_files(name, tmp_path):
    assert main(golden.FIXTURES[name].format(out=tmp_path).split()) == 0
    fixture = golden.DATA / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in fixture.iterdir())
    for path in fixture.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


# every checked-in dataset: the two hand-built worked examples and the golden ones
CHECKED_IN = [golden.ROOT / "fixtures" / "pir_sample", golden.ROOT / "fixtures" / "map_sample",
              *sorted(path for path in golden.DATA.iterdir() if path.is_dir())]


@pytest.mark.parametrize("fixture", CHECKED_IN, ids=lambda path: path.name)
def test_checked_in_dataset_is_a_fixed_point_of_read_and_write(fixture, tmp_path):
    write_dataset(read_dataset(fixture), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in fixture.iterdir())
    for path in fixture.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("source", ["same-user", "other-users"])
def test_verdict_file_order_cannot_change_a_sweep(source, tmp_path, monkeypatch, capsys):
    # noisy as written (sorted by query) and with its verdict records shuffled, header kept
    runs = []
    for shuffled in (False, True):
        root = tmp_path / ("shuffled" if shuffled else "sorted")
        shutil.copytree(golden.DATA / "noisy", root / "noisy")
        if shuffled:
            path = root / "noisy" / "preferences.tsv"
            header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
            order = records[:]
            random.Random(25).shuffle(records)
            assert records != order
            path.write_text(header + "".join(records), encoding="utf-8")
        monkeypatch.chdir(root)
        code = main(f"sweep noisy {golden.ALL_DISCOUNTS} --rating-source {source}"
                    " --plot --out out".split())
        out, err = capsys.readouterr()
        files = {str(path): path.read_bytes()
                 for path in sorted(Path("out").rglob("*")) if path.is_file()}
        runs.append((code, out, err, files))
    assert runs[0][0] == 0 and runs[0][3]
    assert runs[1] == runs[0]
