"""Every golden command line still gives the exit code, output and files its digest pins."""

import random

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


# Every golden command line that reads a dataset and exits 0 on it.
READERS = [command for command in golden.COMMANDS
           if "{data}" in command and DIGESTS[command]["exit"] == 0]


@pytest.fixture(scope="module")
def shuffled(tmp_path_factory):
    """The golden datasets with the record lines of every file shuffled, each header kept."""
    root = tmp_path_factory.mktemp("shuffled")
    rng = random.Random(25)
    for fixture in sorted(path for path in golden.DATA.iterdir() if path.is_dir()):
        (root / fixture.name).mkdir()
        for path in sorted(fixture.iterdir()):
            header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
            order = records[:]
            while len(records) > 1 and records == order:
                rng.shuffle(records)
            (root / fixture.name / path.name).write_text(header + "".join(records),
                                                         encoding="utf-8")
    return root


@pytest.mark.parametrize("command", READERS)
def test_record_order_cannot_change_a_command(command, shuffled):
    """A command gives the same exit, output and files whatever order its dataset's lines are in.

    ``eval`` prints its query rows in list-file order and ``validate`` its
    report lines in record order, so their lines are compared as multisets.
    """
    runs = [golden.outputs(command), golden.outputs(command, shuffled)]
    if command.startswith(("eval ", "validate ")):
        runs = [(code, sorted(out.splitlines()), sorted(err.splitlines()), files)
                for code, out, err, files in runs]
    assert runs[1] == runs[0]
