"""Every golden command line still gives the exit code, output and files its digest pins."""

import pytest

import golden
from prefeval.cli import main

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
