"""Every golden command line still gives the exit code, output and files its digest pins."""

import pytest

import golden

DIGESTS = golden.load()


def test_every_command_has_a_digest():
    assert list(DIGESTS) == golden.COMMANDS


@pytest.mark.parametrize("command", golden.COMMANDS)
def test_command_matches_its_digest(command):
    assert golden.run(command) == DIGESTS[command], (
        f"{command}: run `python tests/golden.py --update` if the change is intended")
