"""README's "Library use" example runs as printed, and its golden count holds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import golden
import prefeval

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(prefeval.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", library_example()],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [int(row[0]) for row in rows] == list(range(1, 11))
    assert all(len(row) == 3 for row in rows)


def test_golden_command_count_matches_the_suite():
    stated = re.findall(r"`tests/test_golden\.py` runs (\d+) fixed command lines",
                        README.read_text())
    assert stated == [str(len(golden.COMMANDS))]
