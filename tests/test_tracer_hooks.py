"""The benchmark tracer's hooks name functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

from prefeval.cli import main
from prefeval.data_io import FILE_NAMES, load_dataset

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
GOLDEN_CLEAN = ROOT / "tests" / "fixtures" / "golden" / "clean"

# Hooks whose targets were renamed, moved or deleted; until the tracer follows
# them, their layer metrics read 0.
KNOWN_STALE = {("prefeval.scoring", "conflate"), ("prefeval.scoring", "metric_score"),
               ("prefeval.scoring", "judged_lists"), ("prefeval.scoring", "unit_relevance")}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_hook_target_resolves_but_the_known_stale_ones():
    tracer = _tracer()
    hooks = {(hook.module, hook.attr) for hook in (*tracer.LAYER_HOOKS, *tracer.LOAD_HOOKS)}
    unresolved = {(module, attr) for module, attr in hooks
                  if not callable(getattr(importlib.import_module(module), attr, None))}
    assert unresolved <= KNOWN_STALE


def test_a_cli_sweep_loads_once_through_the_timed_load_hook(tmp_path):
    tracer = _tracer()
    with tracer.Tracer(tracer.LOAD_HOOKS) as traced:
        assert main(["sweep", str(GOLDEN_CLEAN), "--out", str(tmp_path)]) == 0
    assert traced.calls["data_io.loads"] == 1


def test_load_dataset_by_default_keeps_every_session_and_click():
    """The benchmark's io workload checks stats and session measures against this load."""
    def records(kind):
        return len((GOLDEN_CLEAN / FILE_NAMES[kind]).read_text().splitlines()) - 1

    sessions = load_dataset(GOLDEN_CLEAN).sessions
    assert len(sessions) == records("sessions") > 0
    assert sum(len(s.clicks) for s in sessions) == records("clicks") > 0
