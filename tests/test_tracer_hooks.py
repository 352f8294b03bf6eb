"""The benchmark tracer's hooks name functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Hooks whose targets were renamed, moved or deleted; until the tracer follows
# them, their layer metrics read 0.
KNOWN_STALE = {("prefeval.scoring", "conflate"), ("prefeval.scoring", "metric_score"),
               ("prefeval.scoring", "judged_lists"), ("prefeval.scoring", "unit_relevance")}


def test_every_hook_target_resolves_but_the_known_stale_ones():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = {(hook.module, hook.attr) for hook in (*tracer.LAYER_HOOKS, *tracer.LOAD_HOOKS)}
    unresolved = {(module, attr) for module, attr in hooks
                  if not callable(getattr(importlib.import_module(module), attr, None))}
    assert unresolved <= KNOWN_STALE
