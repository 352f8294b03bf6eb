"""Self-time spans and exact call counts at prefeval's module boundaries.

The tracer patches public functions from outside the package, at the
module where each caller looks the name up, and restores them on exit.
A name that a module no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Hook(NamedTuple):
    module: str
    attr: str
    span: Optional[str]  # span that owns the call's self time; None counts calls only
    counter: str


# Where each layer is entered.  ``prefeval.pir`` is fetched with
# importlib because the package re-exports the function ``pir`` under the
# same name as the module.  unit_relevance and conflate run millions of
# times per pass, so they are only counted: their time stays in the self
# time of judged_lists, the resolve span that calls them, and a span per
# call would more than double the traced pass.
LAYER_HOOKS = (
    Hook("prefeval.synth", "generate_synthetic", "synth.generate", "synth.generate_calls"),
    Hook("prefeval.cli", "main", "cli", "cli.calls"),
    Hook("prefeval.cli", "load_dataset", "data_io.parse", "data_io.loads"),
    Hook("prefeval.data_io", "load_dataset", "data_io.parse", "data_io.loads"),
    Hook("prefeval.data_io", "validate", "dataset.validate", "dataset.validate_calls"),
    Hook("prefeval.data_io", "write_dataset", "data_io.write", "data_io.writes"),
    Hook("prefeval.cli", "pir_sweep", "pir.sweep", "pir.sweep_calls"),
    Hook("prefeval.pir", "pir", "pir.aggregate", "pir.aggregate_calls"),
    Hook("prefeval.scoring", "judged_lists", "scoring.resolve", "scoring.resolve_calls"),
    Hook("prefeval.scoring", "unit_relevance", None, "scoring.lookups"),
    Hook("prefeval.scoring", "conflate", None, "scales.conflate_calls"),
    Hook("prefeval.scoring", "metric_score", "metrics.score", "metrics.score_calls"),
    Hook("prefeval.plotsvg", "write_line_chart", "plotsvg.write", "plotsvg.charts"),
    Hook("prefeval.implicit", "implicit_pir", "implicit.pir", "implicit.pir_calls"),
    Hook("prefeval.implicit", "descriptive_stats", "implicit.stats", "implicit.stats_calls"),
)

# The one boundary an untraced run times: dataset loading inside the CLI.
LOAD_HOOKS = (Hook("prefeval.cli", "load_dataset", "data_io.parse", "data_io.loads"),)


class Tracer:
    """Accumulates self seconds per span and calls per counter while installed.

    A span's self time is its wall time minus the wall time of the spans
    it calls.  Use as a context manager; hooks are removed on exit.
    """

    def __init__(self, hooks=LAYER_HOOKS, clock: Callable[[], float] = time.perf_counter):
        self.hooks = tuple(hooks)
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.elapsed: list[float] = []  # wall time of each outermost span
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr, None)
            if original is None:
                continue
            self._saved.append((module, hook.attr, original))
            if hook.span is None:
                setattr(module, hook.attr, self._counted(hook.counter, original))
            else:
                setattr(module, hook.attr, self._spanned(hook.span, hook.counter, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _counted(self, counter: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, span: str, counter: str, fn: Callable) -> Callable:
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, self.clock

        def spanned(*args, **kwargs):
            calls[counter] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.elapsed.append(elapsed)

        return spanned
