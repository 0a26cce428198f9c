"""Run ``tsadkit run`` in this process with a span around every layer call.

Usage: python perfbench/traced.py SPANS_JSON -- <tsadkit run arguments>

The program's source is untouched: the tracer replaces, from outside, the
names through which ``tsadkit.experiment`` (and ``tsadkit.cli``) reach each
layer, and times every call as a span. Spans stay in memory and are written
to SPANS_JSON when the run ends, together with the time ``import
tsadkit.cli`` took in this fresh interpreter.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (module, attribute) -> span name. Attributes are the names the experiment
# runner and the CLI bind at import; a wrapper on the defining module would
# miss these calls.
WRAPPED = {
    ("experiment", "load_entity"): "ingest.load",
    ("experiment", "generate_synthetic"): "ingest.load",
    ("experiment", "fit_normalizer"): "ingest.normalize",
    ("experiment", "apply_normalizer"): "ingest.normalize",
    ("experiment", "fit"): "models.fit",
    ("experiment", "residuals"): "models.residuals",
    ("experiment", "fit_gauss"): "scoring.score",
    ("experiment", "score_error"): "scoring.score",
    ("experiment", "score_gauss_s"): "scoring.score",
    ("experiment", "score_gauss_d"): "scoring.score",
    ("experiment", "score_gauss_d_k"): "scoring.score",
    ("experiment", "threshold_best_f"): "thresholding.threshold",
    ("experiment", "threshold_top_k"): "thresholding.threshold",
    ("experiment", "threshold_tail_p"): "thresholding.threshold",
    ("experiment", "compute_report"): "metrics.report",
    ("experiment", "rank_channels"): "diagnosis.rank",
    ("experiment", "rc_top_k"): "diagnosis.summary",
    ("experiment", "hitrate_at"): "diagnosis.summary",
    ("cli", "run_experiment"): "experiment.run",
    ("cli", "emit_results"): "experiment.emit",
}


def _load_attrs(result) -> dict:
    # CSV cells parsed: every channel cell of both files plus the label column
    return {"csv_cells": result.train.values.size + result.test.values.size + result.test.n}


def _fit_attrs(result) -> dict:
    reports = result.fit_reports
    return {
        "epochs": sum(r.epochs_run for r in reports),
        "useful_epochs": sum(r.best_epoch + 1 for r in reports),
    }


ATTRS = {("experiment", "load_entity"): _load_attrs, ("experiment", "fit"): _fit_attrs}


class Tracer:
    """In-memory span recorder; one span per wrapped call, any thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's first span hangs off whatever the main thread is in
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            record = {"name": name, "parent": parent}
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                record["attrs"] = attrs(result)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, sep, run_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <tsadkit run arguments>")
    t0 = time.perf_counter()
    import tsadkit.cli as cli
    import tsadkit.experiment as experiment

    import_s = time.perf_counter() - t0
    modules = {"cli": cli, "experiment": experiment}
    tracer = Tracer()
    missing = []
    for (module_name, attr), name in WRAPPED.items():
        module = modules[module_name]
        if not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
            continue
        attrs = ATTRS.get((module_name, attr))
        setattr(module, attr, tracer.span(name, getattr(module, attr), attrs))
    code = tracer.span("cli.main", cli.main)(["run", *run_args])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
