"""Benchmark for ``tsadkit run``: end-to-end metrics and per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload uae_synth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 0

Each workload's config and data files are generated from ``--seed`` (see
workloads.py) under perfbench/.work, outside any timed region, and reused
while the seed stays the same. The program runs from ``src/`` unbuilt.

``--trace 0`` times whole ``python -m tsadkit.cli run`` subprocesses, one
client at a time, after one warm-up run, until ``--seconds`` have passed
and at least five runs are done, and reports medians. The first five runs
each follow a set-up probe: a fresh interpreter that imports ``tsadkit.cli``
and loads the config.

``--trace 1`` alternates an untraced CLI run with a traced one (traced.py),
which records a span around every call from the experiment runner into a
layer, and reports per-layer medians over the traced runs.

Every run is checked: exit code 0, no failed cells, and ``results.json``
bytes identical across all runs of the workload, traced or not. A traced
run must also record every layer the workload exercises. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the details: environment, input and results
digests, and every run's raw times.

Which layer should move which end-to-end metric, and where:

    models.fit_s, fit_s_per_epoch     run_s on uae_synth
    ingest.load_s, mcells_per_s       run_s, peak_rss_mb on csv_pca
    experiment.self_s, process.cpu_s  run_s on csv_pca (the only pool user)
    scoring, thresholding, metrics,   run_s on long_stream; peak_rss_mb there
      diagnosis.rank_s                  is the highest of all workloads
    cli.import_s                      setup_s, and so run_s, everywhere

``ingest.load_s`` covers both ways an entity is made: reading its CSV files
or generating it. Counts and ratios with nothing to count (CSV cells on
synthetic inputs, training epochs of PCA and raw models) read 0.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (sibling module of this script)

END_TO_END = {
    "run_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "fc1": "score",
    "auprc": "score",
    "rc_top_k": "score",
}
PER_LAYER = {
    "ingest.load_s": "s",
    "ingest.mcells_per_s": "Mcells/s",
    "ingest.normalize_s": "s",
    "models.fit_s": "s",
    "models.epochs": "count",
    "models.fit_s_per_epoch": "s",
    "models.useful_epoch_frac": "fraction",
    "models.residuals_s": "s",
    "scoring.score_s": "s",
    "thresholding.threshold_s": "s",
    "thresholding.calls": "count",
    "metrics.report_s": "s",
    "metrics.calls": "count",
    "metrics.kept_frac": "fraction",
    "diagnosis.rank_s": "s",
    "diagnosis.events": "count",
    "diagnosis.rank_s_per_event": "s",
    "diagnosis.summary_s": "s",
    "experiment.self_s": "s",
    "experiment.emit_s": "s",
    "process.cpu_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}
# Every workload calls every layer, so a traced run that misses one of these
# spans means a wrapper no longer sits on the path the program takes.
EXPECTED_SPANS = (
    "cli.main", "experiment.run", "experiment.emit", "ingest.load", "ingest.normalize",
    "models.fit", "models.residuals", "scoring.score", "thresholding.threshold",
    "metrics.report", "diagnosis.rank", "diagnosis.summary",
)
QUALITY = ("fc1", "auprc", "rc_top_k")
MIN_RUNS = 5
SETUP_PROBES = 5
# Every invocation on one workload ends well inside three minutes, even
# when a run hangs: child timeouts are cut to what is left of this budget.
BUDGET_S = 170.0
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = "import sys, tsadkit.cli as cli; cli.config_from_json(sys.argv[1])"


def environment() -> dict:
    """Machine and library facts; BLAS thread variables are read, never set."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {k: os.environ.get(k) for k in ENV_KEYS}
    env.update({k: v for k, v in sorted(os.environ.items()) if k.startswith("TSADKIT_")})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": env,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(cmd: list[str], log: Path, deadline: float) -> dict:
    """Run one child to completion; wall time from spawn to reaped exit."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "timed_out": timed_out.is_set(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def _run_args(wl: workloads.Workload, out: Path) -> list[str]:
    args = ["--config", wl.config_path, "--out", out.relative_to(ROOT).as_posix()]
    if wl.workers > 1:
        args += ["--workers", str(wl.workers)]
    return args


class Session:
    """Runs of one workload in one invocation, with their correctness checks."""

    def __init__(self, wl: workloads.Workload, deadline: float):
        self.wl = wl
        self.deadline = deadline
        self.dir = ROOT / wl.run_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.problems: list[str] = []
        self.results_bytes: bytes | None = None
        self.results: dict = {}
        self.attempted = 0
        self.failed = 0

    def _check_run(self, kind: str, run: dict, out: Path) -> None:
        self.attempted += self.wl.cells
        path = out / "results.json"
        if run["code"] != 0 or not path.is_file():
            self.failed += self.wl.cells
            log = (self.dir / f"{kind}.log").read_text(errors="replace")[-400:]
            reason = "timed out" if run["timed_out"] else f"exit code {run['code']}"
            self.problems.append(f"{kind} run: {reason}: {log}")
            return
        data = path.read_bytes()
        payload = json.loads(data)
        self.failed += len(payload["failures"])
        if payload["failures"]:
            self.problems.append(f"{kind} run: failed cells {payload['failures']}")
        if len(payload["cells"]) + len(payload["failures"]) != self.wl.cells:
            self.problems.append(f"{kind} run: expected {self.wl.cells} cells")
        if self.results_bytes is None:
            self.results_bytes, self.results = data, payload
        elif data != self.results_bytes:
            self.problems.append(f"{kind} run: results.json bytes differ from the first run")

    def _fresh_out(self, kind: str) -> Path:
        out = self.dir / kind
        out.mkdir(exist_ok=True)
        (out / "results.json").unlink(missing_ok=True)
        return out

    def untraced(self) -> dict:
        out = self._fresh_out("untraced")
        cmd = [sys.executable, "-m", "tsadkit.cli", "run", *_run_args(self.wl, out)]
        run = spawn(cmd, self.dir / "untraced.log", self.deadline)
        self._check_run("untraced", run, out)
        return run

    def setup_probe(self) -> float:
        cmd = [sys.executable, "-c", SETUP_PROBE, self.wl.config_path]
        run = spawn(cmd, self.dir / "setup.log", self.deadline)
        if run["code"] != 0:
            self.problems.append(f"set-up probe: exit code {run['code']}")
        return run["wall_s"]

    def traced(self) -> tuple[dict, dict]:
        out = self._fresh_out("traced")
        spans_path = self.dir / "spans.json"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--",
               *_run_args(self.wl, out)]
        run = spawn(cmd, self.dir / "traced.log", self.deadline)
        self._check_run("traced", run, out)
        if not spans_path.is_file():
            return run, {"import_s": 0.0, "spans": [], "missing": []}
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        seen = {s["name"] for s in trace["spans"]}
        absent = [name for name in EXPECTED_SPANS if name not in seen]
        if absent:
            self.problems.append(
                f"traced run recorded no span for {absent}; "
                f"names no longer found to wrap: {trace['missing']}"
            )
        return run, trace

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(trace: dict, kept_reports: int) -> dict:
    """Per-layer numbers from one traced run's spans."""
    spans = trace["spans"]
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: Counter = Counter()
    for s in spans:
        busy[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        attrs.update(s.get("attrs", {}))
    runs = [i for i, s in enumerate(spans) if s["name"] == "experiment.run"]
    self_s = 0.0
    for i in runs:
        children = [(s["start"], s["end"]) for s in spans if s["parent"] == i]
        self_s += spans[i]["end"] - spans[i]["start"] - _union_length(children)

    def per(num, den):
        return num / den if den else 0.0

    return {
        "ingest.load_s": busy["ingest.load"],
        "ingest.mcells_per_s": per(attrs["csv_cells"] / 1e6, busy["ingest.load"]),
        "ingest.normalize_s": busy["ingest.normalize"],
        "models.fit_s": busy["models.fit"],
        "models.epochs": attrs["epochs"],
        # a closed-form fit (PCA, raw) counts as one epoch
        "models.fit_s_per_epoch": busy["models.fit"] / max(attrs["epochs"], 1),
        "models.useful_epoch_frac": per(attrs["useful_epochs"], attrs["epochs"]),
        "models.residuals_s": busy["models.residuals"],
        "scoring.score_s": busy["scoring.score"],
        "thresholding.threshold_s": busy["thresholding.threshold"],
        "thresholding.calls": calls["thresholding.threshold"],
        "metrics.report_s": busy["metrics.report"],
        "metrics.calls": calls["metrics.report"],
        "metrics.kept_frac": per(kept_reports, calls["metrics.report"]),
        "diagnosis.rank_s": busy["diagnosis.rank"],
        "diagnosis.events": calls["diagnosis.rank"],
        "diagnosis.rank_s_per_event": per(busy["diagnosis.rank"], calls["diagnosis.rank"]),
        "diagnosis.summary_s": busy["diagnosis.summary"],
        "experiment.self_s": self_s,
        "experiment.emit_s": busy["experiment.emit"],
        "cli.import_s": trace["import_s"],
    }


def _median(values) -> float:
    return float(statistics.median(values))


def measure(wl: workloads.Workload, seconds: float, trace: bool, deadline: float):
    """Run one workload; returns (metrics, session, raw run records)."""
    session = Session(wl, deadline)
    raw: dict[str, list] = {"untraced": [], "setup_s": [], "traced": []}
    if not trace:
        # the first run after input generation is reliably slow; it is checked
        # like every other run but left out of the medians
        raw["warmup"] = [session.untraced()]
        start = time.monotonic()
        # past the deadline a run is still made, but its child is killed at once
        while not raw["untraced"] or session.time_left() and (
            len(raw["untraced"]) < MIN_RUNS or time.monotonic() - start < seconds
        ):
            if len(raw["setup_s"]) < SETUP_PROBES:
                raw["setup_s"].append(session.setup_probe())
            raw["untraced"].append(session.untraced())
        walls = [r["wall_s"] for r in raw["untraced"]]
        run_s = _median(walls)
        overall = session.results.get("aggregates", {}).get("overall", {})
        metrics = {
            "run_s": run_s,
            "rows_per_s": wl.test_rows / run_s,
            "setup_s": _median(raw["setup_s"]),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in raw["untraced"]),
            "ok_frac": 1.0 - session.failed / max(session.attempted, 1),
        }
        for key in QUALITY:
            value = overall.get(key)
            if not isinstance(value, float) or not 0.0 < value <= 1.0:
                session.problems.append(f"overall {key} is {value!r}, expected in (0, 1]")
                value = 0.0
            metrics[key] = value
        return metrics, session, raw

    layers = []
    start = time.monotonic()
    while not layers or session.time_left() and time.monotonic() - start < seconds:
        raw["untraced"].append(session.untraced())
        run, spans = session.traced()
        raw["traced"].append(run)
        layers.append(layer_metrics(spans, len(session.results.get("cells", ()))))
    metrics = {name: _median(m[name] for m in layers) for name in layers[0]}
    metrics["process.cpu_s"] = _median(r["cpu_s"] for r in raw["untraced"])
    metrics["trace.overhead_s"] = _median(r["wall_s"] for r in raw["traced"]) - _median(
        r["wall_s"] for r in raw["untraced"]
    )
    return {name: metrics[name] for name in PER_LAYER}, session, raw


def _sha256(data: bytes | None) -> str | None:
    return hashlib.sha256(data).hexdigest() if data is not None else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "tsadkit" / "cli.py").is_file():
        print(f"error: no tsadkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    env = environment()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = []
    for name in names:
        wl = workloads.build(name, args.seed, WORK, ROOT, smoke=args.smoke)
        inputs_sha256 = wl.input_sha256(ROOT)
        deadline = time.monotonic() + BUDGET_S
        metrics, session, raw = measure(wl, args.seconds, bool(args.trace), deadline)
        results_sha256 = _sha256(session.results_bytes)
        runs = len(raw["untraced"])
        print(f"== {name} (seed {args.seed}, trace {args.trace}, {runs} untraced runs, "
              f"{len(raw['traced'])} traced runs)")
        for key, value in metrics.items():
            print(f"{name:12s} {key:28s} {value:16.6f} {units[key]}")
        if not args.trace:
            failed_frac = session.failed / max(session.attempted, 1)
            print(f"{name:12s} {'failed_frac':28s} {failed_frac:16.6f} fraction")
        print(f"{name:12s} inputs sha256 {inputs_sha256}")
        print(f"{name:12s} results.json sha256 {results_sha256}")
        for problem in session.problems:
            print(f"{name:12s} FAILED CHECK: {problem}")
        details.append({
            "workload": name,
            "seed": args.seed,
            "inputs_sha256": inputs_sha256,
            "results_sha256": results_sha256,
            "runs": raw,
            "problems": session.problems,
        })
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
        result["correct"] = result["correct"] and not session.problems
        result["attempted"] += session.attempted
        result["failed"] += session.failed
    print(json.dumps({"env": env, "workloads": details}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
