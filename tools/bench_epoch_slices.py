"""Benchmark autoencoder training in per-epoch slices against a parent tree.

Usage, from the repository root, with the parent commit checked out in a
sibling directory whose path has the same length as this checkout's:

    python3 tools/bench_epoch_slices.py --parent ../parent --change . \
        --out BENCH_epoch_slices.json

Make both trees the same way (two git clones): a copy of the change
without its ``.git`` directory read csv_pca's ``setup_s`` ~20% slower
than a git clone of the parent in 6 of 6 ``perfbench/run.py`` pairs,
while a git clone holding the same ``src/`` read faster in 4 of 6.

Every measurement runs in a fresh interpreter on one tree's ``src/``, and
each pair runs both trees back to back, alternating which goes first:

- ``perfbench/run.py --workload uae_synth --trace 0`` at two seeds, and
  ``--trace 1`` at the first, for the end-to-end metrics, the per-layer
  spans and the ``results.json`` digest;
- ``csv_pca`` and ``long_stream``, which train no model, as a control;
- two skewed early-stopping UAE fits (8 channels, 5,000 rows, W = 100,
  max_epochs 100, patience 10), where the rows only validation reads
  change frequency in 4 channels, so those stop after ~14-17 epochs while
  the other 4 run all 100: the fast channels first (0-3), or fast and
  slow alternating (0, 2, 4, 6);
- a 32-channel UAE fit on uniform noise (5,000 rows, W = 100, 5 epochs).

A fit reports its time, the interpreter's peak RSS and a digest of every
weight and report, which must be equal on both trees; each tree's fits
run that tree's own copy of this script. The output records
the machine: cores, Python, numpy and its BLAS, and the thread variables.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

FIT_CASES = ("fast_first", "alternating", "wide32")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fit_inputs(case: str):
    """The (values, config, window) of a fit case, seeded."""
    import numpy as np

    from tsadkit.ingest import WindowSpec
    from tsadkit.models import ModelConfig

    n, w = 5000, 100
    rng = np.random.default_rng(11)
    if case == "wide32":
        return rng.random((n, 32)), ModelConfig("uae", max_epochs=5), WindowSpec(w, 1)
    t = np.arange(n)
    periods = rng.uniform(20.0, 90.0, 8)
    values = np.sin(2 * np.pi * t[:, None] / periods) + 0.1 * rng.standard_normal((n, 8))
    fast = [0, 1, 2, 3] if case == "fast_first" else [0, 2, 4, 6]
    # the first row that only validation windows read
    first = w + int(0.75 * (n - w + 1))
    values[first:, fast] = (np.sin(2 * np.pi * t[first:, None] / (periods[fast] / 3.0))
                            + 0.1 * rng.standard_normal((n - first, 4)))
    return (values + 1.5) / 3.0, ModelConfig("uae"), WindowSpec(w, 1)


def run_fit(case: str) -> dict:
    """One fit of ``case`` in this interpreter: time, peak RSS, digest."""
    from tsadkit.core import SeriesMatrix
    from tsadkit.models import fit

    values, config, window = _fit_inputs(case)
    series = SeriesMatrix(values)
    start = time.perf_counter()
    model = fit(series, config, window, seed=1)
    fit_s = time.perf_counter() - start
    digest = hashlib.sha256()
    digest.update(model.params.tobytes())
    digest.update(repr(model.fit_reports).encode())
    return {
        "fit_s": fit_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "epochs_run": [r.epochs_run for r in model.fit_reports],
        "digest": digest.hexdigest()[:16],
    }


def _in_tree(tree: Path, args: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return done.stdout


def _fit_in(tree: Path, case: str) -> dict:
    # the tree's own copy of this script, which reads that tree's model API
    out = _in_tree(tree, [sys.executable, "tools/bench_epoch_slices.py", "fit", case])
    return json.loads(out.strip().splitlines()[-1])


def _perfbench_in(tree: Path, workload: str, seed: int, trace: int, seconds: int) -> dict:
    out = _in_tree(tree, [sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    details, final = (json.loads(line) for line in out.strip().splitlines()[-2:])
    # the end-to-end metrics, or with --trace 1 the per-layer spans
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    (work,) = details["workloads"]
    return {"metrics": metrics, "results_sha256": work["results_sha256"]}


def _pairs(count: int, measure) -> list[dict]:
    """``count`` (parent, change) pairs of ``measure(side)``, alternating
    which side runs first."""
    pairs = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: measure(side) for side in order}
        pairs.append({side: pair[side] for side in ("parent", "change")})
    return pairs


def _metric(run: dict, name: str):
    """A metric of a perfbench run, or a field of a fit."""
    return run["metrics"].get(name) if "metrics" in run else run.get(name)


def _summary(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: medians and quartiles of each side, and the pairs in
    which the change is better (``metrics`` says which way is better)."""
    out = {}
    for name, better in metrics.items():
        sides = {s: [_metric(p[s], name) for p in pairs] for s in ("parent", "change")}
        if any(v is None for vs in sides.values() for v in vs):
            continue
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        row = {}
        for side, vs in sides.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            row[f"{side}_median"] = round(statistics.median(vs), 4)
            row[f"{side}_q1_q3"] = [round(q[0], 4), round(q[2], 4)]
        row["change_better"] = f"{wins}/{len(pairs)}"
        out[name] = row
    return out


END_TO_END = {"run_s": "lower", "rows_per_s": "higher", "setup_s": "lower",
              "peak_rss_mb": "lower", "ok_frac": "higher", "fc1": "higher",
              "auprc": "higher", "rc_top_k": "higher"}
LAYERS = {"models.fit_s": "lower", "models.residuals_s": "lower", "scoring.score_s": "lower",
          "models.epochs": "lower", "process.cpu_s": "lower"}


def _machine() -> dict:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command")
    one = sub.add_parser("fit", help="time one fit in this interpreter")
    one.add_argument("case", choices=FIT_CASES)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--out", type=Path, default=Path("BENCH_epoch_slices.json"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--fit-pairs", type=int, default=5)
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.command == "fit":
        print(json.dumps(run_fit(args.case)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"machine": _machine(), "command": {
        "perfbench": "python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {args.seconds} --trace T",
        "fit": "python3 tools/bench_epoch_slices.py fit CASE",
        "note": "each pair runs both trees back to back, alternating which goes "
                "first; each perfbench figure is the median of one invocation; "
                "quartiles are over the pairs",
    }}

    def bench(workload, seed, trace, count):
        pairs = _pairs(count, lambda side: _perfbench_in(
            trees[side], workload, seed, trace, args.seconds))
        shas = {side: sorted({p[side]["results_sha256"][:8] for p in pairs})
                for side in trees}
        metrics = LAYERS if trace else END_TO_END
        return {"pairs": count, "results_sha256": shas, "summary": _summary(pairs, metrics),
                "runs": [{side: p[side]["metrics"] for side in trees} for p in pairs]}

    report["uae_synth"] = {f"seed{s}": bench("uae_synth", s, 0, args.pairs) for s in seeds}
    report["uae_synth_traced"] = bench("uae_synth", seeds[0], 1, max(3, args.pairs // 3))
    for workload in ("csv_pca", "long_stream"):
        report[workload] = bench(workload, seeds[0], 0, max(3, args.pairs // 2))
    report["fits"] = {}
    for case in FIT_CASES:
        count = args.fit_pairs if case != "wide32" else max(3, args.fit_pairs // 2)
        pairs = _pairs(count, lambda side: _fit_in(trees[side], case))
        report["fits"][case] = {
            "pairs": count,
            "digests": {side: sorted({p[side]["digest"] for p in pairs}) for side in trees},
            "epochs_run": pairs[0]["change"]["epochs_run"],
            "summary": _summary(pairs, {"fit_s": "lower", "peak_rss_mb": "lower"}),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
