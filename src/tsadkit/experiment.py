"""Experiment orchestration: config, per-entity/seed cells, results.

Every (entity, seed) cell runs in two stages, deterministically per (config,
seed). The fit stage returns a fitted value: the normalizer fitted on the
training series, the l_w - 1 last rows of that series normalized, the
model trained on it and the model's errors on it. The evaluate stage only
reads that value. It scores the test series in one loop over row blocks,
each normalized, reconstructed, scored and (for gauss_d_k) smoothed with
the context rows its stages need carried over from the block before, so a
cell never holds a test-length copy of the channels and its series is the
whole-stream series bit for bit; then it thresholds, measures and
diagnoses. Failed cells are recorded and the rest still run. The results
payload carries no timestamps; timings live in the run metadata.
"""
from __future__ import annotations

import csv
import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .blas import blas_policy
from .core import (
    ConfigError,
    Entity,
    ErrorMatrix,
    FloatArray,
    SeriesMatrix,
    decode_config,
    encode_config,
    pool_map,
    read_json,
    validate_labels,
    write_atomic,
)
from .diagnosis import RANK_STATISTICS, hitrate_at, rank_channels, rc_top_k
from .ingest import (
    NormStats,
    SyntheticSpec,
    WindowSpec,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    load_entity,
)
from .metrics import compute_report, rad_scores
from .models import ModelConfig, ReconstructionModel, encoder_widths, fit, residuals
from .scoring import (
    KernelSpec,
    fit_gauss,
    last_rows,
    row_blocks,
    score_error,
    score_gauss_d,
    score_gauss_d_k,
    score_gauss_s,
)
from .thresholding import (
    BEST_F_METRICS,
    threshold_best_f,
    threshold_tail_p,
    threshold_top_k,
)

SCORING_KINDS = ("error", "gauss_s", "gauss_d", "gauss_d_k")
THRESHOLD_METHODS = ("best_f", "top_k", "tail_p")
TAIL_P_SWEEP = (1, 2, 3, 4, 5)
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class EntitySource:
    """File-backed entity: train/test CSV paths plus annotations."""

    id: str
    train: str
    test: str
    label_column: str = "label"
    cause_map: str | None = None
    scored_channels: tuple[str, ...] | None = None  # channel names; None scores all

    def __post_init__(self):
        if self.scored_channels == ():
            raise ConfigError("scored_channels must be non-empty; omit it to score all channels")


@dataclass(frozen=True)
class ScoringConfig:
    kind: str = "gauss_s"
    window: int | None = None       # W, required for gauss_d and gauss_d_k
    kernel_sigma: float | None = None  # sigma_k, required for gauss_d_k

    def __post_init__(self):
        if self.kind not in SCORING_KINDS:
            raise ConfigError(f"scoring kind must be one of {SCORING_KINDS}, got {self.kind!r}")
        if self.kind in ("gauss_d", "gauss_d_k"):
            if self.window is None or self.window < 2:
                raise ConfigError(
                    f"scoring kind {self.kind!r} needs a rolling window W >= 2"
                )
        elif self.window is not None:
            raise ConfigError(
                f"window is used only by gauss_d and gauss_d_k, got kind {self.kind!r}"
            )
        if self.kind == "gauss_d_k":
            if self.kernel_sigma is None or not (self.kernel_sigma > 0):
                raise ConfigError("gauss_d_k needs kernel_sigma > 0")
        elif self.kernel_sigma is not None:
            raise ConfigError(f"kernel_sigma is used only by gauss_d_k, got kind {self.kind!r}")


@dataclass(frozen=True)
class ThresholdConfig:
    method: str = "best_f"
    metric: str = "fc1"             # best_f target; also tail_p selection metric
    k: int | None = None            # top_k; None means the true positive count
    neg_log_eps: int | None = None  # tail_p; None sweeps 1..5

    def __post_init__(self):
        if self.method not in THRESHOLD_METHODS:
            raise ConfigError(
                f"threshold method must be one of {THRESHOLD_METHODS}, got {self.method!r}"
            )
        if self.metric not in BEST_F_METRICS:
            raise ConfigError(
                f"threshold metric must be one of {BEST_F_METRICS}, got {self.metric!r}"
            )
        if self.k is not None and self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if self.neg_log_eps is not None and self.neg_log_eps < 1:
            raise ConfigError(f"neg_log_eps must be >= 1, got {self.neg_log_eps}")
        for key, method in (("k", "top_k"), ("neg_log_eps", "tail_p")):
            if getattr(self, key) is not None and self.method != method:
                raise ConfigError(
                    f"{key} is used only by method {method}, got method {self.method!r}"
                )


@dataclass(frozen=True)
class DiagnosisConfig:
    enabled: bool = False
    top_k: int = 3
    percent: int = 150
    statistic: str = "mean"

    def __post_init__(self):
        if self.top_k < 1 or self.percent < 1:
            raise ConfigError("diagnosis top_k and percent must be >= 1")
        if self.statistic not in RANK_STATISTICS:
            raise ConfigError(
                f"diagnosis statistic must be one of {RANK_STATISTICS}, "
                f"got {self.statistic!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    entities: tuple[EntitySource, ...] = ()
    synthetic: tuple[SyntheticSpec, ...] = ()
    window: WindowSpec = WindowSpec()
    model: ModelConfig = ModelConfig()
    scoring: ScoringConfig = ScoringConfig()
    threshold: ThresholdConfig = ThresholdConfig()
    diagnosis: DiagnosisConfig = DiagnosisConfig()
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "results"

    def __post_init__(self):
        if not self.entities and not self.synthetic:
            raise ConfigError("config needs file entities or synthetic specs")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")
        ids = [e.id for e in self.entities] + [s.entity_id for s in self.synthetic]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"entity ids must be unique, got {ids}")
        if self.threshold.method == "tail_p" and self.scoring.kind == "error":
            # the m*neg_log_eps cut is on the -log10 tail probability scale
            # of the Gauss-family scores; a raw error has no such scale
            raise ConfigError(
                "threshold method 'tail_p' needs a Gauss-family scoring kind "
                "(gauss_s, gauss_d, gauss_d_k), got scoring kind 'error'"
            )
        # an autoencoder's input must be wider than its latent size, the rule
        # its layers apply at fit: window.length for a UAE (whose latent
        # default ignores m), window.length x m for an FC-AE. A file
        # entity's m is known only once its cell loads it, so an FC-AE is
        # checked here on the synthetic specs alone.
        length = self.window.length
        inputs = {
            "uae": [("", length, 1)],
            "fc_ae": [(f" x synthetic {s.entity_id!r} m {s.m}", length * s.m, s.m)
                      for s in self.synthetic],
        }.get(self.model.kind, [])
        for spanned, width, m in inputs:
            latent = self.model.resolved(m).latent_dim
            try:
                encoder_widths(width, latent)
            except ConfigError as exc:
                raise ConfigError(
                    f"{self.model.kind} window.length {length}{spanned} is too short "
                    f"for model.latent_dim {latent}: {exc}"
                ) from None

    def to_dict(self) -> dict:
        return encode_config(self)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed JSON dict."""
    return decode_config(ExperimentConfig, d)


def config_from_json(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


@dataclass(frozen=True)
class ResultsRecord:
    """A complete run: deterministic payload plus separate timing metadata."""

    config_digest: str
    config: dict
    cells: tuple[dict, ...]
    aggregates: dict
    failures: tuple[dict, ...]
    meta: dict

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_digest": self.config_digest,
            "config": self.config,
            "cells": list(self.cells),
            "aggregates": self.aggregates,
            "failures": list(self.failures),
        }


def _threshold_info(result) -> dict:
    # +inf is not valid JSON; the one threshold that predicts nothing
    threshold = None if result.threshold == float("inf") else result.threshold
    return {"method": result.method, "threshold": threshold, **result.metadata}


def _thresholds(series, truth, n_scored: int, tc: ThresholdConfig):
    """The cell's threshold candidates, one at a time: one for best_f, top_k
    and a fixed tail_p eps, one per eps of ``TAIL_P_SWEEP`` for the sweep."""
    if tc.method == "best_f":
        yield threshold_best_f(series, truth, tc.metric)
    elif tc.method == "top_k":
        yield threshold_top_k(series, tc.k if tc.k is not None else int(truth.sum()))
    else:
        for eps in TAIL_P_SWEEP if tc.neg_log_eps is None else (tc.neg_log_eps,):
            yield threshold_tail_p(series, n_scored, eps)


def diagnose_events(
    rows, events, scored, statistic: str, top_k: int, percent: int
) -> tuple[list, dict | None]:
    """Rank the scored channels over each event's own rows.

    ``rows`` holds, per event, the channel-score rows it spans. Returns
    one ranking per event, most anomalous channel first, and, when any
    event carries causes, a summary with ``rc_top_k``, ``hitrate``, ``k``
    and ``percent``; else None.
    """
    rankings = [rank_channels(span, scored, statistic) for span in rows]
    if not any(e.causes is not None for e in events):
        return rankings, None
    return rankings, {
        "rc_top_k": rc_top_k(rankings, events, top_k),
        "hitrate": hitrate_at(rankings, events, percent),
        "k": top_k,
        "percent": percent,
    }


@dataclass(frozen=True)
class _Fitted:
    """A cell's fit: its normalizer, the l_w - 1 last normalized training
    rows (none for raw and PCA), which the first test block is
    reconstructed with, its model and the model's training errors."""

    stats: NormStats
    lead: FloatArray
    model: ReconstructionModel
    train_err: ErrorMatrix


def _fit_cell(entity: Entity, seed: int, config: ExperimentConfig) -> _Fitted:
    """Fit a cell's normalizer and model on the entity's training series,
    and take the model's errors on it; the normalized series is dropped."""
    stats = fit_normalizer(entity.train)
    train_norm = apply_normalizer(entity.train, stats)
    model = fit(train_norm, config.model, config.window, seed)
    train_err = residuals(model, train_norm)
    keep = model.window_length - 1
    # a copy, which holds on to none of the normalized series
    lead = train_norm.values[train_norm.n - keep :].copy()
    return _Fitted(stats, lead, model, train_err)


def _error_blocks(entity: Entity, fitted: _Fitted):
    """(a, b, errors) per row block of the test series: the block
    normalized and reconstructed with the l_w - 1 normalized rows before
    it, from the training tail for the first block. A block's normalized
    rows are dropped before its errors are handed on."""
    test, lead = entity.test, fitted.lead
    names = test.channel_names
    keep = fitted.model.window_length - 1
    for a, b in row_blocks(test.n):
        x = apply_normalizer(SeriesMatrix(test.values[a:b], names), fitted.stats)
        tail = SeriesMatrix(lead, names) if keep else None
        err = residuals(fitted.model, x, train_tail=tail)
        if keep:
            lead = last_rows(lead, x.values, keep)
        del x
        yield a, b, err


def _gauss_d_blocks(blocks, train_err, w: int, scored):
    """gauss_d per error block, with the W - 1 error rows before it."""
    history = train_err
    for a, b, err in blocks:
        yield a, b, *score_gauss_d(err, history, w, scored)
        history = last_rows(history, err, w - 1)


def _smoothed_blocks(blocks, kernel: KernelSpec, scored, n: int):
    """gauss_d_k over gauss_d blocks: a row is smoothed once the kernel
    radius of rows after it has arrived, or the stream has ended, with the
    radius of rows before it carried over. Edges are replicated only at
    the stream's two ends."""
    r = kernel.radius
    held, first, done = None, 0, 0  # gauss_d rows [first, b); [0, done) smoothed
    for _, b, channels, _ in blocks:
        held = channels if held is None else np.concatenate([held, channels])
        ready = b if b == n else b - r
        if ready <= done:
            continue
        yield done, ready, *score_gauss_d_k(held, kernel, scored, (done - first, b - ready))
        keep = max(ready - r, 0)
        held, first, done = held[keep - first :], keep, ready


def _score_test(entity: Entity, fitted: _Fitted, sc: ScoringConfig, events):
    """The test side of a cell, block by block: the (n,) score series and,
    per event, the channel-score rows it spans."""
    n, m, scored = entity.test.n, entity.m, entity.scored_indices()
    train_err = fitted.train_err
    blocks = _error_blocks(entity, fitted)
    if sc.kind == "error":
        mean = train_err.mean(axis=0)
        scored_blocks = ((a, b, *score_error(err, mean, scored)) for a, b, err in blocks)
    elif sc.kind == "gauss_s":
        params = fit_gauss(train_err)
        scored_blocks = ((a, b, *score_gauss_s(err, params, scored)) for a, b, err in blocks)
    else:
        scored_blocks = _gauss_d_blocks(blocks, train_err, sc.window, scored)
        if sc.kind == "gauss_d_k":
            scored_blocks = _smoothed_blocks(
                scored_blocks, KernelSpec(sc.kernel_sigma), scored, n
            )

    series = np.empty(n)
    rows = [np.empty((e.length, m)) for e in events]
    first = 0  # events before it end before the rows written so far
    for lo, hi, channels, part in scored_blocks:
        series[lo:hi] = part
        while first < len(events) and events[first].end < lo:
            first += 1
        for e, span in zip(events[first:], rows[first:]):
            if e.start >= hi:
                break
            s, t = max(e.start, lo), min(e.end + 1, hi)
            span[s - e.start : t - e.start] = channels[s - lo : t - lo]
    return series, rows


def _evaluate_cell(entity: Entity, seed: int, fitted: _Fitted, config: ExperimentConfig) -> dict:
    """A cell's results entry from its fitted value, which it only reads."""
    truth = entity.test_labels
    scored = entity.scored_indices()
    dc = config.diagnosis
    # events with causes to diagnose; an entity with causes has events
    events = entity.test_events if dc.enabled and entity.causes else ()
    series, rows = _score_test(entity, fitted, config.scoring, events)

    cell: dict = {"entity": entity.id, "seed": seed, "candidates": []}
    ranking = None
    for result in _thresholds(series, truth, len(scored), config.threshold):
        # auroc and auprc depend on the scores alone: rank them once
        if ranking is None:
            report = compute_report(result.predictions, truth, series)
            ranking = {"auroc": report.auroc, "auprc": report.auprc}
        else:
            report = replace(compute_report(result.predictions, truth), **ranking)
        entry = {"threshold": _threshold_info(result), "metrics": asdict(report)}
        cell["candidates"].append(entry)

    if dc.enabled:
        cell["diagnosis"] = None
        if events:
            rankings, summary = diagnose_events(
                rows, events, scored, dc.statistic, dc.top_k, dc.percent
            )
            cell["diagnosis"] = {**summary, "rankings": [list(r) for r in rankings]}
    return cell


def _load(source: EntitySource | SyntheticSpec) -> Entity:
    if isinstance(source, SyntheticSpec):
        return generate_synthetic(source)
    return load_entity(
        source.train,
        source.test,
        label_column=source.label_column,
        cause_map=source.cause_map,
        entity_id=source.id,
        scored_channels=source.scored_channels,
    )


class _EntityLoad:
    """One entity, loaded for the first of its cells to ask and dropped when
    the last of them ends; the others wait for that load and share it."""

    def __init__(self, entity_id: str, source: EntitySource | SyntheticSpec, cells: int):
        self.entity_id = entity_id
        self.seconds = 0.0
        self._source = source
        self._cells = cells
        self._lock = threading.Lock()
        self._loaded = False
        self._entity: Entity | None = None
        self._error: str | None = None

    def get(self) -> tuple[Entity | None, str | None]:
        """The entity, or the ``"<id>: <Type>: <msg>"`` its load failed with."""
        with self._lock:
            if not self._loaded:
                t0 = time.monotonic()
                try:
                    self._entity = _load(self._source)
                except Exception as exc:  # one bad file fails only its own cells
                    self._error = f"{self.entity_id}: {type(exc).__name__}: {exc}"
                self.seconds = time.monotonic() - t0
                self._loaded = True
            return self._entity, self._error

    def release(self) -> None:
        with self._lock:
            self._cells -= 1
            if not self._cells:
                self._entity = None


def _pick(cells: list[dict], config: ExperimentConfig) -> None:
    """Keep one threshold candidate for the whole run in every cell: the
    first with the highest mean selection metric over the cells."""
    if not cells:
        return
    metric = config.threshold.metric
    means = [
        np.mean([c["candidates"][i]["metrics"][metric] for c in cells])
        for i in range(len(cells[0]["candidates"]))
    ]
    best = int(np.argmax(means))
    for cell in cells:
        cell.update(cell.pop("candidates")[best])


def _aggregate(cells: list[dict]) -> dict:
    def mean_or_none(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else None

    metric_keys = sorted({key for cell in cells for key in cell["metrics"]})
    per_entity: dict[str, dict] = {}
    for eid in dict.fromkeys(c["entity"] for c in cells):
        group = [c for c in cells if c["entity"] == eid]
        entry = {key: mean_or_none([c["metrics"][key] for c in group]) for key in metric_keys}
        diag = [c["diagnosis"] for c in group if c.get("diagnosis")]
        if diag:
            entry["rc_top_k"] = mean_or_none([d["rc_top_k"] for d in diag])
            entry["hitrate"] = mean_or_none([d["hitrate"] for d in diag])
        per_entity[eid] = entry

    overall_keys = sorted({key for entry in per_entity.values() for key in entry})
    overall = {
        key: mean_or_none([entry.get(key) for entry in per_entity.values()])
        for key in overall_keys
    }
    return {"per_entity": per_entity, "overall": overall}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ResultsRecord:
    """Execute every (entity, seed) cell and aggregate the reports.

    Cells run independently (optionally in a thread pool); a failing cell
    is recorded under ``failures`` and the rest of the run completes. Each
    cell scores every threshold candidate; the run then keeps one candidate
    index for all cells, the one maximizing the entity-and-seed-averaged
    selection metric. Only the tail-p sweep over 1..5 has more than one.
    """
    started = time.monotonic()
    sources = [(s.id, s) for s in config.entities] + [
        (s.entity_id, s) for s in config.synthetic
    ]
    loads = [_EntityLoad(eid, source, len(config.seeds)) for eid, source in sources]

    # tasks run in source order x seeds, the order of cells and failures, so
    # an entity's cells run together and it is held only while they run
    tasks = [(load, seed) for load in loads for seed in config.seeds]

    def execute(task):
        load, seed = task
        entity, error = load.get()
        t0 = time.monotonic()
        try:
            if error is not None:
                return None, None, error, None
            fitted = _fit_cell(entity, seed, config)
            cell = _evaluate_cell(entity, seed, fitted, config)
            return cell, fitted.model.fit_reports, None, time.monotonic() - t0
        except Exception as exc:  # cell isolation: record and continue
            return None, None, f"{type(exc).__name__}: {exc}", time.monotonic() - t0
        finally:
            load.release()

    outcomes = pool_map(execute, tasks, workers)

    ordered_cells: list[dict] = []
    ordered_failures: list[dict] = []
    timings: dict[str, float] = {}
    fit_reports: dict[str, list[dict]] = {}
    for (load, seed), (cell, reports, error, run_s) in zip(tasks, outcomes):
        if run_s is not None:
            timings[f"{load.entity_id}/{seed}"] = run_s
        if cell is not None:
            ordered_cells.append(cell)
            fit_reports[f"{load.entity_id}/{seed}"] = [asdict(r) for r in reports]
        else:
            ordered_failures.append({"entity": load.entity_id, "seed": seed, "error": error})

    _pick(ordered_cells, config)
    return ResultsRecord(
        config_digest=config.digest(),
        config=config.to_dict(),
        cells=tuple(ordered_cells),
        aggregates=_aggregate(ordered_cells),
        failures=tuple(ordered_failures),
        meta={
            "blas": blas_policy(),
            "fit_reports": fit_reports,
            "load_timings": {load.entity_id: load.seconds for load in loads},
            "timings": timings,
            "total_seconds": time.monotonic() - started,
        },
    )


def compare_metrics(truth, named_predictions: dict, rad_seed: int = 0) -> list[dict]:
    """Score each named prediction with all three F-scores, plus random
    baseline rows thresholded for the best value of each metric."""
    y = validate_labels(truth)

    def row(name: str, pred) -> dict:
        report = compute_report(pred, y)
        return {"name": name, "f1": report.f1, "fpa1": report.fpa1, "fc1": report.fc1}

    rows = [row(name, pred) for name, pred in named_predictions.items()]
    scores = rad_scores(y.shape[0], rad_seed)
    for metric in BEST_F_METRICS:
        result = threshold_best_f(scores, y, metric)
        rows.append(row(f"random(best {metric})", result.predictions))
    return rows


def emit_results(record: ResultsRecord, out_dir: str | Path, fmt: str = "json") -> dict:
    """Write results.json (deterministic), run_meta.json, and a summary.

    The payload serialization is canonical (sorted keys), so identical
    runs produce byte-identical results.json files. Returns the written
    paths. Re-emission overwrites idempotently, and each file is replaced
    atomically, so a failed write never leaves a truncated file.
    """
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    paths = {"results": out / "results.json", "meta": out / "run_meta.json"}
    if fmt == "csv":
        paths["summary"] = out / "summary.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in (("results", record.payload()), ("meta", record.meta)):
            with write_atomic(paths[name]) as fh:
                fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        if fmt == "csv":
            with write_atomic(paths["summary"]) as fh:
                writer = csv.writer(fh)
                writer.writerow(["entity", "seed", "metric", "value"])
                for cell in record.cells:
                    for key, value in sorted(cell.get("metrics", {}).items()):
                        shown = "" if value is None else f"{value:.10g}"
                        writer.writerow([cell["entity"], cell["seed"], key, shown])
    except OSError as exc:
        raise ConfigError(f"cannot write results to {out}: {exc}") from None
    return {name: str(path) for name, path in paths.items()}

