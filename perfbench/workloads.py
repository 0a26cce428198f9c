"""Seeded inputs for the benchmark workloads.

Every workload is built from ``(name, seed, smoke)`` alone: the same triple
gives byte-identical config and data files. The program under test only
ever sees those files; it never receives the benchmark seed itself.

Each workload function states its sizes; BENCHMARK.json says why each is
there. ``smoke`` shrinks every workload to a few hundred rows so the whole
harness runs in about a minute.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("uae_synth", "csv_pca", "long_stream")


@dataclass(frozen=True)
class Workload:
    """A generated workload: where its config lives and what one run does."""

    name: str
    config_path: str          # relative to the repository root
    run_dir: str              # where runs write their output, relative likewise
    workers: int
    cells: int                # (entity, seed) cells per run
    test_rows: int            # test rows scored per run, summed over cells
    input_files: tuple[str, ...] = ()

    def input_sha256(self, root: Path) -> str:
        """One digest over the config and every data file, in a fixed order."""
        h = hashlib.sha256()
        for rel in (self.config_path, *self.input_files):
            h.update(rel.encode("utf-8") + b"\0")
            with (root / rel).open("rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        return h.hexdigest()


def _events(rng, n: int, count: int, m: int, lengths, magnitudes, max_causes: int):
    """Non-touching labeled anomalies spread evenly over ``n`` test rows."""
    slot = n // count
    out = []
    for i in range(count):
        length = int(rng.integers(lengths[0], lengths[1] + 1))
        lo = i * slot + 1
        start = int(rng.integers(lo, lo + slot - length - 1))
        k = int(rng.integers(1, max_causes + 1))
        channels = sorted(int(c) for c in rng.choice(m, size=k, replace=False))
        out.append({
            "start": start,
            "length": length,
            "kind": "spike" if rng.random() < 0.5 else "level_shift",
            "channels": channels,
            "magnitude": float(rng.uniform(*magnitudes)),
        })
    return out


def _synthetic_spec(rng, entity_id, n_train, n_test, m, n_events, lengths, magnitudes):
    return {
        "entity_id": entity_id,
        "n_train": n_train,
        "n_test": n_test,
        "m": m,
        "period": [float(p) for p in rng.uniform(20.0, 90.0, size=m)],
        "noise_sigma": 0.1,
        "seed": int(rng.integers(0, 2**31)),
        "anomalies": _events(rng, n_test, n_events, m, lengths, magnitudes, 2),
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _uae_synth(rng, smoke):
    n, epochs = (400, 2) if smoke else (5000, 10)
    spec = _synthetic_spec(rng, "uae0", n, n, 8, 4 if smoke else 20, (10, 30), (3.0, 4.0))
    config = {
        "synthetic": [spec],
        "window": {"length": 20 if smoke else 100, "step": 1},
        "model": {"kind": "uae", "max_epochs": epochs},
        "scoring": {"kind": "gauss_d", "window": 100 if smoke else 500},
        "threshold": {"method": "best_f", "metric": "fc1"},
        "diagnosis": {"enabled": True},
        "seeds": [1],
    }
    return config, 1, n


def _long_stream(rng, smoke):
    n_train, n_test, n_events = (2000, 8000, 16) if smoke else (50_000, 400_000, 800)
    spec = _synthetic_spec(
        rng, "long0", n_train, n_test, 8, n_events, (5, 30), (2.0, 3.0)
    )
    config = {
        "synthetic": [spec],
        "model": {"kind": "raw"},
        "scoring": {"kind": "gauss_d_k", "window": 1000, "kernel_sigma": 2.0},
        "threshold": {"method": "tail_p", "metric": "fc1"},
        "diagnosis": {"enabled": True},
        "seeds": [1],
    }
    return config, 1, n_test


_CSV_ENTITIES = 4
_CSV_CHANNELS = 16
_CSV_FACTORS = 4


def _csv_entity(rng, n_train: int, n_test: int, n_events: int):
    """Channels mixed from a few shared sinusoids, so PCA has structure to learn."""
    m = _CSV_CHANNELS
    t = np.arange(n_train + n_test, dtype=np.float64)
    periods = rng.uniform(30.0, 400.0, size=_CSV_FACTORS)
    factors = np.sin(2.0 * np.pi * t[:, None] / periods + rng.uniform(0, 6.3, _CSV_FACTORS))
    mixing = rng.normal(0.0, 1.0, size=(_CSV_FACTORS, m))
    values = factors @ mixing + rng.normal(0.0, 0.05, size=(t.size, m))
    train, test = values[:n_train], values[n_train:].copy()
    labels = np.zeros(n_test, dtype=np.int64)
    causes = {}
    scale = train.std(axis=0)
    for ordinal, a in enumerate(_events(rng, n_test, n_events, m, (10, 40), (4.0, 6.0), 3)):
        span = slice(a["start"], a["start"] + a["length"])
        for c in a["channels"]:
            test[span, c] += a["magnitude"] * scale[c]
        labels[span] = 1
        causes[str(ordinal)] = [f"c{c}" for c in a["channels"]]
    return train, test, labels, causes


def _flush_to_disk(path: Path) -> None:
    # write-back of fresh files would otherwise overlap the first timed runs
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _csv_pca(rng, smoke, out: Path, root: Path, write: bool):
    n, n_events = (300, 4) if smoke else (20_000, 20)
    header = ",".join(f"c{c}" for c in range(_CSV_CHANNELS))
    entities, files = [], []
    for e in range(_CSV_ENTITIES):
        train, test, labels, causes = _csv_entity(rng, n, n, n_events)
        paths = {k: out / f"e{e}_{k}" for k in ("train.csv", "test.csv", "causes.json")}
        if write:
            np.savetxt(paths["train.csv"], train, fmt="%.6f", delimiter=",",
                       header=header, comments="")
            np.savetxt(paths["test.csv"], np.column_stack([test, labels]), delimiter=",",
                       fmt=["%.6f"] * _CSV_CHANNELS + ["%d"], header=header + ",label",
                       comments="")
            _write_json(paths["causes.json"], causes)
            for path in paths.values():
                _flush_to_disk(path)
        rel = {k: p.relative_to(root).as_posix() for k, p in paths.items()}
        files.extend(rel.values())
        entities.append({
            "id": f"file{e}",
            "train": rel["train.csv"],
            "test": rel["test.csv"],
            "label_column": "label",
            "cause_map": rel["causes.json"],
        })
    config = {
        "entities": entities,
        "model": {"kind": "pca"},
        "scoring": {"kind": "gauss_d", "window": 100 if smoke else 500},
        "threshold": {"method": "top_k"},
        "diagnosis": {"enabled": True},
        "seeds": [1],
    }
    return config, 2, _CSV_ENTITIES * n, tuple(files)


def build(name: str, seed: int, work: Path, root: Path, smoke: bool = False) -> Workload:
    """Generate (or reuse) the inputs of one workload under ``work``.

    Inputs for the most recent (name, seed, smoke) are kept and reused; a
    different seed replaces them, so the work tree holds one set per workload.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    out = work / "inputs" / (f"{name}-smoke" if smoke else name)
    stamp = out / "seed.txt"
    config_path = out / "config.json"
    rng = np.random.default_rng([seed, *name.encode("ascii")])
    reuse = stamp.is_file() and stamp.read_text() == f"{seed}\n"
    if not reuse:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

    files: tuple[str, ...] = ()
    if name == "csv_pca":
        config, workers, rows, files = _csv_pca(rng, smoke, out, root, write=not reuse)
    else:
        make = {"uae_synth": _uae_synth, "long_stream": _long_stream}[name]
        config, workers, rows = make(rng, smoke)
    run_dir = (work / "runs" / out.name).relative_to(root).as_posix()
    config["output_dir"] = run_dir
    if not reuse:
        _write_json(config_path, config)
        stamp.write_text(f"{seed}\n")
    seeds = len(config["seeds"])
    n_entities = len(config.get("entities", ())) + len(config.get("synthetic", ()))
    return Workload(
        name=name,
        config_path=config_path.relative_to(root).as_posix(),
        run_dir=run_dir,
        workers=workers,
        cells=n_entities * seeds,
        test_rows=rows * seeds,
        input_files=files,
    )
