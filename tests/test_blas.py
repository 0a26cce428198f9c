"""The BLAS pin: one thread inside the model stage of every kind, its
threads lent to the autoencoder groups as one pool that lives for the
process, the prior count after.

Tests that need numpy's bundled OpenBLAS skip, saying so, where numpy links
another BLAS; the pin is then a no-op and the run says "unpinned".
"""
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import tsadkit
from tsadkit import blas
from tsadkit.core import SeriesMatrix, TrainingError
from tsadkit.experiment import config_from_dict, run_experiment
from tsadkit.ingest import WindowSpec
from tsadkit.models import ModelConfig, fit, residuals, train
from tsadkit.models.pca import PcaModel

UAE_CONFIG = {
    "synthetic": [{
        "n_train": 240, "n_test": 160, "m": 3, "period": [20.0, 30.0, 45.0],
        "noise_sigma": 0.1, "seed": 8, "entity_id": "syn",
        "anomalies": [
            {"start": 60, "length": 10, "kind": "spike", "channels": [0, 2],
             "magnitude": 2.0},
        ],
    }],
    "window": {"length": 10, "step": 1},
    "model": {"kind": "uae", "max_epochs": 4},
    "scoring": {"kind": "gauss_s"},
    "threshold": {"method": "best_f"},
    "diagnosis": {"enabled": True},
    "seeds": [1],
}

# 64 channels, 10,000 train rows: products OpenBLAS splits across threads
WIDE_PCA_RUN = Path(__file__).parent / "data" / "wide_pca_run.json"

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy's BLAS is not the bundled OpenBLAS: unpinned"
)


def raw_threads() -> int:
    return blas._openblas()[0]()


@pytest.fixture
def two_blas_threads():
    """The BLAS at 2 threads for the test, whatever it started with."""
    get, set_ = blas._openblas()
    before = get()
    set_(2)
    try:
        yield
    finally:
        set_(before)


@pytest.fixture
def groups_in_flight(monkeypatch):
    """Records, while models train, the most slices trained at once and the
    threads they trained on; each slice holds its thread a moment so that
    slices which may overlap do."""
    lock = threading.Lock()
    seen = {"now": 0, "most": 0, "threads": set()}
    train_slice = train._train_slice

    def spy(*args):
        with lock:
            seen["now"] += 1
            seen["most"] = max(seen["most"], seen["now"])
            seen["threads"].add(threading.get_ident())
        try:
            time.sleep(0.05)
            return train_slice(*args)
        finally:
            with lock:
                seen["now"] -= 1

    monkeypatch.setattr(train, "_train_slice", spy)
    return seen


@pytest.fixture
def inside_training(monkeypatch):
    """Records the BLAS thread count each time a slice starts training."""
    seen = []
    train_slice = train._train_slice

    def spy(*args):
        seen.append(raw_threads())
        return train_slice(*args)

    monkeypatch.setattr(train, "_train_slice", spy)
    return seen


@pytest.mark.parametrize("config", [
    pytest.param(UAE_CONFIG, id="uae"),
    pytest.param(json.loads(WIDE_PCA_RUN.read_text()), id="wide_pca"),
])
def test_results_bytes_do_not_depend_on_blas_threads(tmp_path, config):
    """A 3-channel UAE run and a 64-channel PCA run each write the same
    results.json under 1 and 2 BLAS threads; under 2 (on 2 or more cores)
    the pin lends the UAE channels a pool of 2."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    src = str(Path(tsadkit.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "tsadkit.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        policy = json.loads((out / "run_meta.json").read_text())["blas"]
        if policy["policy"] == "unpinned":
            pytest.skip("numpy's BLAS is not the bundled OpenBLAS: unpinned")
        # OpenBLAS caps the variable at the core count
        assert 1 <= policy["threads"] <= int(threads)
        assert "channel_threads" not in policy
        outputs[threads] = (out / "results.json").read_bytes()
    assert outputs["1"] == outputs["2"]


@needs_openblas
def test_run_pins_training_and_restores(two_blas_threads, inside_training):
    record = run_experiment(config_from_dict(UAE_CONFIG))
    assert not record.failures
    # 3 channels on a pool of 2 train as slices of 2 and 1 in each of 4 epochs
    assert inside_training == [1] * 8
    assert raw_threads() == 2
    assert record.meta["blas"]["threads"] == 2
    assert record.meta["blas"]["policy"] == "pinned"
    assert set(record.meta["blas"]) == {"name", "version", "threads", "policy"}


@needs_openblas
def test_pca_bytes_do_not_depend_on_blas_threads():
    """PCA's SVD and products on 64 channels round the same under 1 and 2
    BLAS threads: fit and residuals run inside the pin."""
    rng = np.random.default_rng(3)
    train_x = SeriesMatrix(rng.standard_normal((10_000, 64)))
    test_x = SeriesMatrix(rng.standard_normal((20_000, 64)))
    get, set_ = blas._openblas()
    before = get()
    out = {}
    try:
        for threads in (1, 2):
            set_(threads)
            model = fit(train_x, ModelConfig("pca"), WindowSpec(1, 1))
            out[threads] = (residuals(model, train_x), residuals(model, test_x))
    finally:
        set_(before)
    assert np.array_equal(out[1][0], out[2][0])
    assert np.array_equal(out[1][1], out[2][1])


@needs_openblas
def test_run_pins_pca_and_restores(two_blas_threads, monkeypatch):
    seen = []
    pca_fit, pca_residuals = PcaModel.fit.__func__, PcaModel.residuals

    def fit_spy(cls, *args):
        seen.append(("fit", raw_threads()))
        return pca_fit(cls, *args)

    def residuals_spy(self, *args):
        seen.append(("residuals", raw_threads()))
        return pca_residuals(self, *args)

    monkeypatch.setattr(PcaModel, "fit", classmethod(fit_spy))
    monkeypatch.setattr(PcaModel, "residuals", residuals_spy)
    record = run_experiment(config_from_dict(dict(UAE_CONFIG, model={"kind": "pca"})))
    assert not record.failures
    assert seen[0] == ("fit", 1)
    assert {step for step, _ in seen} == {"fit", "residuals"}
    assert {threads for _, threads in seen} == {1}
    assert raw_threads() == 2
    assert record.meta["blas"]["threads"] == 2


@needs_openblas
def test_training_error_restores(two_blas_threads, monkeypatch):
    lock = threading.Lock()
    running = {"now": 0}
    train_slice = train._train_slice

    def spy(*args):
        with lock:
            running["now"] += 1
        try:
            return train_slice(*args)
        finally:
            with lock:
                running["now"] -= 1

    monkeypatch.setattr(train, "_train_slice", spy)
    rng = np.random.default_rng(7)
    data = SeriesMatrix(rng.random(size=(80, 2)))
    config = ModelConfig("uae", learning_rate=1e30, max_epochs=30)
    with pytest.raises(TrainingError):
        fit(data, config, WindowSpec(10, 1))
    # the pool outlives the pin, but no slice of the failed fit runs on
    assert running["now"] == 0
    assert raw_threads() == 2
    assert blas.blas_threads() == 2


@needs_openblas
def test_failing_group_waits_for_its_other_groups(two_blas_threads, monkeypatch):
    """Another holder keeps the pool open, yet the failing fit leaves the pin
    only once its running slice is done and its queued ones are cancelled."""
    started, finished = [], []

    def spy(fit, lo, hi, order, epoch):
        first = fit.live[lo]
        started.append(first)
        if first == 0:
            raise TrainingError("the slice of channel 0 fails at once")
        time.sleep(0.2)
        finished.append(first)
        return [], None

    monkeypatch.setattr(train, "_train_slice", spy)
    # 9 channels on a pool of 2: slices of 3, 2, 2 and 2, so two may be queued
    data = SeriesMatrix(np.random.default_rng(7).random(size=(80, 9)))
    with blas.lend_threads() as pool:
        with pytest.raises(TrainingError):
            fit(data, ModelConfig("uae", max_epochs=1), WindowSpec(10, 1))
        assert sorted(finished) == sorted(c for c in started if c != 0)
        with blas.lend_threads() as inner:
            assert inner is pool
    assert raw_threads() == 2


@needs_openblas
def test_later_pin_reuses_the_pool_threads(two_blas_threads):
    """A pin taken after the last one ended gets the same pool, and its work
    runs on the threads that pool already started."""
    both_running = threading.Barrier(2, timeout=30)

    def thread_id(_):
        both_running.wait()  # so each pin's two tasks run on two threads
        return threading.get_ident()

    seen = []
    for _ in range(2):
        with blas.lend_threads() as pool:
            seen.append((pool, set(pool.map(thread_id, range(2)))))
        assert raw_threads() == 2
    (first, first_threads), (second, second_threads) = seen
    assert second is first
    assert len(first_threads) == 2
    assert second_threads == first_threads


@needs_openblas
def test_overlapping_cells_share_one_pin(two_blas_threads, monkeypatch):
    # both cells wait for each other inside the pin, so the pin overlaps
    both_inside = threading.Barrier(2, timeout=30)
    seen = []
    train_slice = train._train_slice

    def spy(fit, lo, hi, order, epoch):
        if epoch == 0:
            both_inside.wait()
        seen.append(raw_threads())
        return train_slice(fit, lo, hi, order, epoch)

    monkeypatch.setattr(train, "_train_slice", spy)
    config = config_from_dict(dict(
        UAE_CONFIG,
        synthetic=[dict(UAE_CONFIG["synthetic"][0], m=1, period=25.0,
                        anomalies=[dict(UAE_CONFIG["synthetic"][0]["anomalies"][0],
                                        channels=[0])])],
        seeds=[1, 2],
    ))
    record = run_experiment(config, workers=2)
    assert not record.failures, record.failures
    # one 1-channel slice per cell in each of 4 epochs
    assert seen == [1] * 8
    assert raw_threads() == 2
    assert sorted(record.meta["fit_reports"]) == ["syn/1", "syn/2"]


@needs_openblas
@pytest.mark.parametrize("count", [1, 2])
def test_overlapping_cells_share_one_pool(count, groups_in_flight):
    """Two 3-channel cells at --workers 2 train at most B slices at once, on
    at most B threads, whatever the cell pool runs."""
    get, set_ = blas._openblas()
    before = get()
    set_(count)
    try:
        record = run_experiment(config_from_dict(dict(UAE_CONFIG, seeds=[1, 2])), workers=2)
    finally:
        set_(before)
    assert not record.failures, record.failures
    assert record.meta["blas"]["threads"] == count
    assert 1 <= groups_in_flight["most"] <= count
    assert len(groups_in_flight["threads"]) <= count


def test_fit_reports_in_meta_only(tmp_path):
    record = run_experiment(config_from_dict(UAE_CONFIG))
    reports = record.meta["fit_reports"]["syn/1"]
    assert [r["channel"] for r in reports] == [0, 1, 2]
    assert set(reports[0]) == {
        "channel", "epochs_run", "best_epoch", "best_val_loss", "final_train_loss"
    }
    assert all(1 <= r["epochs_run"] <= 4 for r in reports)
    assert "fit_reports" not in json.dumps(record.payload())


def test_pin_stress_keeps_one_thread_and_restores(monkeypatch):
    """Eight threads enter and leave one pin 2000 times each, with a short
    switch interval; inside, the count is always 1; after, it is the prior."""
    state = {"threads": 4}
    monkeypatch.setattr(
        blas, "_openblas",
        lambda: (lambda: state["threads"], lambda n: state.update(threads=n)),
    )
    pin = blas._Pin()
    wrong = []
    pools = set()
    start = threading.Barrier(8, timeout=30)

    def worker():
        start.wait()
        for _ in range(2000):
            with pin.lend_threads() as pool:
                if state["threads"] != 1:
                    wrong.append(state["threads"])
                pools.add(pool)
            if pin.threads() != 4:
                wrong.append(("outside", pin.threads()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    assert state["threads"] == 4
    # every holder, overlapping or not, got the one pool for B = 4
    assert pools == {blas._pool(4)}


def test_unpinned_run_trains_serially(monkeypatch, groups_in_flight):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    record = run_experiment(config_from_dict(UAE_CONFIG))
    assert not record.failures
    assert record.meta["blas"]["policy"] == "unpinned"
    assert record.meta["blas"]["threads"] is None
    assert groups_in_flight["most"] == 1
