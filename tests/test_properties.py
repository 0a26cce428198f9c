"""Property tests pinning the one-pass metrics, the value-sort ranking,
the threshold sweeps, numpy midranks, the bulk CSV reader and an entity's
events to the slow oracles in reference.py, on random inputs, and a run's
cells to the runs of their entities alone."""
import dataclasses
import functools
import json
import math
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit import ingest, metrics
from tsadkit.core import Entity, ParseError, SeriesMatrix, midranks
from tsadkit.experiment import config_from_dict, run_experiment
from tsadkit.metrics import compute_report
from tsadkit.thresholding import BEST_F_METRICS, threshold_best_f, threshold_top_k
import reference

TINY_UAE_RUN = Path(__file__).parent / "data" / "tiny_uae_run.json"

# derandomized so a tier-1 run never depends on which examples were drawn
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def scored_labels(draw, max_n=500):
    """(truth, prediction, scores) as lists of one length <= max_n.

    Hypothesis draws the shape of a case: its length, mean event length,
    prediction density, number of distinct scores and a seed; the seed
    fills in the values, which keeps long cases cheap to generate. Truth
    comes as runs of 0s and 1s, so events of many lengths occur, and scores
    take at most four distinct values, so ties are everywhere.
    """
    n = draw(st.integers(1, max_n))
    mean_run = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.8, 1.0]))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = rng.geometric(1 / mean_run, size=n)
    first = int(rng.integers(0, 2))
    truth = np.repeat((np.arange(n) + first) % 2, runs)[:n]
    pred = (rng.random(n) < density).astype(int)
    scores = rng.integers(0, levels, size=n).astype(float)
    # plain lists keep the pure-Python oracles fast
    return truth.tolist(), pred.tolist(), scores.tolist()


@PROPERTY
@given(scored_labels())
def test_report_f_scores_match_naive(case):
    truth, pred, scores = case
    report = compute_report(pred, truth, scores)
    assert report.f1 == reference.f1_naive(pred, truth)
    assert report.fpa1 == reference.fpa1_naive(pred, truth)
    assert report.fc1 == reference.fc1_naive(pred, truth)


@PROPERTY
@given(scored_labels())
def test_ranking_metrics_match_oracles(case):
    truth, _, scores = case
    report = compute_report(truth, truth, scores)
    if 0 < sum(truth) < len(truth):
        # the Mann-Whitney count is an exact half-integer, divided once
        # by both; average precision sums the same terms in another order
        assert report.auroc == reference.auroc_pairwise(scores, truth)
        assert abs(report.auprc - reference.auprc_cuts(scores, truth)) <= 1e-12
    else:
        assert report.auroc is None and report.auprc is None


@st.composite
def ranking_cases(draw):
    """(scores, truth) arrays: scored_labels' tied scores, all-distinct
    scores, or scores mixing 0.0 and -0.0, whose ties compare equal but
    print apart."""
    truth, _, scores = draw(scored_labels())
    n = len(truth)
    kind = draw(st.sampled_from(["tied", "distinct", "signed_zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "distinct":
        scores = rng.permutation(n) / 7.0 - 3.0
    elif kind == "signed_zeros":
        scores = rng.choice([-0.0, 0.0, -0.0, 0.0, 1.5, -2.0], size=n)
    return np.array(scores, dtype=np.float64), np.array(truth, dtype=np.int64)


@PROPERTY
@given(ranking_cases())
def test_value_sort_cuts_match_the_stable_argsort(case):
    scores, truth = case
    stops, tp, values = metrics._cuts(scores, truth)
    ref_stops, ref_tp, ref_values = reference.cuts_by_position(scores, truth)
    assert stops.tolist() == ref_stops.tolist()
    assert tp.tolist() == ref_tp.tolist()
    # bitwise, so a 0.0/-0.0 block keeps the sign best_f would write
    assert values.view(np.int64).tolist() == ref_values.view(np.int64).tolist()
    if 0 < truth.sum() < len(truth):
        assert metrics._auroc(stops, tp) == reference.auroc_from_cuts(ref_stops, ref_tp)
        assert metrics._auprc(stops, tp) == reference.auprc_from_cuts(ref_stops, ref_tp)


@st.composite
def threshold_cases(draw, max_n=300):
    """(scores, truth) arrays of one length <= max_n: truth as runs, as in
    scored_labels, and scores on 1 to 64 levels, so ties reach every
    candidate of a sweep."""
    truth, _, _ = draw(scored_labels(max_n))
    levels = draw(st.sampled_from([1, 2, 4, 16, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, levels, size=len(truth)) / 8.0
    return scores, np.array(truth, dtype=np.int64)


def sorted_order_top(scores, k: int) -> tuple[list[int], float]:
    """The k highest scores, earlier points first on ties, by a plain sort:
    their indicator and the k-th score (+inf for k = 0)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    pred = [0] * len(scores)
    for i in order[:k]:
        pred[i] = 1
    return pred, (float(scores[order[k - 1]]) if k else math.inf)


@PROPERTY
@given(threshold_cases(), st.sampled_from(BEST_F_METRICS))
def test_best_f_matches_exhaustive_sweep(case, metric):
    scores, truth = case
    result = threshold_best_f(scores, truth, metric)
    threshold, value = reference.best_f_exhaustive(scores.tolist(), truth.tolist(), metric)
    assert result.threshold == threshold
    # one division of exact integer counts: the correctly rounded rational,
    # and the value compute_report gives the chosen prediction
    assert result.metadata["value"] == value
    assert getattr(compute_report(result.predictions, truth), metric) == value
    # the predictions are the points at or above the threshold: the top
    # count of them in sorted order, ties included whole
    pred = [int(s >= threshold) for s in scores]
    assert result.predictions.tolist() == pred
    assert sorted_order_top(scores, sum(pred))[0] == pred


@PROPERTY
@given(threshold_cases(), st.data())
def test_top_k_matches_sorted_order(case, data):
    scores, _ = case
    k = data.draw(st.integers(0, len(scores)))
    result = threshold_top_k(scores, k)
    pred, threshold = sorted_order_top(scores, k)
    assert result.predictions.tolist() == pred
    assert result.threshold == threshold


@PROPERTY
@given(threshold_cases(), st.sampled_from(BEST_F_METRICS))
def test_top_k_at_the_best_count_is_the_best_f(case, metric):
    # top_k asked for as many points as the exhaustive best threshold keeps
    # predicts those points and scores the best value
    scores, truth = case
    threshold, value = reference.best_f_exhaustive(scores.tolist(), truth.tolist(), metric)
    k = int((scores >= threshold).sum())
    pred = threshold_top_k(scores, k).predictions
    assert pred.tolist() == [int(s >= threshold) for s in scores]
    naive = {"f1": reference.f1_naive, "fpa1": reference.fpa1_naive, "fc1": reference.fc1_naive}
    assert abs(naive[metric](pred.tolist(), truth.tolist()) - value) <= 1e-12


@PROPERTY
@given(st.lists(st.integers(-2, 2).map(float), max_size=500))
def test_midranks_match_reference(values):
    assert midranks(values).tolist() == reference.midranks(values)


@st.composite
def labels_and_causes(draw, m=4):
    """0/1 labels and a sparse cause map over their runs, by run ordinal."""
    labels = draw(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    k = len(reference.events_by_scan(labels))
    if not k:
        return labels, {}
    channels = st.lists(st.integers(0, m - 1), min_size=1, max_size=m)
    return labels, draw(st.dictionaries(st.integers(0, k - 1), channels, max_size=k))


@PROPERTY
@given(labels_and_causes())
def test_entity_events_are_the_label_runs_with_their_causes(case):
    labels, causes = case
    entity = Entity("e", SeriesMatrix(np.zeros((2, 4))), SeriesMatrix(np.zeros((len(labels), 4))),
                    labels, causes)
    expected = [
        (start, end, frozenset(causes[i]) if i in causes else None)
        for i, (start, end) in enumerate(reference.events_by_scan(labels))
    ]
    assert [(e.start, e.end, e.causes) for e in entity.test_events] == expected
    moved = dataclasses.replace(entity, train=SeriesMatrix(np.ones((3, 4))))
    assert moved.test_events == entity.test_events


NUMBERS = st.one_of(
    st.floats().map(repr),  # includes nan, inf, -inf, subnormals
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}"),
    st.integers(-(10**20), 10**20).map(str),
)
# pieces of cells float() and loadtxt may disagree on: underscores, signs,
# exponents, padding, quotes, comment marks and the empty cell
JUNK = st.lists(
    st.sampled_from(["0", "1", "7", ".", "e", "+", "-", "_", " ", "nan", "inf", '"', "#"]),
    max_size=4,
).map("".join)


@st.composite
def csv_texts(draw):
    """(text of a small headered CSV, whether it is clean).

    A clean file has rows of well-formed numbers as wide as the header.
    The others start clean and take up to three faults: a junk cell, a
    blank line, a row one cell too wide or too narrow, or a quoted or
    half-quoted header name. In either kind each line ends with LF, CRLF
    or a bare CR, chosen line by line, and the last line may have no end.
    """
    width = draw(st.integers(1, 3))
    header = [f"c{i}" for i in range(width)]
    rows = [[draw(NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(0, 6)))]
    faults = draw(st.lists(
        st.sampled_from(["junk", "blank", "wide", "narrow", "header"]), max_size=3
    ))
    for fault in faults:
        if fault == "header" or not rows:
            header[0] = draw(st.sampled_from(['"{}"', '"{}'])).format(header[0])
            continue
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "junk" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
        elif fault == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif fault == "wide":
            row.append(draw(NUMBERS))
        elif row:
            row.pop()
    lines = [",".join(header), *(",".join(row) for row in rows)]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(map(str.__add__, lines, ends)), bool(rows) and not faults


@settings(PROPERTY, max_examples=400)
@given(csv_texts())
def test_read_csv_matches_naive(case):
    text, clean = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        if clean:  # the bulk pass must take clean files, or it saves nothing
            assert ingest._bulk_table(path, None) is not None
        try:
            header, values = reference.read_csv_naive(path)
        except ValueError as exc:
            with pytest.raises(ParseError) as err:
                ingest.read_csv(path)
            assert str(err.value) == str(exc)
            return
        got_header, got = ingest.read_csv(path)
    expected = np.array(values, dtype=np.float64).reshape(len(values), len(header))
    assert got_header == header
    assert got.shape == expected.shape
    # bit equality: nan payloads and the sign of zero included
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@st.composite
def synthetic_specs(draw):
    """A second synthetic entity, as small as tiny_uae_run.json's, with
    one or two labeled spikes that carry causes."""
    m = draw(st.integers(1, 4))
    n_test = draw(st.integers(100, 200))
    anomalies = [
        {"start": start, "length": 8, "kind": "spike",
         "channels": [draw(st.integers(0, m - 1))], "magnitude": draw(st.floats(0.5, 4.0))}
        for start in draw(st.sampled_from([[30], [20, 70]]))
    ]
    return {
        "entity_id": "other",
        "n_train": draw(st.integers(100, 300)),
        "n_test": n_test,
        "m": m,
        "period": draw(st.floats(5.0, 60.0)),
        "noise_sigma": draw(st.floats(0.0, 0.5)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "anomalies": anomalies,
    }


ISOLATION_MODELS = {"raw": {"kind": "raw"}, "pca": {"kind": "pca"},
                    "uae": {"kind": "uae", "max_epochs": 2}}
# tail_p at one eps: its sweep over 1..5 picks the eps across all cells
ISOLATION_THRESHOLDS = {"best_f": {"method": "best_f"}, "top_k": {"method": "top_k"},
                        "tail_p": {"method": "tail_p", "neg_log_eps": 2}}


def isolation_config(model, threshold, synthetic):
    config = json.loads(TINY_UAE_RUN.read_text())
    config.update(model=ISOLATION_MODELS[model], threshold=ISOLATION_THRESHOLDS[threshold],
                  synthetic=synthetic, seeds=[0, 1])
    return config_from_dict(config)


def entity_cells(record, entity_id):
    return [json.dumps(c, sort_keys=True) for c in record.cells if c["entity"] == entity_id]


@functools.lru_cache(maxsize=None)
def cells_alone(model, threshold):
    config = isolation_config(model, threshold, json.loads(TINY_UAE_RUN.read_text())["synthetic"])
    return entity_cells(run_experiment(config), "tiny_uae")


@pytest.mark.parametrize("threshold", sorted(ISOLATION_THRESHOLDS))
@pytest.mark.parametrize("model", sorted(ISOLATION_MODELS))
@settings(PROPERTY, max_examples=8)
@given(other=synthetic_specs(), before=st.booleans(), workers=st.sampled_from([1, 2]))
def test_a_cell_does_not_depend_on_the_other_entities(model, threshold, other, before, workers):
    (tiny,) = json.loads(TINY_UAE_RUN.read_text())["synthetic"]
    synthetic = [other, tiny] if before else [tiny, other]
    record = run_experiment(isolation_config(model, threshold, synthetic), workers=workers)
    assert not record.failures
    alone = cells_alone(model, threshold)
    assert len(alone) == 2 and entity_cells(record, "tiny_uae") == alone


FAILING_PROPERTY = textwrap.dedent("""\
    from hypothesis import given, settings, strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 10


    def test_passes():
        pass
""")


def test_failing_property_does_not_abort_pytest(tmp_path):
    # reporting a failing example makes Hypothesis import libcst, whose
    # DeprecationWarning the error filter would turn into an INTERNALERROR
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
