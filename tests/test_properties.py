"""Property tests pinning the one-pass metrics and numpy midranks to the
slow oracles in reference.py, on random tie-heavy inputs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tsadkit.core import midranks
from tsadkit.metrics import auprc, auroc, compute_report
import reference

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
        assert auroc(scores, truth) == reference.auroc_pairwise(scores, truth)
        assert abs(auprc(scores, truth) - reference.auprc_cuts(scores, truth)) <= 1e-12
        assert (report.auroc, report.auprc) == (auroc(scores, truth), auprc(scores, truth))
    else:
        assert report.auroc is None and report.auprc is None


@PROPERTY
@given(st.lists(st.integers(-2, 2).map(float), max_size=500))
def test_midranks_match_reference(values):
    assert midranks(values).tolist() == reference.midranks(values)
