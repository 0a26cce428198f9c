"""Rank-based comparison of methods across datasets.

Average ranks with midranks for ties, the Friedman chi-squared test, the
Hochberg step-up multiple-comparison procedure, and the pairwise
rank-difference z-test feeding it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._special import chi2_sf, erfc
from .core import FloatArray, ParseError, ValidationError, midranks
from .ingest import parse_floats, read_csv_rows


@dataclass(frozen=True)
class RankTable:
    """Metric values for k methods (rows) across N groups (columns)."""

    values: FloatArray
    method_names: tuple[str, ...]
    group_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValidationError(f"rank table must be 2-D, got shape {v.shape}")
        k, n = v.shape
        if k < 2 or n < 2:
            raise ValidationError(f"need at least 2 methods and 2 groups, got {k}x{n}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("rank table contains NaN or infinite entries")
        methods = tuple(self.method_names)
        groups = tuple(self.group_names)
        if len(methods) != k:
            raise ValidationError(f"{len(methods)} method names for {k} rows")
        if len(groups) != n:
            raise ValidationError(f"{len(groups)} group names for {n} columns")
        if len(set(methods)) != len(methods):
            raise ValidationError("method names must be unique")
        if len(set(groups)) != len(groups):
            raise ValidationError("group names must be unique")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "method_names", methods)
        object.__setattr__(self, "group_names", groups)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n_groups(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_csv(cls, path: str | Path) -> "RankTable":
        """Load a table with method rows and group columns.

        Layout: header ``method,<group>,...``, one row per method.
        """
        path = Path(path)
        header, rows = read_csv_rows(path)
        if len(header) < 3:
            raise ParseError(f"{path}: need a method column and at least 2 groups")
        values = parse_floats(path, rows, header, list(range(1, len(header))))
        return cls(values, tuple(row[0] for row in rows), tuple(header[1:]))


def average_ranks(table: RankTable, higher_is_better: bool = True) -> FloatArray:
    """Mean rank per method across groups; rank 1 is best, ties midrank."""
    signed = -table.values if higher_is_better else table.values
    ranks = np.empty_like(table.values)
    for j in range(table.n_groups):
        ranks[:, j] = midranks(signed[:, j])
    return ranks.mean(axis=1)


def friedman(table: RankTable, higher_is_better: bool = True) -> tuple[float, float]:
    """Friedman chi-squared statistic and p-value over the rank table.

    chi2 = 12N/(k(k+1)) * (sum_j R_j^2 - k(k+1)^2/4) with R_j the average
    ranks; the p-value is the chi-squared survival function with k-1
    degrees of freedom (``_special.chi2_sf``).
    """
    if table.k < 3:
        raise ValidationError(f"friedman needs k >= 3 methods, got {table.k}")
    ranks = average_ranks(table, higher_is_better)
    k = table.k
    n = table.n_groups
    statistic = 12.0 * n / (k * (k + 1)) * (float(np.sum(ranks**2)) - k * (k + 1) ** 2 / 4.0)
    statistic = max(statistic, 0.0)  # ties can push the sum a hair below zero
    df = k - 1
    p_value = chi2_sf(statistic, df)
    return statistic, p_value


def hochberg_stepup(p_values, alpha: float = 0.05) -> np.ndarray:
    """Hochberg's step-up rejections for a family of p-values.

    With p_(1) <= ... <= p_(h) ascending, find the largest j such that
    p_(j) <= alpha/(h - j + 1) and reject every hypothesis with a p-value
    at or below that p_(j). Returns a boolean array in input order.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("p_values must be a non-empty 1-D sequence")
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValidationError("p-values must lie in [0, 1]")
    if not (0 < alpha < 1):
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    h = p.size
    order = np.argsort(p, kind="stable")
    ascending = p[order]
    thresholds = alpha / (h - np.arange(1, h + 1) + 1.0)
    passing = np.flatnonzero(ascending <= thresholds)
    reject = np.zeros(h, dtype=bool)
    if passing.size:
        cutoff = ascending[passing[-1]]
        reject = p <= cutoff
    return reject


def pairwise_rank_z(
    ranks: FloatArray, k: int, n_groups: int, baseline: int
) -> tuple[FloatArray, FloatArray]:
    """Two-sided z-test p-values for each method against a baseline.

    z_i = (R_i - R_baseline) / sqrt(k(k+1)/(6N)). The baseline's own entry
    carries z = 0, p = 1.
    """
    r = np.asarray(ranks, dtype=np.float64)
    if not (0 <= baseline < r.shape[0]):
        raise ValidationError(f"baseline index {baseline} outside 0..{r.shape[0] - 1}")
    scale = np.sqrt(k * (k + 1) / (6.0 * n_groups))
    z = (r - r[baseline]) / scale
    p = erfc(np.abs(z) * math.sqrt(0.5))  # 2 * (1 - Phi(|z|))
    p[baseline] = 1.0
    return z, np.minimum(p, 1.0)


def compare_to_best(
    table: RankTable, alpha: float = 0.05, higher_is_better: bool = True
) -> dict:
    """Friedman test plus Hochberg post-hoc against the best-ranked method.

    Returns a dict with the average ranks, the Friedman statistic and
    p-value, the best method, and per-method pairwise p-values with
    rejection flags (the best method compares to itself with p = 1, never
    rejected).
    """
    ranks = average_ranks(table, higher_is_better)
    statistic, p_value = friedman(table, higher_is_better)
    best = int(np.argmin(ranks))
    z, pairwise_p = pairwise_rank_z(ranks, table.k, table.n_groups, best)
    others = [i for i in range(table.k) if i != best]
    reject_others = hochberg_stepup(pairwise_p[others], alpha)
    reject = np.zeros(table.k, dtype=bool)
    reject[others] = reject_others
    return {
        "methods": list(table.method_names),
        "average_ranks": [float(r) for r in ranks],
        "friedman_statistic": statistic,
        "friedman_p_value": p_value,
        "best_method": table.method_names[best],
        "pairwise_z": [float(v) for v in z],
        "pairwise_p": [float(v) for v in pairwise_p],
        "reject": [bool(b) for b in reject],
        "alpha": alpha,
    }
