"""Dataset loading, normalization, windowing, and synthetic benchmarks.

CSV layout: UTF-8 with a header row, one row per time-point, float cells.
The test file carries an extra binary label column, whose runs of 1s are
the entity's events. Cause annotations come from a JSON mapping of event
ordinal to a list of channel names.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    Entity,
    FloatArray,
    InsufficientDataError,
    IntArray,
    ParseError,
    SeriesMatrix,
    ValidationError,
    check_float_matrix,
    decode_config,
    read_json,
    run_bounds,
)

ANOMALY_KINDS = ("spike", "level_shift", "drift_background")


@dataclass(frozen=True)
class NormStats:
    """Per-channel min/max computed on the training split only."""

    vmin: FloatArray
    vmax: FloatArray

    def __post_init__(self):
        lo = np.asarray(self.vmin, dtype=np.float64)
        hi = np.asarray(self.vmax, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValidationError("vmin and vmax must be 1-D of equal length")
        if np.any(lo > hi):
            raise ValidationError("vmin must be <= vmax per channel")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "vmin", lo)
        object.__setattr__(self, "vmax", hi)

    @property
    def m(self) -> int:
        return self.vmin.shape[0]

    def ranges(self) -> FloatArray:
        # constant channels fall back to a unit range so test-time change
        # still registers instead of dividing by zero
        span = self.vmax - self.vmin
        return np.where(span > 0, span, 1.0)


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: length l_w and step l_s with 1 <= l_s <= l_w."""

    length: int = 100
    step: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError(f"window length must be >= 1, got {self.length}")
        if not (1 <= self.step <= self.length):
            raise ValidationError(
                f"window step must satisfy 1 <= step <= length, got step={self.step}"
            )


def fit_normalizer(train: SeriesMatrix) -> NormStats:
    """Per-channel min/max over the training series.

    A channel whose range max - min overflows float64 is refused, by name:
    no min-max scaling of it is finite.
    """
    v = train.values
    lo, hi = v.min(axis=0), v.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.isinf(hi - lo)
    if wide.any():
        c = int(np.argmax(wide))
        raise ValidationError(
            f"train channel {train.channel_names[c]!r} spans {float(lo[c])!r} to "
            f"{float(hi[c])!r}, a range beyond float64"
        )
    return NormStats(lo, hi)


def apply_normalizer(x: SeriesMatrix, stats: NormStats) -> SeriesMatrix:
    """Min-max scale each channel and clip to [-4, 5]: the train range
    extended by four range-widths below and above.

    The series the stats came from scales into [0, 1], which the clip
    leaves as it is.
    """
    if x.m != stats.m:
        raise ValidationError(f"series has {x.m} channels, stats has {stats.m}")
    # a test value's distance from the train minimum, or its ratio to a
    # tiny range, may overflow to inf; the clip below takes that to 5 or -4
    with np.errstate(over="ignore"):
        scaled = (x.values - stats.vmin) / stats.ranges()
    np.clip(scaled, -4.0, 5.0, out=scaled)
    return SeriesMatrix(scaled, x.channel_names)


def make_windows(x: SeriesMatrix | FloatArray, spec: WindowSpec) -> FloatArray:
    """All windows of length l_w starting at 0, l_s, 2*l_s, ...

    Returns an array of shape (count, l_w, m) with
    count = floor((n - l_w)/l_s) + 1. Read-only view when possible.
    """
    values = x.values if isinstance(x, SeriesMatrix) else check_float_matrix(x)
    n = values.shape[0]
    if n < spec.length:
        raise InsufficientDataError(
            f"need at least {spec.length} rows to window, got {n}"
        )
    view = np.lib.stride_tricks.sliding_window_view(values, spec.length, axis=0)
    return np.moveaxis(view, -1, 1)[:: spec.step]


@dataclass(frozen=True)
class AnomalySpec:
    """One injected anomaly: where, what kind, which channels, how large.

    ``magnitude`` is relative to the channel's healthy value range for
    spikes (magnitude 1.0 lifts the signal by one full range) and in raw
    signal units for level shifts and background drift.

    Kinds:
      spike            adds magnitude times the channel's healthy value range
                       on the cause channels over the span, labeled anomalous,
                       causes recorded.
      level_shift      constant +magnitude offset in raw signal units on the
                       cause channels over the span, labeled anomalous,
                       causes recorded.
      drift_background linear ramp 0 -> magnitude on ALL channels across the
                       span, persisting at full magnitude afterwards. Not an
                       anomaly: unlabeled, no causes, exempt from the overlap
                       checks that labeled events get.
    """

    start: int
    length: int
    kind: str
    channels: tuple[int, ...] = ()
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValidationError(
                f"anomaly kind must be one of {ANOMALY_KINDS}, got {self.kind!r}"
            )
        if self.start < 0 or self.length < 1:
            raise ValidationError(
                f"anomaly needs start >= 0 and length >= 1, got "
                f"start={self.start} length={self.length}"
            )
        channels = tuple(int(c) for c in self.channels)
        if self.kind == "drift_background":
            if channels:
                raise ValidationError(
                    "drift_background applies to all channels; leave channels empty"
                )
        else:
            if not channels:
                raise ValidationError(f"{self.kind} anomaly needs cause channels")
            if len(set(channels)) != len(channels):
                raise ValidationError("anomaly channels must be unique")
        object.__setattr__(self, "channels", channels)

    @property
    def end(self) -> int:
        return self.start + self.length - 1

    @property
    def labeled(self) -> bool:
        return self.kind != "drift_background"


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic synthetic entity: per-channel sinusoids plus noise.

    ``period`` is either one float for all channels or a sequence of m
    periods. Anomalies are injected into the test split only.
    """

    n_train: int
    n_test: int
    m: int
    period: float | tuple[float, ...] = 50.0
    noise_sigma: float = 0.1
    anomalies: tuple[AnomalySpec, ...] = ()
    seed: int = 0
    entity_id: str = "synthetic"

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1 or self.m < 1:
            raise ValidationError("n_train, n_test and m must all be >= 1")
        if (self.n_train + self.n_test) * self.m * 8 > np.iinfo(np.intp).max:
            raise ValidationError(
                f"{self.n_train + self.n_test} rows x {self.m} channels of float64 "
                "exceed numpy's array size limit"
            )
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.period, (int, float)):
            periods = (float(self.period),) * self.m
        else:
            periods = tuple(float(p) for p in self.period)
        if len(periods) != self.m:
            raise ValidationError(f"{len(periods)} periods for m={self.m} channels")
        if any(p <= 0 for p in periods):
            raise ValidationError("periods must be positive")
        object.__setattr__(self, "period", periods)
        anomalies = tuple(self.anomalies)
        for a in anomalies:
            if a.end >= self.n_test:
                raise ValidationError(
                    f"anomaly ({a.start},{a.end}) outside test range 0..{self.n_test - 1}"
                )
            if any(c >= self.m for c in a.channels):
                raise ValidationError(
                    f"anomaly channels {a.channels} outside 0..{self.m - 1}"
                )
        labeled = sorted((a for a in anomalies if a.labeled), key=lambda a: a.start)
        for prev, cur in zip(labeled, labeled[1:]):
            if cur.start <= prev.end + 1:
                raise ValidationError(
                    f"labeled anomalies ({prev.start},{prev.end}) and "
                    f"({cur.start},{cur.end}) overlap or touch"
                )
        object.__setattr__(self, "anomalies", anomalies)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return decode_config(cls, d, "spec")


def generate_synthetic(spec: SyntheticSpec) -> Entity:
    """Generate an Entity from the spec; bit-identical for equal specs.

    Train and test are two row-slices of one array: the noise is drawn
    straight into it (``normal(0, s)`` is ``s`` times a standard normal)
    and each channel's sinusoid added in place, so building an entity
    takes its own floats plus a few of length n.
    """
    n = spec.n_train + spec.n_test
    # an absurd period, noise or magnitude overflows to inf or nan, which the
    # SeriesMatrix finiteness check below refuses with the entity's name, in
    # the one pass it already makes over the values
    with np.errstate(all="ignore"):
        t = np.arange(n, dtype=np.float64)
        values = np.zeros((n, spec.m))
        if spec.noise_sigma > 0:
            np.random.default_rng(spec.seed).standard_normal(out=values)
            values *= spec.noise_sigma
        for i, period in enumerate(spec.period):
            values[:, i] += np.sin(2.0 * np.pi * t / period)

        test = values[spec.n_train :]
        # healthy per-channel value range, captured before any injection; spike
        # amplitudes are expressed relative to it
        healthy_range = values.max(axis=0) - values.min(axis=0)
        labels = np.zeros(spec.n_test, dtype=np.int64)
        causes = {}
        for a in sorted(spec.anomalies, key=lambda a: a.start):
            span = slice(a.start, a.end + 1)
            if a.kind == "spike":
                for c in a.channels:
                    test[span, c] += a.magnitude * healthy_range[c]
            elif a.kind == "level_shift":
                for c in a.channels:
                    test[span, c] += a.magnitude
            else:  # drift_background
                ramp = np.linspace(0.0, a.magnitude, a.length)
                test[span, :] += ramp[:, None]
                test[a.end + 1 :, :] += a.magnitude
            if a.labeled:
                # labeled anomalies never touch, so each is one label run
                causes[len(causes)] = a.channels
                labels[span] = 1

    channel_names = tuple(f"c{i}" for i in range(spec.m))
    try:
        return Entity(
            id=spec.entity_id,
            train=SeriesMatrix(values[: spec.n_train], channel_names),
            test=SeriesMatrix(test, channel_names),
            test_labels=labels,
            causes=causes,
        )
    except ValidationError as exc:
        raise ValidationError(f"synthetic entity {spec.entity_id!r}: {exc}") from None


def read_csv_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of a CSV file, each row as wide as the header."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file, expected a header row")
    header, data = rows[0], rows[1:]
    if not data:
        raise ParseError(f"{path}: no data rows after the header")
    width = len(header)
    for i, row in enumerate(data):
        if len(row) != width:
            # line numbers are 1-based and include the header line
            raise ParseError(
                f"{path} line {i + 2}: expected {width} cells, got {len(row)}"
            )
    return header, data


def parse_floats(path, data: list[list[str]], header: list[str], columns: list[int]) -> FloatArray:
    out = np.empty((len(data), len(columns)), dtype=np.float64)
    for r, row in enumerate(data):
        for j, c in enumerate(columns):
            cell = row[c]
            try:
                out[r, j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path} line {r + 2} column {header[c]!r}: "
                    f"non-numeric value {cell!r}"
                ) from None
    return out


_LABEL_VALUES = {"0": 0.0, "1": 1.0}


def _bulk_table(
    path: Path, label_column: str | None, every_label: bool = False
) -> tuple[list[str], FloatArray] | None:
    """Header and every cell from one ``np.loadtxt`` pass, or None when that
    pass might not give what ``csv.reader`` and ``float()`` give.

    The text is read first only to check it: the pass is tried on a file
    with no quote character, so that each line is one row split at its
    commas as csv splits it, and whose first data line is not blank
    (loadtxt warns on a body of blank lines). loadtxt then reads the file
    in chunks, which holds less in memory than parsing the text in hand,
    and its result is kept only with one row per data line, each as wide
    as the header: it skips blank lines, so a file with one gives too few
    rows. loadtxt gives
    ``float()``'s value for every cell it parses and refuses some that
    ``float()`` takes (``1_000``), which leaves those files to the csv
    scan. The label column, if named, or with ``every_label`` every column,
    must read exactly ``0`` or ``1`` and is never parsed as a float.
    """
    # read_text and loadtxt both read in universal-newline mode: a line
    # ends at \r, \n or \r\n, as a csv.reader row does
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError):  # the csv scan reports these
        return None
    lines = text.count("\n") + (not text.endswith("\n")) - 1
    eol = text.find("\n")
    if lines < 1 or '"' in text or text.startswith("\n", eol + 1):
        return None
    header = next(csv.reader([text[:eol]]))
    del text
    converters = None
    if every_label:
        converters = _LABEL_VALUES.__getitem__
    elif label_column in header:
        converters = {header.index(label_column): _LABEL_VALUES.__getitem__}
    try:
        table = np.loadtxt(
            path, delimiter=",", comments=None, skiprows=1, ndmin=2,
            converters=converters, encoding="utf-8",
        )
    except (OSError, ValueError):
        return None
    if table.shape != (lines, len(header)):
        return None
    return header, table


class _CsvFile:
    """One headered CSV file: its header at once, its cells on request.

    Reading never depends on the path taken: where the bulk pass
    (``_bulk_table``) is refused, the rows come from ``csv.reader`` and each
    requested cell goes through ``float()``, so a file gives the same
    values, or fails with the same first message, either way. Label
    columns, ``label_column`` or with ``every_label`` all of them, are read
    by ``labels`` under the label rule.
    """

    def __init__(self, path: str | Path, label_column: str | None = None, every_label=False):
        self.path = path  # as given, so cell errors name it as the caller did
        bulk = _bulk_table(Path(path), label_column, every_label)
        if bulk is None:
            self.header, self._rows = read_csv_rows(self.path)
            self._table = None
        else:
            self.header, self._table = bulk

    def floats(self, columns: list[int]) -> FloatArray:
        if self._table is not None:
            # a C-ordered copy, which SeriesMatrix keeps as it is; indexing
            # with the list gives a Fortran-ordered one it would copy again
            return np.take(self._table, columns, axis=1)
        return parse_floats(self.path, self._rows, self.header, columns)

    def labels(self, column: int) -> IntArray:
        """A label column as 0/1 flags; cells must read 0 or 1 once stripped."""
        if self._table is not None:
            return self._table[:, column].astype(np.int64)
        labels = np.empty(len(self._rows), dtype=np.int64)
        for r, row in enumerate(self._rows):
            cell = row[column].strip()
            if cell not in ("0", "1"):
                raise ParseError(
                    f"{self.path} line {r + 2} column {self.header[column]!r}: "
                    f"label must be 0 or 1, got {cell!r}"
                )
            labels[r] = int(cell)
        return labels


def read_csv(path: str | Path) -> tuple[list[str], FloatArray]:
    """Read a headered numeric CSV: its header and every cell as float64.

    Any cell ``float()`` accepts is accepted, ``nan`` and ``inf`` included;
    callers that need finite values check them. Errors name the line and
    column: ``<path> line N: expected W cells, got K`` or ``<path> line N
    column 'c': non-numeric value 'v'``.
    """
    table = _CsvFile(Path(path))
    return table.header, table.floats(list(range(len(table.header))))


def check_unique(path, names: list[str], what: str) -> None:
    """Refuse a header that repeats a name."""
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise ParseError(f"{path}: {what} {twice[0]!r} appears more than once")


def check_finite(path, values: FloatArray, names: list[str]) -> None:
    """Refuse a NaN or infinite cell of a CSV read into ``values``, whose
    column j is named ``names[j]``, naming its line and column."""
    if not np.all(np.isfinite(values)):
        r, j = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(f"{path} line {r + 2} column {names[j]!r}: non-finite value")


def load_entity(
    train_path: str | Path,
    test_path: str | Path,
    label_column: str = "label",
    cause_map: dict | str | Path | None = None,
    entity_id: str | None = None,
    scored_channels: tuple[str, ...] | None = None,
) -> Entity:
    """Load one entity from a train CSV and a labeled test CSV.

    The test header must contain ``label_column``; the channel columns are
    every other test column, and the train header must list exactly those
    channels (a train-side label column, if present, is ignored).
    The events are the runs of 1s in the label column. ``cause_map`` maps
    an event's ordinal in time order, written in canonical decimal such as
    ``"0"`` or ``"12"``, to a non-empty list of channel names; it may be a
    dict or a path to a JSON file. Its faults raise ParseError.
    """
    test = _CsvFile(test_path, label_column)
    test_header = test.header
    if label_column not in test_header:
        raise ParseError(
            f"{test_path}: label column {label_column!r} not in header {test_header}"
        )
    label_idx = test_header.index(label_column)
    channels = [h for i, h in enumerate(test_header) if i != label_idx]
    check_unique(test_path, channels, "channel")

    train = _CsvFile(train_path, label_column)
    train_header = train.header
    train_channels = [h for h in train_header if h != label_column]
    if train_channels != channels:
        raise ParseError(
            f"{train_path}: channel columns {train_channels} do not match "
            f"test channels {channels}"
        )

    # each file's table is dropped once its columns are read
    train_values = train.floats([train_header.index(h) for h in channels])
    del train
    check_finite(train_path, train_values, channels)
    test_values = test.floats([test_header.index(h) for h in channels])
    check_finite(test_path, test_values, channels)
    labels = test.labels(label_idx)
    del test

    causes = {}
    if cause_map is not None:
        if not isinstance(cause_map, dict):
            cause_path = Path(cause_map)
            cause_map = read_json(cause_path)
            if not isinstance(cause_map, dict):
                raise ParseError(f"{cause_path}: cause map must be a JSON object")
        name_to_idx = {h: i for i, h in enumerate(channels)}
        k = len(run_bounds(labels)[0])
        for key, names in cause_map.items():
            # only the canonical decimal form: "+0", " 0 ", "00" and "0_0" are refused
            if not (isinstance(key, str) and key.isdecimal() and key == str(int(key))):
                raise ParseError(f"cause map key {key!r} is not an event ordinal")
            ordinal = int(key)
            if not (0 <= ordinal < k):
                raise ParseError(f"cause map names event {ordinal} but only {k} events exist")
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ParseError(
                    f"cause map key {key!r} must map to a list of channel names, "
                    f"got {names!r}"
                )
            if not names:
                raise ParseError(
                    f"cause map key {key!r} must map to a non-empty list of channel names, got []"
                )
            for name in names:
                if name not in name_to_idx:
                    raise ParseError(f"cause map channel {name!r} not among columns {channels}")
            causes[ordinal] = [name_to_idx[name] for name in names]

    scored_idx: tuple[int, ...] | None = None
    if scored_channels is not None:
        missing = [c for c in scored_channels if c not in channels]
        if missing:
            raise ParseError(f"scored channels {missing} not among columns {channels}")
        scored_idx = tuple(channels.index(c) for c in scored_channels)

    if entity_id is None:
        entity_id = Path(test_path).stem
    return Entity(
        id=entity_id,
        train=SeriesMatrix(train_values, tuple(channels)),
        test=SeriesMatrix(test_values, tuple(channels)),
        test_labels=labels,
        causes=causes,
        scored_channels=scored_idx,
    )
