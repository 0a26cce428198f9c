"""Shared domain types: series matrices, labels, events, entities.

Everything here is immutable after construction and safe to share across
worker threads. Time indices are 0-based throughout; an event is a
maximal run of 1s in a label vector, its span on the same axis.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import types
import typing
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

# Aliases for the array shapes that flow between pipeline stages. They are
# plain ndarrays; the names document intent, the check_* helpers enforce it.
ErrorMatrix = FloatArray      # (n, m) signed reconstruction residuals
ChannelScores = FloatArray    # (n, m) per-channel anomaly scores
ScoreSeries = FloatArray      # (n,) aggregated per-time-point score
LabelVector = IntArray        # (n,) binary flags


class ValidationError(ValueError):
    """A domain invariant was violated."""


class InsufficientDataError(ValidationError):
    """Not enough rows to perform the requested operation."""


class ParseError(ValueError):
    """A data file could not be parsed; message carries the location."""


class ConfigError(ValueError):
    """An experiment or model configuration is invalid."""


class TrainingError(RuntimeError):
    """Model training failed (for example a divergent loss)."""


def read_json(path: str | Path):
    """The parsed contents of a UTF-8 JSON file. A missing file, bytes
    that are not UTF-8 and text that is not JSON raise ParseError naming
    the path; any other OSError propagates."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParseError(f"{path}: file not found") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4,300 digits
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


@contextmanager
def write_atomic(path: Path):
    """Yield a UTF-8 text file that replaces ``path`` in one rename.

    The file is fsynced before the rename. A failed write leaves the
    previous file intact and removes the temporary file. The temporary
    file sits beside the target because a rename is atomic only within
    one file system. Newlines are written as given (``newline=""``), as
    the csv module expects.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def pool_map(fn, items, threads: int) -> list:
    """``fn`` over ``items`` in order, on up to ``threads`` pool workers."""
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# The config codec: a config is a frozen dataclass, written as a JSON object
# with one key per field. See decode_config for the rules.


@functools.cache
def _config_fields(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (resolved type, required) for every field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in dataclasses.fields(cls)
    }


@functools.cache
def _json_types(tp) -> tuple[tuple[object, type | tuple, str], ...]:
    """(type, Python type json.loads gives for it, JSON name) for each type
    ``tp`` allows: each member of a union, or ``tp`` itself."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return tuple(arm for t in typing.get_args(tp) for arm in _json_types(t))
    if dataclasses.is_dataclass(tp):
        return ((tp, dict, "an object"),)
    if typing.get_origin(tp) is tuple:
        return ((tp, list, "an array"),)
    names = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
             str: "a string"}
    return ((tp, (int, float) if tp is float else tp, names[tp]),)


def _shown(value) -> str:
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    return json.dumps(value)


def _decode(tp, value, path: str):
    for arm, loaded, _ in _json_types(tp):
        # bool is a subclass of int, but true is no number
        if isinstance(value, loaded) and (arm is bool or not isinstance(value, bool)):
            break
    else:
        wanted = " or ".join(name for _, _, name in _json_types(tp))
        raise ConfigError(f"{path} must be {wanted}, got {_shown(value)}")
    if loaded is dict:
        return _build(arm, value, path, f"{path}: ")
    if loaded is list:
        item = typing.get_args(arm)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if arm is not float:
        return value
    # json.loads takes NaN, Infinity and integers beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {_shown(value)}")
    return float(value)


def _build(cls, value, path: str, prefix: str):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {_shown(value)}")
    fields = _config_fields(cls)
    unknown = value.keys() - fields.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, (tp, required) in fields.items():
        if name in value:
            kwargs[name] = _decode(tp, value[name], f"{path}.{name}")
        elif required:
            raise ConfigError(f"{path}: missing key {name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the class's own checks, ConfigError included
        raise ConfigError(f"{prefix}{exc}") from None


def decode_config(cls, value, path: str = "config"):
    """Build the config dataclass ``cls`` from a parsed JSON value.

    Keys are field names; nested dataclasses are objects, tuples arrays. A
    left out field takes its default. Unknown keys, missing required keys and
    wrong JSON types (true for a number, 2.5 for an integer) raise a
    ConfigError naming the path, e.g. ``config.model.latent_dim``; an
    integer becomes a float where one is declared. A nested object's own
    checks become ConfigErrors prefixed with its path; the root's are left
    as they are, since they name the keys they span.
    """
    return _build(cls, value, path, "")


def encode_config(obj):
    """The JSON value of a config: the inverse of :func:`decode_config`."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [encode_config(v) for v in obj]
    return {name: encode_config(getattr(obj, name)) for name in _config_fields(type(obj))}


def validate_labels(labels) -> LabelVector:
    """Coerce to a 1-D int64 array and require every element to be 0 or 1."""
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValidationError(f"labels must be 1-D, got shape {y.shape}")
    if y.dtype == bool:
        y = y.astype(np.int64)
    if not np.issubdtype(y.dtype, np.integer):
        yf = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(yf)) or np.any(yf != np.floor(yf)):
            raise ValidationError("labels must be integer 0/1 values")
        y = yf.astype(np.int64)
    else:
        y = y.astype(np.int64)
    if y.size and not np.all((y == 0) | (y == 1)):
        bad = y[(y != 0) & (y != 1)][0]
        raise ValidationError(f"labels must be 0 or 1, found {bad}")
    return y


def check_float_matrix(values, name: str = "values") -> FloatArray:
    """Coerce to a finite 2-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return v


def check_score_series(values, name: str = "scores") -> ScoreSeries:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return v


@dataclass(frozen=True)
class SeriesMatrix:
    """A regularly sampled multivariate series, time x channels.

    Parameters
    ----------
    values : array-like, shape (n, m)
        Finite 64-bit floats, one row per time-point.
    channel_names : sequence of str, optional
        Length m. Generated as ``c0 .. c{m-1}`` when omitted.
    """

    values: FloatArray
    channel_names: tuple[str, ...] = ()

    def __post_init__(self):
        v = np.ascontiguousarray(check_float_matrix(self.values))
        n, m = v.shape
        if n < 1 or m < 1:
            raise ValidationError(f"series must be at least 1x1, got {n}x{m}")
        names = tuple(self.channel_names)
        if not names:
            names = tuple(f"c{i}" for i in range(m))
        if len(names) != m:
            raise ValidationError(
                f"{len(names)} channel names for {m} channels"
            )
        if len(set(names)) != m:
            raise ValidationError("channel names must be unique")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "channel_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Event:
    """A maximal run of anomalous time-points, inclusive on both ends."""

    start: int
    end: int
    causes: frozenset[int] | None = None

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValidationError(
                f"event needs 0 <= start <= end, got ({self.start}, {self.end})"
            )
        if self.causes is not None:
            causes = frozenset(int(c) for c in self.causes)
            if not causes:
                raise ValidationError("event causes, when given, must be non-empty")
            if any(c < 0 for c in causes):
                raise ValidationError("cause channel indices must be >= 0")
            object.__setattr__(self, "causes", causes)

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def run_bounds(labels: LabelVector) -> tuple[IntArray, IntArray]:
    """Starts and exclusive stops of the maximal runs of 1s, in time order.

    ``labels`` must already be validated.
    """
    edges = np.diff(np.concatenate(([0], labels, [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def midranks(values) -> FloatArray:
    """Ascending ranks of a 1-D array, 1 for the smallest, ties sharing
    their average rank.

    Every rank is a whole or half integer, so it is exact in float64.
    """
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_v) != 0) + 1))
    stops = np.concatenate((starts[1:], [v.size]))
    ranks = np.empty(v.size)
    # the block at sorted positions start..stop-1 holds ranks start+1..stop
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    return ranks


def resolve_scored(m: int, scored) -> IntArray:
    """Sorted unique indices of the scored channels; all m channels for None."""
    if scored is None:
        return np.arange(m, dtype=np.int64)
    # sorted(set()), not np.unique, which imports numpy.ma (~15 ms) on first use
    idx = np.array(sorted(set(np.asarray(list(scored), dtype=np.int64).tolist())), dtype=np.int64)
    if idx.size == 0:
        raise ValidationError("scored channel set must be non-empty")
    if idx[0] < 0 or idx[-1] >= m:
        raise ValidationError(f"scored channels {idx.tolist()} outside 0..{m - 1}")
    return idx


@dataclass(frozen=True)
class Entity:
    """One physical unit: its train/test series, labels, and events.

    ``test_events`` are the runs of 1s in ``test_labels``, in time order,
    derived once. ``causes`` maps an event's ordinal (0..k-1) to its cause
    channel indices, kept as a read-only copy that ``dataclasses.replace``
    carries over; an event it leaves out has none. ``scored_channels``
    restricts score aggregation to a channel subset; None means all.
    """

    id: str
    train: SeriesMatrix
    test: SeriesMatrix
    test_labels: LabelVector
    causes: Mapping[int, Iterable[int]] = dataclasses.field(default_factory=dict)
    scored_channels: tuple[int, ...] | None = None
    test_events: tuple[Event, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.train.m != self.test.m:
            raise ValidationError(
                f"train has {self.train.m} channels, test has {self.test.m}"
            )
        y = validate_labels(self.test_labels)
        if y.shape[0] != self.test.n:
            raise ValidationError(
                f"{y.shape[0]} labels for {self.test.n} test rows"
            )
        y.flags.writeable = False
        object.__setattr__(self, "test_labels", y)

        causes = {int(i): frozenset(int(c) for c in cs) for i, cs in self.causes.items()}
        starts, stops = run_bounds(y)
        k, m = len(starts), self.test.m
        for i, cs in causes.items():
            if not 0 <= i < k:
                raise ValidationError(f"causes name event {i} but the labels have {k} events")
            if max(cs, default=0) >= m:
                raise ValidationError(f"event {i} has cause channel >= m={m}")
        spans = zip(starts.tolist(), (stops - 1).tolist())
        events = tuple(Event(s, e, causes.get(i)) for i, (s, e) in enumerate(spans))
        object.__setattr__(self, "causes", types.MappingProxyType(causes))
        object.__setattr__(self, "test_events", events)
        if self.scored_channels is not None:
            scored = resolve_scored(m, self.scored_channels)
            object.__setattr__(self, "scored_channels", tuple(scored.tolist()))

    @property
    def m(self) -> int:
        return self.test.m

    def scored_indices(self) -> IntArray:
        return resolve_scored(self.m, self.scored_channels)
