"""Command-line interface.

Subcommands: generate (synthetic dataset -> CSV files), run (experiment
config -> results), compare-metrics (labels CSV -> F-score table), rank
(score table -> average ranks + significance), diagnose (channel scores +
events -> ranked causes).

Exit codes: 0 full success, 2 partial cell failures during run, 1 config
or input errors. Time indices in all file formats are 0-based.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    Event,
    ParseError,
    ValidationError,
    decode_config,
    read_json,
    write_atomic,
)
from .diagnosis import RANK_STATISTICS
from .experiment import (
    compare_metrics,
    config_from_json,
    diagnose_events,
    emit_results,
    run_experiment,
)
from .ingest import (
    SyntheticSpec,
    _CsvFile,
    check_finite,
    check_unique,
    generate_synthetic,
    read_csv,
)
from .rankstats import RankTable, compare_to_best

_USAGE_EXIT = 1


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1; 2 is reserved for partial run failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _integer(what: str, low: int):
    """An argparse type: one integer >= low, or an error naming ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: need one integer >= {low}")
        return value

    return parse


_seed = _integer("seed", 0)
_positive = _integer("value", 1)


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        seeds = None
    if seeds is None or any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}: need integers >= 0")
    return seeds


def _write_rows(path: Path, header: list[str], rows) -> None:
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_table(rows: list[dict], columns: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def _cell(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return value


def _cmd_generate(args) -> int:
    spec = SyntheticSpec.from_dict(read_json(args.config))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    entity = generate_synthetic(spec)
    out = Path(args.out) if args.out else Path(spec.entity_id)
    out.mkdir(parents=True, exist_ok=True)

    names = list(entity.train.channel_names)
    _write_rows(
        out / "train.csv",
        names,
        ([str(float(v)) for v in row] for row in entity.train.values),
    )
    labels = entity.test_labels
    _write_rows(
        out / "test.csv",
        names + ["label"],
        (
            [str(float(v)) for v in row] + [str(int(labels[i]))]
            for i, row in enumerate(entity.test.values)
        ),
    )
    written = [out / "train.csv", out / "test.csv"]
    causes = {str(i): [names[c] for c in sorted(cs)] for i, cs in entity.causes.items()}
    if causes:
        cause_path = out / "causes.json"
        with write_atomic(cause_path) as fh:
            fh.write(json.dumps(causes, indent=2, sort_keys=True) + "\n")
        written.append(cause_path)
    for path in written:
        print(path)
    return 0


def _cmd_run(args) -> int:
    config = config_from_json(args.config)
    if args.seed is not None:
        config = replace(config, seeds=tuple(args.seed))
    out_dir = args.out or os.environ.get("TSADKIT_OUTPUT_DIR") or config.output_dir
    if args.workers is not None:
        workers = args.workers
    else:
        text = os.environ.get("TSADKIT_WORKERS", "1")
        try:
            workers = int(text)
        except ValueError:
            raise ConfigError(f"TSADKIT_WORKERS must be an integer, got {text!r}") from None
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    record = run_experiment(config, workers=workers)
    paths = emit_results(record, out_dir, fmt=args.format)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    overall = record.aggregates.get("overall", {})
    for key in sorted(overall):
        value = overall[key]
        if value is not None:
            print(f"overall {key}: {value:.4f}")
    if record.failures:
        for failure in record.failures:
            print(
                f"FAILED {failure['entity']}/seed {failure['seed']}: {failure['error']}",
                file=sys.stderr,
            )
        return 2
    return 0


def _read_label_columns(path: str | Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    # every cell under an entity's label rule: it reads 0 or 1 once stripped
    table = _CsvFile(path, every_label=True)
    header = table.header
    truth = table.labels(0)
    named = {name: table.labels(j) for j, name in enumerate(header) if j}
    if not named:
        raise ParseError(f"{path}: need at least one prediction column after the truth column")
    check_unique(path, header[1:], "prediction column")
    return truth, named


def _cmd_compare(args) -> int:
    truth, named = _read_label_columns(args.labels)
    rows = compare_metrics(truth, named, rad_seed=args.seed)
    _print_table(rows, ["name", "f1", "fpa1", "fc1"], args.format)
    return 0


def _cmd_rank(args) -> int:
    table = RankTable.from_csv(args.table)
    summary = compare_to_best(
        table, alpha=args.alpha, higher_is_better=not args.lower_is_better
    )
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [
        {
            "method": name,
            "average_rank": summary["average_ranks"][i],
            "z": summary["pairwise_z"][i],
            "p": summary["pairwise_p"][i],
            "reject": summary["reject"][i],
        }
        for i, name in enumerate(summary["methods"])
    ]
    print(
        f"friedman statistic {summary['friedman_statistic']:.4f} "
        f"p {summary['friedman_p_value']:.3e} best {summary['best_method']}",
        file=sys.stderr,
    )
    _print_table(rows, ["method", "average_rank", "z", "p", "reject"], "csv")
    return 0


@dataclass(frozen=True)
class _EventEntry:
    """One item of a ``diagnose`` events file; a cause is a name or an index."""

    start: int
    end: int
    causes: tuple[str | int, ...] | None = None


def _load_events(path: str | Path, channel_names: list[str]) -> list[Event]:
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: events file must be a JSON list")
    if not raw:
        raise ConfigError(f"{path}: no events")
    index_of = {name: i for i, name in enumerate(channel_names)}
    events = []
    for i, item in enumerate(raw):
        where = f"events[{i}]"
        try:
            entry = decode_config(_EventEntry, item, where)
            causes = None
            if entry.causes is not None:
                causes = frozenset(
                    _cause_index(c, index_of, f"{where}.causes[{j}]")
                    for j, c in enumerate(entry.causes)
                )
            events.append(Event(entry.start, entry.end, causes))
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        except ValidationError as exc:  # Event's own checks
            raise ConfigError(f"{path}: {where}: {exc}") from None
    return events


def _cause_index(cause: str | int, index_of: dict[str, int], where: str) -> int:
    if isinstance(cause, str):
        if cause not in index_of:
            raise ConfigError(f"{where}: unknown channel {cause!r}")
        return index_of[cause]
    if not 0 <= cause < len(index_of):
        raise ConfigError(
            f"{where}: channel index must be in 0..{len(index_of) - 1}, got {cause}"
        )
    return cause


def _cmd_diagnose(args) -> int:
    names, scores = read_csv(args.scores)
    check_unique(args.scores, names, "channel")
    events = _load_events(args.events, names)
    check_finite(args.scores, scores, names)
    n = scores.shape[0]
    for e in events:
        if e.end >= n:
            raise ValidationError(f"event ({e.start},{e.end}) outside score range 0..{n - 1}")
    rankings, summary = diagnose_events(
        [scores[e.start : e.end + 1] for e in events],
        events, None, args.statistic, args.top_k, args.percent,
    )
    rows = [
        {"event": i, "start": e.start, "end": e.end, "ranking": [names[c] for c in r]}
        for i, (e, r) in enumerate(zip(events, rankings))
    ]
    report = {"statistic": args.statistic, "events": rows, **(summary or {})}
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        flat = [
            {**row, "ranking": "|".join(row["ranking"])}
            for row in rows
        ]
        _print_table(flat, ["event", "start", "end", "ranking"], "csv")
        if "rc_top_k" in report:
            print(
                f"rc_top_{args.top_k} {report['rc_top_k']:.4f} "
                f"hitrate@{args.percent} {report['hitrate']:.4f}",
                file=sys.stderr,
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsadkit", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as CSV files")
    p.add_argument("--config", required=True, help="synthetic spec JSON")
    p.add_argument("--seed", type=_seed, help="override the spec seed")
    p.add_argument("--out", help="output directory (default: entity id)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=_seed_list, help="override config seeds, e.g. 1,2,3")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, help="parallel (entity, seed) cells")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "compare-metrics",
        help="score labeled predictions: CSV columns = truth, then predictions",
    )
    p.add_argument("labels", help="CSV with a truth column then prediction columns")
    p.add_argument("--seed", type=_seed, default=0, help="random-baseline seed")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rank", help="average ranks, Friedman test, Hochberg step-up")
    p.add_argument("table", help="CSV: method,<group>,... one row per method")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--lower-is-better",
        action="store_true",
        help="rank smaller scores as better",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("diagnose", help="rank channels over annotated events")
    p.add_argument("scores", help="CSV of per-channel scores, header = channel names")
    p.add_argument("events", help="JSON list of {start, end, causes?}")
    p.add_argument("--statistic", choices=RANK_STATISTICS, default="mean")
    p.add_argument("--top-k", type=_positive, default=3)
    p.add_argument("--percent", type=_positive, default=150)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0, errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
