"""Command line front end: parse a config, run sweeps, emit plot-ready tables.

Exit codes: 0 success, 2 usage error, 3 config error, 4 runtime failure,
5 partial failure (some work units failed; their keys are in failures.csv).
Records are sorted deterministically and floats are serialized with 17
significant digits, and sweeps run BLAS on one thread, so re-running a config
into a fresh directory reproduces the CSV bodies byte for byte, at any
--threads and under any BLAS thread setting, whenever manifest.json records
blas_threads 1 (null means no OpenBLAS thread setter was found and BLAS ran
as the environment set it). Only manifest.json carries timestamps.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, harness
from . import linalg as la
from .harness import (
    ALL_METRICS,
    AggregateRow,
    ConfigError,
    ExperimentRecord,
    HolevoNodeRow,
    SweepConfig,
    SweepResult,
    UnitFailure,
)

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_CONFIG",
    "EXIT_RUNTIME",
    "EXIT_PARTIAL",
    "ENV_OUT_DIR",
    "RunManifest",
    "parse_config",
    "config_digest",
    "emit_records",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4
EXIT_PARTIAL = 5

ENV_OUT_DIR = "QELMSIM_OUT_DIR"
_DEFAULT_OUT_DIR = "qelmsim-out"

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SweepConfig)}


@dataclass(frozen=True)
class RunManifest:
    config_digest: str | None
    tool_version: str
    started: str
    finished: str
    record_count: int
    failure_count: int
    blas_threads: int | None


def parse_config(path=None, strict: bool = True, overlay: dict | None = None) -> SweepConfig:
    """Read a JSON config file and materialize every default.

    An empty or missing file yields the full defaults (7 reservoir qubits,
    C/R/FC topologies, both coupling schemes, 41 times on [0, 5], 500
    realizations, 50/50 train/test states, 10^6 joint-bitstring shots).
    Unknown keys are rejected under ``strict``, warned about otherwise.
    ``overlay`` supplies per-command defaults for keys absent from the file.
    The values go to ``SweepConfig`` as the file gives them; it resolves
    every field and raises ConfigError naming a malformed one.
    """
    raw: dict = {}
    if path is not None:
        text = Path(path).read_text()
        if text.strip():
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top-level config must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        message = f"unknown config keys: {sorted(unknown)}"
        if strict:
            raise ConfigError(message)
        warnings.warn(message, stacklevel=2)
        raw = {k: v for k, v in raw.items() if k in _CONFIG_KEYS}
    if overlay:
        for key, value in overlay.items():
            raw.setdefault(key, value)
    return SweepConfig(**raw)


def config_digest(config: SweepConfig) -> str:
    """SHA-256 of the canonical JSON form of the resolved config."""
    canonical = json.dumps(config.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# The scalar record fields, one column each; ``holevo_per_node`` spreads over
# chi_node_0..chi_node_{N-1}, empty past a record's own N.
_RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(ExperimentRecord) if f.name != "holevo_per_node")


def _records_table(records) -> tuple:
    max_nodes = max((len(r.holevo_per_node) for r in records if r.holevo_per_node), default=0)
    header = _RECORD_COLUMNS + tuple(f"chi_node_{i}" for i in range(max_nodes))
    rows = []
    for r in records:
        nodes = list(r.holevo_per_node or ())
        rows.append([getattr(r, c) for c in _RECORD_COLUMNS] + nodes + [None] * (max_nodes - len(nodes)))
    return header, rows


_STAT_COLUMNS = ("n", "median", "q1", "q3")
_FAILURE_COLUMNS = tuple(f.name for f in dataclasses.fields(UnitFailure))


def _stats_table(row_type, rows) -> tuple:
    """Aggregate or per-node rows: their key fields, then the ensemble statistics."""
    keys = tuple(f.name for f in dataclasses.fields(row_type) if f.name != "stats")
    body = [[getattr(r, k) for k in keys] + [getattr(r.stats, s) for s in _STAT_COLUMNS] for r in rows]
    return keys + _STAT_COLUMNS, body


def emit_records(
    records,
    format: str = "csv",
    out_dir=".",
    *,
    failures=(),
    config: SweepConfig | None = None,
    started: str | None = None,
    finished: str | None = None,
) -> RunManifest:
    """Write records, aggregate tables, per-node Holevo tables, and a manifest.

    The tables are computed from the records. ``format`` selects csv or json
    for the data files; the manifest is always JSON.
    """
    records = list(records)
    failures = list(failures)
    if not records and not failures:
        raise ValueError("nothing to emit: no records and no failure report")
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    agg_rows, node_rows = harness.aggregate_records(records)

    try:
        if format == "csv":
            _write_csv(out / "records.csv", *_records_table(records))
            _write_csv(out / "aggregates.csv", *_stats_table(AggregateRow, agg_rows))
            if node_rows:
                _write_csv(out / "holevo_nodes.csv", *_stats_table(HolevoNodeRow, node_rows))
        else:
            _write_json(out / "records.json", [dataclasses.asdict(r) for r in records])
            _write_json(out / "aggregates.json", [dataclasses.asdict(r) for r in agg_rows])
            if node_rows:
                _write_json(out / "holevo_nodes.json", [dataclasses.asdict(r) for r in node_rows])
        if failures:
            _write_csv(out / "failures.csv", _FAILURE_COLUMNS, map(dataclasses.astuple, failures))
        now = datetime.now(timezone.utc).isoformat()
        manifest = RunManifest(
            config_digest=config_digest(config) if config is not None else None,
            tool_version=__version__,
            started=started or now,
            finished=finished or now,
            record_count=len(records),
            failure_count=len(failures),
            blas_threads=1 if la._openblas_threads() is not None else None,
        )
        _write_json(out / "manifest.json", dataclasses.asdict(manifest))
    except OSError as exc:
        raise RuntimeError(f"failed writing results under {out}: {exc}") from exc
    return manifest


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR", default=None, help=f"output directory (default ${ENV_OUT_DIR} or ./{_DEFAULT_OUT_DIR})")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="data file format")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--threads", type=_positive_int, default=1, help="worker processes, each on one core (results are schedule-independent)")
    parser.add_argument("--metrics", default=None, help=f"comma-separated subset of {','.join(ALL_METRICS)}")
    parser.add_argument("--lax", action="store_true", help="warn on unknown config keys instead of rejecting")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qelmsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qelmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_time = sub.add_parser("sweep-time", help="metrics over the configured time grid")
    p_size = sub.add_parser("sweep-size", help="metrics over reservoir sizes (single-link coupling)")
    p_haar = sub.add_parser("baseline-haar", help="Haar-random global unitary baseline")
    for p in (p_time, p_size, p_haar):
        _add_common_arguments(p)

    p_one = sub.add_parser("single-run", help="one realization at one time, record printed to stdout")
    p_one.add_argument("--topology", required=True, help="C, R, or FC")
    p_one.add_argument("--scheme", required=True, help="SL or ML")
    p_one.add_argument("--n-reservoir", type=int, default=7)
    p_one.add_argument("--time", type=float, default=5.0)
    p_one.add_argument("--seed", type=int, default=0, help="master seed for this record")
    p_one.add_argument("--shots", type=int, default=10**6)
    p_one.add_argument("--shot-mode", default="joint_bitstrings", help="exact, joint_bitstrings, or independent_binomial")
    p_one.add_argument("--metrics", default=None, help=f"comma-separated subset of {','.join(ALL_METRICS)}")
    return parser


def _parse_metrics(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


_SIZE_SWEEP_OVERLAY = {"n_reservoir": [2, 3, 4, 5, 6, 7], "time_grid": [0.25, 5.0]}


def _load_sweep_config(args, command: str) -> SweepConfig:
    overlay = _SIZE_SWEEP_OVERLAY if command == "sweep-size" else None
    cfg = parse_config(args.config, strict=not args.lax, overlay=overlay)
    replacements = {}
    if args.seed is not None:
        replacements["master_seed"] = args.seed
    if args.metrics is not None:
        replacements["metrics"] = _parse_metrics(args.metrics)
    return dataclasses.replace(cfg, **replacements)


def _cmd_sweep(args, command: str) -> int:
    cfg = _load_sweep_config(args, command)
    out_dir = args.out or os.environ.get(ENV_OUT_DIR) or _DEFAULT_OUT_DIR
    started = datetime.now(timezone.utc).isoformat()
    runner = {
        "sweep-time": harness.run_time_sweep,
        "sweep-size": harness.run_size_sweep,
        "baseline-haar": harness.run_haar_baseline,
    }[command]
    outcome: SweepResult = runner(cfg, threads=args.threads)
    finished = datetime.now(timezone.utc).isoformat()
    emit_records(
        outcome.records,
        args.format,
        out_dir,
        failures=outcome.failures,
        config=cfg,
        started=started,
        finished=finished,
    )
    if outcome.failures:
        print(f"{len(outcome.failures)} work unit(s) failed; see failures.csv under {out_dir}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_single_run(args) -> int:
    metrics = _parse_metrics(args.metrics) if args.metrics is not None else ALL_METRICS
    cfg = SweepConfig(
        n_reservoir=args.n_reservoir,
        topologies=(args.topology,),
        schemes=(args.scheme,),
        time_grid=(args.time,),
        n_realizations=1,
        shot_model={"mode": args.shot_mode, "shots": args.shots},
        master_seed=args.seed,
        metrics=metrics,
    )
    outcome = harness.run_time_sweep(cfg)
    if outcome.failures:
        raise RuntimeError(f"single run failed: {outcome.failures[0].error}")
    record = outcome.records[0]
    print(json.dumps(dataclasses.asdict(record), indent=1, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "single-run":
            return _cmd_single_run(args)
        return _cmd_sweep(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
