"""Command line front end: parse a config, run sweeps, emit plot-ready tables.

One command, ``sweep-time``, runs the experiment its config file describes,
with the Haar baseline when the config sets ``include_haar_baseline``;
``--seed`` is the one override of a config key.
Exit codes: 0 success, 2 usage error, 3 config error, 4 runtime failure,
5 partial failure (some work units failed; their keys are in failures.csv).
Records are sorted deterministically and floats are serialized with 17
significant digits, and sweeps run BLAS on one thread, so re-running a config
into a fresh directory reproduces the CSV bodies byte for byte at any
--threads and BLAS thread setting, under one numpy and OpenBLAS build and
kernel: manifest.json records blas_core, and blas_threads 1 (null: no OpenBLAS
was found and BLAS ran as set). Only manifest.json carries timestamps.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, _process, harness
from . import linalg as la
from .harness import (
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

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SweepConfig)}


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    tool_version: str
    started: str
    finished: str
    record_count: int
    failure_count: int
    blas_threads: int | None
    blas_core: str | None


def _unique_keys(pairs) -> dict:
    """One JSON object from its ``(key, value)`` pairs; a repeated key is a ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def parse_config(path=None) -> SweepConfig:
    """Read a JSON config file and materialize every default.

    An empty or missing file yields the full defaults (7 reservoir qubits,
    C/R/FC topologies, both coupling schemes, 41 times on [0, 5], 500
    realizations, 50/50 train/test states, 10^6 joint-bitstring shots).
    Unknown keys, and a key repeated within one object, are rejected.
    The values go to ``SweepConfig`` as the file gives them; it resolves
    every field and raises ConfigError naming a malformed one.
    """
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        if text.strip():
            try:
                raw = json.loads(text, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top-level config must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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


# The scalar record fields, one column each; ``holevo_per_node`` spreads over
# chi_node_0..chi_node_{N-1}, empty past a record's own N.
_RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(ExperimentRecord) if f.name != "holevo_per_node")


def _records_table(records) -> tuple:
    max_nodes = max((r.n_reservoir for r in records), default=0)
    header = _RECORD_COLUMNS + tuple(f"chi_node_{i}" for i in range(max_nodes))
    rows = []
    for r in records:
        nodes = list(r.holevo_per_node)
        rows.append([getattr(r, c) for c in _RECORD_COLUMNS] + nodes + [None] * (max_nodes - len(nodes)))
    return header, rows


_STAT_COLUMNS = ("n", "median", "q1", "q3")
_FAILURE_COLUMNS = tuple(f.name for f in dataclasses.fields(UnitFailure))


def _stats_table(row_type, rows) -> tuple:
    """Aggregate or per-node rows: their key fields, then the ensemble statistics."""
    keys = tuple(f.name for f in dataclasses.fields(row_type) if f.name != "stats")
    body = [[getattr(r, k) for k in keys] + [getattr(r.stats, s) for s in _STAT_COLUMNS] for r in rows]
    return keys + _STAT_COLUMNS, body


def emit_records(result: SweepResult, out_dir, config: SweepConfig, started: str, finished: str) -> RunManifest:
    """Write the records and failures of ``result``, their aggregate and
    per-node Holevo tables, and a manifest of the sweep ``config`` that ran
    from ``started`` to ``finished`` (ISO timestamps).

    The tables are computed from the records and written as CSV; the manifest
    is JSON. Every file is written first into a hidden temporary directory in
    ``out_dir``, so a failed write leaves an earlier run's files untouched.
    Then the old manifest goes, each table replaces the one of an earlier run
    (``holevo_nodes.csv`` or ``failures.csv`` is removed when this run has no
    rows for it), and the manifest comes last: a directory whose manifest
    matches its tables holds one whole run.
    """
    records, failures = result.records, result.failures
    if not records and not failures:
        raise ValueError("nothing to emit: no records and no failure report")
    out = Path(out_dir)
    agg_rows, node_rows = harness.aggregate_records(records)
    tables = {
        "records.csv": _records_table(records),
        "aggregates.csv": _stats_table(AggregateRow, agg_rows),
        "holevo_nodes.csv": _stats_table(HolevoNodeRow, node_rows) if node_rows else None,
        "failures.csv": (_FAILURE_COLUMNS, [dataclasses.astuple(f) for f in failures]) if failures else None,
    }
    blas = _process.openblas()
    manifest = RunManifest(
        config_digest=config_digest(config),
        tool_version=__version__,
        started=started,
        finished=finished,
        record_count=len(records),
        failure_count=len(failures),
        blas_threads=1 if blas else None,
        blas_core=blas.core if blas else None,
    )
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".emit-", dir=out))
        try:
            for name, table in tables.items():
                if table:
                    _write_csv(stage / name, *table)
            with open(stage / "manifest.json", "w") as fh:
                json.dump(dataclasses.asdict(manifest), fh, indent=1, sort_keys=True)
                fh.write("\n")
            (out / "manifest.json").unlink(missing_ok=True)
            for name, table in tables.items():
                if table:
                    os.replace(stage / name, out / name)
                else:
                    (out / name).unlink(missing_ok=True)
            os.replace(stage / "manifest.json", out / "manifest.json")
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except OSError as exc:
        raise RuntimeError(f"failed writing results under {out}: {exc}") from exc
    return manifest


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an integer >= ``minimum`` (``linalg._count``); argparse names the flag in its error."""
    def parse(text: str) -> int:
        try:
            return la._count(int(text), minimum=minimum)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qelmsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qelmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep-time", help="metrics over the configured sizes and time grid")
    p.add_argument("--config", metavar="PATH", help="JSON config file (defaults apply when omitted)")
    p.add_argument("--out", metavar="DIR", default="qelmsim-out", help="output directory (default ./qelmsim-out)")
    p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the master seed")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="worker processes, each on one core, at most one per usable CPU (results are schedule-independent)")
    return parser


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    try:  # an unusable --out fails before any unit runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {args.out}: {exc}") from exc
    started = datetime.now(timezone.utc).isoformat()
    outcome: SweepResult = harness.run_time_sweep(cfg, threads=args.threads)
    finished = datetime.now(timezone.utc).isoformat()
    emit_records(outcome, args.out, cfg, started, finished)
    if outcome.failures:
        print(f"{len(outcome.failures)} work unit(s) failed; see failures.csv under {args.out}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def main(argv=None) -> int:
    _process.sweep_process()
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
