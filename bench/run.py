"""qelmsim benchmark: timed ``qelmsim sweep-time`` runs plus a traced serial run.

Run from the repository root:

    python3 bench/run.py --workload grid-n7 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` starts the CLI as untraced child processes, repeated until
``--seconds`` have passed, and reports the end-to-end metrics as medians over
those runs. ``--trace 1`` calls the CLI in this process untraced, then with
the stage wrappers of ``bench_trace`` installed, then untraced again, and
reports per-layer metrics; it also times the process-pool probe. It does a
fixed amount of work and ignores ``--seconds``. Either mode checks every
output (``bench_checks``) and counts failed operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Detailed results
(environment, per-run values, spans) go to ``.bench_out/``.

No BLAS or OpenMP variable is set for the program: the thread counts it runs
with are recorded, never pinned. See ``bench/NOTES.md`` for why each
workload exists and what the seed commit measured.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402

# Workload configs: an inline config, or a config file of the repository.
# Every workload runs at --threads 1. Why each one exists is recorded in
# BENCHMARK.json and bench/NOTES.md.
WORKLOADS = {
    "grid-n7": {
        "n_reservoir": 7,
        "topologies": ["C", "FC"],
        "schemes": ["SL", "ML"],
        "time_grid": {"start": 0.0, "stop": 5.0, "points": 41},
        "n_realizations": 1,
        "shot_model": {"mode": "joint_bitstrings", "shots": 1000000},
    },
    "ensemble-n7": {
        "n_reservoir": 7,
        "topologies": ["C", "R", "FC"],
        "schemes": ["SL", "ML"],
        "time_grid": [5.0],
        "n_realizations": 8,
        "shot_model": {"mode": "joint_bitstrings", "shots": 1000000},
        "include_haar_baseline": True,
    },
    "quick-1t": "configs/quick.json",
}

# The pool probe: configs/quick.json cut to one realization per pair, run
# POOL_PAIRS times each at --threads 1 and at --threads 2.
POOL_THREADS = 2
POOL_PAIRS = 3

# Set-up is timed SETUP_RUNS times before the first sweep run, after each
# sweep run and after the last one, so its starts spread over the whole
# measuring window and a slow phase of the machine cannot shift them as a block.
SETUP_RUNS = 3
RECOMPUTE_SAMPLES = 2
CHILD_TIMEOUT_S = 150.0

SETUP_CODE = "import sys, qelmsim.cli; qelmsim.cli.parse_config(sys.argv[1])"

# Read and recorded, never set.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
)

P90_STAGES = ("qelm.features", "qelm.readout")
STAGE_KINDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("ms_p50", "ms"))


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the loaded OpenBLAS, read through its own getter."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv, err_path: Path) -> tuple:
    """(exit code, wall s, CPU s, peak RSS MB) of one child and its reaped children.

    The usage comes from ``wait4`` on this child's pid, so it covers this run
    alone; ``RUSAGE_CHILDREN`` would keep the largest RSS of any earlier run.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=CHILD_ENV,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Pool workers share the child's session; none may outlive the run.
    _kill_group(proc.pid)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sweep_args(config_path: Path, out_dir: Path, seed: int, threads: int) -> list:
    return [
        "sweep-time",
        "--config", str(config_path),
        "--out", str(out_dir),
        "--seed", str(seed),
        "--threads", str(threads),
    ]


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "qelmsim", *sweep_args(*args)]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


def config_path(name: str, work_dir: Path) -> Path:
    config = WORKLOADS[name]
    if isinstance(config, str):
        return ROOT / config
    path = work_dir / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def resolved_config(path: Path, seed: int):
    from qelmsim import cli

    return dataclasses.replace(cli.parse_config(path), master_seed=seed)


def measure_setup(path: Path, work_dir: Path, outcome) -> list:
    """Wall times of fresh interpreters importing qelmsim and parsing the config."""
    walls, codes = [], []
    for _ in range(SETUP_RUNS):
        rc, wall, _, _ = run_child([sys.executable, "-c", SETUP_CODE, str(path)], work_dir / "setup.err")
        codes.append(rc)
        walls.append(wall)
    outcome.check(all(rc == 0 for rc in codes), f"set-up exit codes {codes}")
    return walls


def run_untraced(name: str, seed: int, seconds: int, work_dir: Path):
    """End-to-end metrics: CLI child runs repeated until ``seconds`` have passed."""
    import numpy as np

    path = config_path(name, work_dir)
    config = resolved_config(path, seed)
    outcome = bench_checks.Outcome()
    setup_walls = measure_setup(path, work_dir, outcome)

    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        out_dir = work_dir / f"run{len(runs)}"
        rc, wall, cpu, rss = run_child(cli_argv(path, out_dir, seed, 1), work_dir / f"run{len(runs)}.err")
        runs.append({"out": out_dir, "exit": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
        setup_walls += measure_setup(path, work_dir, outcome)

    rng = np.random.default_rng(seed)
    for i, run in enumerate(runs):
        checked = bench_checks.check_run(
            run["out"], run["exit"], config, rng, RECOMPUTE_SAMPLES if i == 0 else 0
        )
        outcome.add(checked)
        run["records"] = checked.records
        run["out"] = str(run["out"])
    metrics = {
        "wall_s": (statistics.median([r["wall_s"] for r in runs]), "s"),
        "records_per_s": (statistics.median([r["records"] / r["wall_s"] for r in runs]), "1/s"),
        "cpu_s": (statistics.median([r["cpu_s"] for r in runs]), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in runs]), "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    return metrics, outcome, {"runs": runs, "setup_walls_s": setup_walls}


def pool_probe(seed: int, work_dir: Path, outcome) -> dict:
    """Serial and pool wall times on the probe config; checks the CSV bodies match."""
    config = json.loads((ROOT / WORKLOADS["quick-1t"]).read_text())
    config["n_realizations"] = 1
    path = work_dir / "pool-probe.json"
    path.write_text(json.dumps(config))
    resolved = resolved_config(path, seed)
    walls = {1: [], POOL_THREADS: []}
    for i in range(POOL_PAIRS):
        for threads in (1, POOL_THREADS) if i % 2 == 0 else (POOL_THREADS, 1):
            out_dir = work_dir / f"pool{i}-{threads}"
            rc, wall, _, _ = run_child(cli_argv(path, out_dir, seed, threads), work_dir / "pool.err")
            outcome.add(bench_checks.check_run(out_dir, rc, resolved))
            walls[threads].append(wall)
        outcome.add(bench_checks.same_bodies(work_dir / f"pool{i}-1", work_dir / f"pool{i}-{POOL_THREADS}"))
    return walls


def run_traced(name: str, seed: int, work_dir: Path):
    """Per-layer metrics from one serial in-process run with the stage wrappers on."""
    import numpy as np

    from qelmsim import cli

    path = config_path(name, work_dir)
    config = resolved_config(path, seed)
    outcome = bench_checks.Outcome()

    def plain_run(tag):
        start = time.perf_counter()
        code = cli.main(sweep_args(path, work_dir / tag, seed, 1))
        wall = time.perf_counter() - start
        outcome.add(bench_checks.check_run(work_dir / tag, code, config))
        return wall

    # Untraced runs on both sides of the traced one, so drift in machine
    # speed cancels out of trace.overhead.
    wall_plain = [plain_run("plain0")]
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer) as missing:
        start = tracer.clock()
        rc_traced = cli.main(sweep_args(path, work_dir / "traced", seed, 1))
        wall_traced = tracer.clock() - start
    spans = [[n, s - start, e - start, p] for n, s, e, p in tracer.spans]
    wall_plain.append(plain_run("plain1"))

    rng = np.random.default_rng(seed)
    outcome.add(bench_checks.check_run(work_dir / "traced", rc_traced, config, rng, RECOMPUTE_SAMPLES))
    pool_walls = pool_probe(seed, work_dir, outcome)

    stages = bench_trace.stage_metrics(spans)
    untraced = sorted(stage for stage, targets in bench_trace.STAGES if len(missing.get(stage, ())) == len(targets))
    metrics = {}
    for stage in bench_trace.STAGE_NAMES:
        for kind, unit in STAGE_KINDS:
            metrics[f"{stage}.{kind}"] = (stages[stage][kind], unit)
    for stage in P90_STAGES:
        # Absent, not 0, when the stage made too few calls for a 90th percentile.
        if "ms_p90" in stages[stage]:
            metrics[f"{stage}.ms_p90"] = (stages[stage]["ms_p90"], "ms")
    metrics["trace.overhead"] = (wall_traced / statistics.mean(wall_plain), "ratio")
    metrics["trace.unattributed_frac"] = (bench_trace.unattributed(spans, wall_traced) / wall_traced, "frac")
    metrics["trace.untraced_stages"] = (len(untraced), "count")
    metrics["harness.pool.speedup"] = (statistics.median(pool_walls[1]) / statistics.median(pool_walls[POOL_THREADS]), "ratio")
    detail = {
        "wall_plain_s": wall_plain,
        "wall_traced_s": wall_traced,
        "pool_walls_s": pool_walls,
        "missing_targets": missing,
        "untraced_stages": untraced,
        "stages": stages,
        "spans": spans,
    }
    return metrics, outcome, detail


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def report(name: str, trace: int, metrics: dict, outcome, detail: dict) -> None:
    print(f"workload {name}  trace {trace}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {unit}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_frac':34s} {frac:14.6g} frac ({outcome.failed}/{outcome.attempted})")
    if trace:
        if detail["untraced_stages"]:
            print(f"  untraced stages: {', '.join(detail['untraced_stages'])}")
        for stage, row in detail["stages"].items():
            if "ms_p90" in row and stage not in P90_STAGES:
                print(f"  {stage + '.ms_p90':34s} {row['ms_p90']:14.6g} ms ({row['calls']} calls)")
            elif "ms_p90" not in row and stage in P90_STAGES:
                print(f"  {stage + '.ms_p90':34s} ABSENT: {row['calls']} calls, fewer than {bench_trace.P90_MIN_CALLS}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [SRC / "qelmsim"] + [ROOT / c for c in WORKLOADS.values() if isinstance(c, str)]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"benchmark needs the qelmsim sources; missing: {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    all_metrics = {}
    total = bench_checks.Outcome()
    for name in names:
        work_dir = OUT / f"work-{name}-{args.seed}-{args.trace}-{os.getpid()}"
        work_dir.mkdir()
        try:
            if args.trace:
                metrics, outcome, detail = run_traced(name, args.seed, work_dir)
            else:
                metrics, outcome, detail = run_untraced(name, args.seed, args.seconds, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        report(name, args.trace, metrics, outcome, detail)
        result = {
            "workload": name,
            "trace": args.trace,
            "env": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            **detail,
        }
        result_path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
        total.add(outcome)
        prefix = f"{name}." if len(names) > 1 else ""
        for k, (v, u) in metrics.items():
            all_metrics[prefix + k] = {"value": v, "unit": u}

    print(
        json.dumps(
            {
                "correct": total.failed == 0,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": all_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
