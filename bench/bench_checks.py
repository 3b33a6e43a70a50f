"""Output checks for one ``qelmsim sweep-time`` run.

Every check is one attempted operation; so is every expected record. A run
fails one operation per row of ``failures.csv`` and one per failed check.
The sampled recomputation goes through the public building blocks
(``sample_hamiltonian``, ``herm_eig``, ``evolve_unitary``, ``averaged_otoc``,
``local_channel``, ``von_neumann_entropy``), not through the sweep's private
kernels, and compares at an absolute tolerance, never against stored bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

# Independent recomputation of otoc_avg and holevo_avg. The two code paths
# agree to ~1e-14; a real error is many orders larger.
RECOMPUTE_ATOL = 1e-9

# otoc_avg and Holevo values are exactly 0 at t = 0 in exact arithmetic, and
# the sweep writes them down to about -6e-16 there. The range checks allow
# this much floating-point round-off below 0 and above 2.
ROUNDOFF = 1e-12

OUTPUT_FILES = ("records.csv", "aggregates.csv", "holevo_nodes.csv")

_H = 0.5**0.5
# The eigenstate pairs of X, Y and Z: the three input ensembles of the
# paper's local Holevo information.
PAULI_PAIRS = (
    ((_H, _H), (_H, -_H)),
    ((_H, 1j * _H), (_H, -1j * _H)),
    ((1.0, 0.0), (0.0, 1.0)),
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    records: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def _range_problem(row: dict, metrics) -> str | None:
    try:
        return _value_problem(row, metrics)
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable record: {exc!r}"


def _value_problem(row: dict, metrics) -> str | None:
    otoc = _num(row["otoc_avg"]) if "otoc" in metrics else 0.0
    holevo = _num(row["holevo_avg"]) if "holevo" in metrics else 0.0
    mse = _num(row["mse"]) if "mse" in metrics else 1.0
    kappa = _num(row["condition_number"]) if "condition_number" in metrics else 1.0
    nodes = [_num(v) for k, v in row.items() if k.startswith("chi_node_") and v != ""]
    if None in (otoc, holevo, mse, kappa):
        return "a requested metric is empty"
    if not -ROUNDOFF <= otoc <= 2.0 + ROUNDOFF:
        return f"otoc_avg {otoc!r} outside [0, 2]"
    if min([holevo] + nodes) < -ROUNDOFF:
        return f"negative Holevo value {min([holevo] + nodes)!r}"
    if not (math.isfinite(mse) and mse > 0):
        return f"mse {mse!r} not finite and > 0"
    if not (math.isfinite(kappa) and kappa > 0):
        return f"condition_number {kappa!r} not finite and > 0"
    return None


def holevo_avg(u, n: int, log_base) -> float:
    """Local Holevo information averaged over nodes and Pauli axes.

    Built from ``local_channel`` and ``von_neumann_entropy`` alone: per node
    and axis, S(channel(mixture)) - (S(channel(+)) + S(channel(-))) / 2.
    """
    import numpy as np

    from qelmsim.linalg import von_neumann_entropy
    from qelmsim.scrambling import local_channel

    total = 0.0
    for plus, minus in PAULI_PAIRS:
        rho_p, rho_m = (np.outer(v, np.conj(v)) for v in (np.array(plus), np.array(minus)))
        for node in range(n):
            s_mix = von_neumann_entropy(local_channel(u, 0.5 * (rho_p + rho_m), n, node), log_base)
            s_p = von_neumann_entropy(local_channel(u, rho_p, n, node), log_base)
            s_m = von_neumann_entropy(local_channel(u, rho_m, n, node), log_base)
            total += s_mix - 0.5 * (s_p + s_m)
    return total / (3 * n)


def recompute(row: dict, config) -> tuple:
    """(otoc_avg, holevo_avg) of one record, from its seed alone."""
    import numpy as np

    import qelmsim as qs
    from qelmsim.harness import HAAR_LABEL

    n = int(row["n_reservoir"])
    seed = int(row["seed"])
    if row["topology"] == HAAR_LABEL:
        u = qs.haar_unitary(2 ** (n + 1), np.random.default_rng(seed))
    else:
        spec = qs.HamiltonianSpec(
            n, row["topology"], row["scheme"], config.j_range, config.delta_range, seed
        )
        eig = qs.herm_eig(qs.sample_hamiltonian(spec).h_total)
        u = qs.evolve_unitary(eig, float(row["time"]))
    return qs.averaged_otoc(u, n).averaged, holevo_avg(u, n, config.log_base)


def check_run(out_dir, exit_code: int, config, rng=None, samples: int = 0) -> Outcome:
    """Check one sweep-time output directory.

    ``samples`` records, drawn with ``rng``, are recomputed independently.
    """
    from qelmsim.harness import expected_record_count

    out_dir = Path(out_dir)
    expected = expected_record_count(config, "sweep-time")
    result = Outcome(attempted=expected)
    result.check(exit_code == 0, f"exit code {exit_code}")
    failures_csv = out_dir / "failures.csv"
    if not result.check(not failures_csv.exists(), "failures.csv exists"):
        result.failed += len(read_rows(failures_csv))
    records_csv = out_dir / "records.csv"
    rows = read_rows(records_csv) if records_csv.exists() else []
    result.check(len(rows) == expected, f"{len(rows)} records, expected {expected}")
    result.records = len(rows)
    bad = [f"row {i}: {p}" for i, r in enumerate(rows) if (p := _range_problem(r, config.metrics))]
    result.check(not bad, f"{len(bad)} records out of range, first {bad[0]}" if bad else "")

    if not samples or not rows or not {"otoc", "holevo"} <= set(config.metrics):
        return result
    for i in sorted(rng.choice(len(rows), size=min(samples, len(rows)), replace=False)):
        row = rows[i]
        otoc, holevo = recompute(row, config)
        for name, value in (("otoc_avg", otoc), ("holevo_avg", holevo)):
            got = float(row[name])
            result.check(
                abs(got - value) <= RECOMPUTE_ATOL,
                f"row {i} {name} {got!r} != recomputed {float(value)!r}",
            )
    return result


def same_bodies(dir_a, dir_b) -> Outcome:
    """The data CSVs of two runs of one config are byte-identical."""
    result = Outcome()
    for name in OUTPUT_FILES:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        result.check(same, f"{name} differs between {dir_a} and {dir_b}")
    return result
