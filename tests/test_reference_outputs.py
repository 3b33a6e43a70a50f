"""Committed sweep outputs, re-run and compared cell by cell.

Each directory under ``tests/data/`` named in ``REFERENCES`` holds a small
config and the ``records.csv``, ``aggregates.csv`` and ``holevo_nodes.csv``
it produced:

* ``reference/`` -- N=3, chain and fully connected, both coupling schemes,
  2 realizations on 5 times, 10^4 shots and the Haar baseline;
* ``reference-ladder/`` -- every register size N=2..7, chain and fully
  connected, both coupling schemes, 1 realization at t=0.25 and t=5, 10^4
  shots and the Haar baseline, so a last-bit change that shows only in the
  larger matrices of one size fails here.

In the numpy and BLAS build named by ``REFERENCE_ENVIRONMENT`` every cell
must match as text, at ``--threads`` 1 and 2. In any other build the numbers
are compared at ``FOREIGN_RTOL`` and ``FOREIGN_ATOL``, and a warning says so.
A change that moves output on purpose regenerates each reference with

    PYTHONPATH=src python -m qelmsim sweep-time --config tests/data/<name>/config.json --out tests/data/<name>

and, if it ran in another build, updates ``REFERENCE_ENVIRONMENT``.
"""

import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qelmsim import cli

DATA = Path(__file__).parent / "data"
REFERENCES = ("reference", "reference-ladder")
TABLES = ("records.csv", "aggregates.csv", "holevo_nodes.csv")
REFERENCE_ENVIRONMENT = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
# Another numpy or BLAS may round products differently in the last bits.
FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-12


def environment() -> str:
    """The running numpy version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return f"numpy {np.__version__}, unknown BLAS"


def read_table(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def as_number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def column_moves(got: list, want: list, close) -> dict:
    """``{column: largest move}`` over the cells of ``got`` that differ from
    ``want`` as text and are not ``close``; a cell that is not a pair of
    numbers moves by inf."""
    moves = {}
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(want[0], got_row, want_row):
            a, b = as_number(g), as_number(w)
            if g == w or (a is not None and b is not None and close(a, b)):
                continue
            move = abs(a - b) if a is not None and b is not None else math.inf
            moves[column] = max(moves.get(column, 0.0), math.inf if math.isnan(move) else move)
    return moves


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", REFERENCES)
def test_sweep_reproduces_the_reference(tmp_path, name, threads):
    reference = DATA / name
    same_build = environment() == REFERENCE_ENVIRONMENT
    if not same_build:
        warnings.warn(
            f"{environment()} is not the reference build ({REFERENCE_ENVIRONMENT}); "
            f"values are compared at rtol {FOREIGN_RTOL} and atol {FOREIGN_ATOL}"
        )

    def close(a, b):
        return not same_build and math.isclose(a, b, rel_tol=FOREIGN_RTOL, abs_tol=FOREIGN_ATOL)

    argv = ["sweep-time", "--config", str(reference / "config.json"), "--out", str(tmp_path), "--threads", str(threads)]
    assert cli.main(argv) == cli.EXIT_OK
    problems = []
    for table in TABLES:
        got, want = read_table(tmp_path / table), read_table(reference / table)
        if got[0] != want[0] or len(got) != len(want):
            problems.append(f"{table}: header {got[0]} and {len(got) - 1} rows, reference {want[0]} and {len(want) - 1}")
            continue
        problems += [f"{table} column {c}: largest move {m:.3g}" for c, m in column_moves(got, want, close).items()]
    assert not problems, "; ".join(problems)
