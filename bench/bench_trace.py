"""In-memory span tracer installed from outside the program.

Each stage wraps one or more module attributes that ``qelmsim.harness`` (or
``qelmsim.cli``) looks up at call time, so the wrappers see exactly the calls
a serial sweep makes. The public look-alikes (``averaged_otoc``,
``exact_features``, ...) are left alone: sweeps never call them.

Spans are kept in memory as ``[stage, start, end, parent]`` and turned into
per-stage numbers only after the traced run has ended.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import time

# (stage, ((module, attribute), ...)). Stage names name what is timed, not
# where the code lives, so they stay stable when the wrap targets move.
STAGES = (
    ("reservoir.hamiltonian", (("harness", "sample_hamiltonian"),)),
    ("linalg.eigh", (("linalg", "herm_eig"),)),
    ("linalg.haar", (("linalg", "haar_unitary"),)),
    ("scrambling.otoc_setup", (("harness", "_otoc_eigenbasis_ops"),)),
    ("scrambling.otoc_step", (("harness", "_otoc_per_pair_from_eig"),)),
    ("scrambling.otoc_haar", (("harness", "_otoc_per_pair_from_unitary"),)),
    ("scrambling.holevo", (("scrambling", "_holevo_from_columns"),)),
    ("qelm.features", (("qelm", "_features_from_columns"),)),
    (
        "qelm.readout",
        (("qelm", "train_readout"), ("qelm", "predict"), ("qelm", "mse"), ("qelm", "condition_number")),
    ),
    ("harness.propagator", (("harness", "_propagator_columns"),)),
    ("harness.unit", (("harness", "_hamiltonian_unit"), ("harness", "_haar_unit"))),
    ("harness.aggregate", (("harness", "aggregate_records"),)),
    ("cli.parse", (("cli", "parse_config"),)),
    ("cli.emit", (("cli", "emit_records"),)),
)

STAGE_NAMES = tuple(name for name, _ in STAGES)

# A 90th percentile needs at least 10 samples beyond it.
P90_MIN_CALLS = 100


class Tracer:
    """Records nested spans of the wrapped calls of one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, stage: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([stage, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every stage target that exists; yield ``{stage: [missing targets]}``.

    A target that no longer exists is skipped, so the run goes on and the
    stage is reported as untraced instead of failing.
    """
    originals = []
    missing = {}
    try:
        for stage, targets in STAGES:
            for module_name, attr in targets:
                module = importlib.import_module(f"qelmsim.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.setdefault(stage, []).append(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(stage, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children never overlap each
    other and never leave their parent.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def unattributed(spans, wall: float) -> float:
    """Seconds of ``wall`` that no root span covers."""
    return wall - sum(end - start for _, start, end, parent in spans if parent is None)


def _percentile_ms(durations, q: float) -> float:
    """Nearest-rank percentile of ``durations`` (seconds) in milliseconds."""
    ordered = sorted(durations)
    return 1e3 * ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def stage_metrics(spans) -> dict:
    """``{stage: {calls, busy_s, self_s, ms_p50[, ms_p90]}}`` for every stage."""
    own = self_times(spans)
    durations = {name: [] for name in STAGE_NAMES}
    selfs = {name: 0.0 for name in STAGE_NAMES}
    for (name, start, end, _), self_s in zip(spans, own):
        durations[name].append(end - start)
        selfs[name] += self_s
    out = {}
    for name in STAGE_NAMES:
        d = durations[name]
        row = {
            "calls": len(d),
            "busy_s": float(sum(d)),
            "self_s": selfs[name],
            "ms_p50": 1e3 * statistics.median(d) if d else 0.0,
        }
        if len(d) >= P90_MIN_CALLS:
            row["ms_p90"] = _percentile_ms(d, 90)
        out[name] = row
    return out
