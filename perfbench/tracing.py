"""Span tracing around klstab's public layer boundaries, from outside the package.

Modules import names directly (``from .kldet import kl_curve``), so each
wrapper is installed where the caller looks the name up.  Spans are kept in
flat arrays (about 40 bytes each) and written out when the run ends; the
per-layer counts and self times are derived from them.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter

import numpy as np

import klstab.kldet
import klstab.verdict
import klstab.winding
from klstab.boundary import BoundaryCondition
from klstab.errors import RefinementExhausted
from workloads import STATUSES


# Span names.  "op" is the benchmark's own root span around one operation.
NAMES = (
    "op",
    "check",
    "cauchy",
    "boundary_build",
    "kl_curve",
    "winding_number",
    "select_stable_roots",
    "find_roots_many",
    "min_modulus_on_circle",
    "needs_refinement",
)
_ID = {n: i for i, n in enumerate(NAMES)}

# (module, attribute, span name): the look-up sites of every wrapped function.
FUNCTION_SITES = (
    (klstab.verdict, "check", "check"),
    (klstab.verdict, "is_cauchy_stable", "cauchy"),
    (klstab.verdict, "kl_curve", "kl_curve"),
    (klstab.verdict, "winding_number", "winding_number"),
    (klstab.kldet, "select_stable_roots", "select_stable_roots"),
    (klstab.kldet, "find_roots_many", "find_roots_many"),
    (klstab.kldet, "min_modulus_on_circle", "min_modulus_on_circle"),
    (klstab.kldet, "needs_refinement", "needs_refinement"),
    (klstab.winding, "needs_refinement", "needs_refinement"),
)
CLASSMETHOD_SITES = (
    (BoundaryCondition, "from_reconstruction", "boundary_build"),
    (BoundaryCondition, "from_matrix", "boundary_build"),
)

# Outcome codes: 0 returned, 1 raised RefinementExhausted, 2 raised anything
# else, 10 + i returned a verdict with status STATUSES[i].
RETURNED, EXHAUSTED, RAISED, STATUS_BASE = 0, 1, 2, 10

# Counts that must be nonzero on each workload.  A wrapper that silently
# stopped matching (a renamed or re-routed function) reads zero here.
_EVERYWHERE = ("verdict.check.calls", "scheme.cauchy.calls", "boundary.build.calls",
               "kldet.curve.calls", "kldet.points", "poly.roots.calls",
               "winding.predicate.calls", "winding.count.calls")
REQUIRED = {
    "map": _EVERYWHERE + ("poly.rouche.calls", "kldet.fallback.calls"),
    "probe": _EVERYWHERE + ("poly.rouche.calls", "kldet.fallback.calls",
                            "kldet.exhausted.calls", "verdict.status.marginal",
                            "verdict.status.invalid_precondition"),
}
MAX_UNATTRIBUTED = 0.10  # share of traced wall left in check's own frame


class Tracer:
    """Records spans (name, parent, root op, start, end, rows, outcome)."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.rows = array("q")
        self.outcome = array("b")
        self._stack: list[int] = []
        self._saved: list = []

    def __len__(self) -> int:
        return len(self.name)

    def truncate(self, n: int) -> None:
        """Forget every span from index n on."""
        for column in (self.name, self.parent, self.op, self.t0, self.t1,
                       self.rows, self.outcome):
            del column[n:]

    def _open(self, name_id: int, rows: int) -> int:
        sid = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op[stack[0]] if stack else sid)
        self.rows.append(rows)
        self.outcome.append(RETURNED)
        self.t1.append(0.0)
        stack.append(sid)
        self.t0.append(perf_counter())
        return sid

    def _close(self, sid: int, outcome: int) -> None:
        self.t1[sid] = perf_counter()
        self.outcome[sid] = outcome
        self._stack.pop()

    def run_op(self, fn):
        """Run one benchmark operation under a root span."""
        sid = self._open(_ID["op"], 0)
        outcome = RAISED
        try:
            out = fn()
            outcome = RETURNED
            return out
        finally:
            self._close(sid, outcome)

    def _wrap(self, fn, name: str):
        name_id = _ID[name]
        counts_rows = name == "find_roots_many"
        is_check = name == "check"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name_id, len(args[0]) if counts_rows else 0)
            outcome = RAISED
            try:
                out = fn(*args, **kwargs)
                outcome = (
                    STATUS_BASE + STATUSES.index(out.status) if is_check else RETURNED
                )
                return out
            except RefinementExhausted:
                outcome = EXHAUSTED
                raise
            finally:
                tracer._close(sid, outcome)

        return wrapper

    def install(self) -> None:
        for module, attr, name in FUNCTION_SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        for cls, attr, name in CLASSMETHOD_SITES:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(original.__func__, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self, start: int = 0, stop: int | None = None) -> dict:
        sl = slice(start, stop)
        return {
            "name": np.frombuffer(self.name, dtype=np.int8)[sl],
            "parent": np.frombuffer(self.parent, dtype=np.int64)[sl],
            "dur": (
                np.frombuffer(self.t1, dtype=np.float64)[sl]
                - np.frombuffer(self.t0, dtype=np.float64)[sl]
            ),
            "rows": np.frombuffer(self.rows, dtype=np.int64)[sl],
            "outcome": np.frombuffer(self.outcome, dtype=np.int8)[sl],
        }

    def write(self, path: str) -> None:
        """Gzipped TSV, one span per line, times in seconds from the first span."""
        base = self.t0[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\trows\toutcome\n")
            for sid in range(len(self)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                    f"{NAMES[self.name[sid]]}\t{self.t0[sid] - base:.9f}\t"
                    f"{self.t1[sid] - base:.9f}\t{self.rows[sid]}\t"
                    f"{self.outcome[sid]}\n"
                )


def layer_metrics(tracer: Tracer, start: int, stop: int) -> dict:
    """Per-layer counts and times of the spans [start, stop) of one pass."""
    a = tracer.arrays(start, stop)
    name, dur, rows, outcome = a["name"], a["dur"], a["rows"], a["outcome"]
    parent = a["parent"] - start  # local indices; roots become negative
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    parent_name = np.full(len(dur), -1, dtype=np.int8)
    parent_name[has_parent] = name[parent[has_parent]]

    def sel(n, under=None):
        mask = name == _ID[n]
        if under is not None:
            mask &= parent_name == _ID[under]
        return mask

    def ms(x):
        return float(np.sum(x)) * 1e3

    check = sel("check")
    roots = sel("find_roots_many")
    curve = sel("kl_curve")
    fallback = sel("select_stable_roots", under="kl_curve")
    points = int(np.sum(rows[sel("find_roots_many", under="kl_curve")]))
    out = {
        "verdict.check.calls": int(np.sum(check)),
        "verdict.check.self_ms": ms(self_time[check]),
    }
    for i, status in enumerate(STATUSES):
        out[f"verdict.status.{status}"] = int(
            np.sum(check & (outcome == STATUS_BASE + i))
        )
    out.update({
        "scheme.cauchy.calls": int(np.sum(sel("cauchy"))),
        "scheme.cauchy.ms": ms(dur[sel("cauchy")]),
        "boundary.build.calls": int(np.sum(sel("boundary_build"))),
        "boundary.build.ms": ms(dur[sel("boundary_build")]),
        "poly.roots.calls": int(np.sum(roots)),
        "poly.roots.rows": int(np.sum(rows[roots])),
        "poly.roots.ms": ms(dur[roots]),
        "poly.roots.failed": int(np.sum(roots & (outcome != RETURNED))),
        "poly.rouche.calls": int(np.sum(sel("min_modulus_on_circle"))),
        "poly.rouche.ms": ms(dur[sel("min_modulus_on_circle")]),
        "kldet.curve.calls": int(np.sum(curve)),
        "kldet.curve.self_ms": ms(self_time[curve]),
        "kldet.points": points,
        "kldet.fallback.calls": int(np.sum(fallback)),
        "kldet.fallback.self_ms": ms(self_time[fallback]),
        "kldet.fast_path_ratio": (
            1.0 - float(np.sum(fallback)) / points if points else 0.0
        ),
        "kldet.exhausted.calls": int(np.sum(curve & (outcome == EXHAUSTED))),
        "winding.predicate.calls": int(np.sum(sel("needs_refinement"))),
        "winding.predicate.ms": ms(dur[sel("needs_refinement")]),
        "winding.count.calls": int(np.sum(sel("winding_number"))),
        "winding.count.self_ms": ms(self_time[sel("winding_number")]),
    })
    return out


def completeness_errors(workload: str, layers: dict, wall_s: float) -> list[str]:
    """Why this pass's trace cannot be trusted, or an empty list."""
    errors = [
        f"{name} is 0 on {workload}" for name in REQUIRED[workload] if not layers[name]
    ]
    share = layers["verdict.check.self_ms"] / 1e3 / wall_s
    if share > MAX_UNATTRIBUTED:
        errors.append(
            f"check's own frame holds {share:.1%} of traced wall, above "
            f"{MAX_UNATTRIBUTED:.0%}: a layer is no longer wrapped"
        )
    return errors
