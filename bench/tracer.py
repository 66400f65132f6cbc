"""Spans around nettom's public functions, for the traced run only.

``layers.json`` names the functions of each layer. :meth:`Tracer.installed`
rebinds each of them, for the duration of a ``with`` block, everywhere a
caller looks it up: in every nettom module that holds the same function
object (``evalkit.rollout`` as well as ``cyberenv.rollout``), and on the
class for methods. Spans are kept in memory as flat arrays (name, parent,
start, end) and are reduced to per-layer metrics only after the run.

A call that re-enters a span of the same name (a policy's ``act`` calling
``super().act``) is folded into the outer span, so ``calls`` counts what
callers asked for.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS_FILE = Path(__file__).with_name("layers.json")
ROOT_SPAN = "bench"


def load_layers() -> dict:
    return json.loads(LAYERS_FILE.read_text(encoding="utf-8"))


# Exact counts recorded at span boundaries, keyed by the metric they feed.
def _count_cells(counts, args, result):
    p, q = args[0], args[1]
    counts["transport.ntd.cells"] += int(np.count_nonzero(p)) * int(np.count_nonzero(q))


def _count_jsonl(counts, args, result):
    counts["cyberenv.trajectory_to_jsonl.bytes"] += len(result.encode("utf-8"))


def _count_rollout(counts, args, result):
    counts["steps_produced"] += len(result.steps)


def _count_manifest_read(counts, args, result):
    counts["dataset.manifest.bytes"] += os.path.getsize(args[0])


def _count_build(counts, args, result):
    counts["samples"] += len(result.samples)
    counts["currents"] += result.n_c * len(result.games)
    counts["steps_referenced"] += sum(
        1 + sum(len(p.step_indices) for p in s.past) for s in result.samples)


def _count_sinkhorn(counts, args, result):
    counts["sinkhorn.sinkhorn_plan.iterations"] += result.iterations_used
    counts["converged"] += int(result.converged)


def _count_rows(counts, args, result):
    counts["evalkit.score_sr.rows"] += len(result.rows)


COUNTERS = {
    "transport.ntd": _count_cells,
    "cyberenv.trajectory_to_jsonl": _count_jsonl,
    "cyberenv.rollout": _count_rollout,
    "dataset.read_manifest": _count_manifest_read,
    "dataset.build_dataset": _count_build,
    "sinkhorn.sinkhorn_plan": _count_sinkhorn,
    "evalkit.score_sr": _count_rows,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, layers: dict):
        """Rebind every function named in ``layers`` to its traced wrapper."""
        undo: list[tuple[object, str, object]] = []
        try:
            for span_name, targets in layers["spans"].items():
                for target in targets:
                    self._install(span_name, target, undo)
            with self.span(ROOT_SPAN):
                yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, span_name: str, target: str, undo: list) -> None:
        module_name, _, path = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if not owner_name:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(target)
                return
            wrapper = self.wrap(span_name, original)
            package = module_name.partition(".")[0]
            for mod in list(_modules(package)):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
            return
        owner = getattr(module, owner_name, None)
        classes = list(owner.values()) if isinstance(owner, dict) else [owner]
        owners = {klass for cls in classes for klass in getattr(cls, "__mro__", ())
                  if attr in vars(klass)}
        if not owners:
            self.missing.append(target)
        wrapped = {(o, a) for o, a, _ in undo}
        for klass in owners - {o for o, a in wrapped if a == attr}:
            original = vars(klass)[attr]
            undo.append((klass, attr, original))
            setattr(klass, attr, self.wrap(span_name, original))

    # -- reduction ------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float]]:
        """Calls and total self seconds per span name."""
        n = len(self.start)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}

    def repeatable_counts(self) -> dict:
        """Everything a second traced run over the same inputs must repeat."""
        table = self.span_table()
        out = {f"{name}.calls": calls for name, (calls, _) in table.items()}
        out.update(self.counts)
        return out


def _modules(package: str):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            yield module


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


COUNTED = {
    "transport.ntd.cells", "cyberenv.trajectory_to_jsonl.bytes",
    "dataset.manifest.bytes", "sinkhorn.sinkhorn_plan.iterations",
    "evalkit.score_sr.rows",
}


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Values of the per-layer metrics ``names`` from one traced run.

    ``<span>.calls`` counts calls, ``<span>.self_ms`` and ``.self_us`` are
    mean self time per call, ``<module>.total_self_ms`` is the summed self
    time of a layer's spans, and other names are exact counts or ratios of
    counts recorded at span boundaries.
    """
    table = tracer.span_table()
    counts = tracer.counts

    def calls(span):
        return table.get(span, (0, 0.0))[0]

    def self_s(span):
        return table.get(span, (0, 0.0))[1]

    derived = {
        "sinkhorn.sinkhorn_plan.iter_us": lambda: 1e6 * _ratio(
            self_s("sinkhorn.sinkhorn_plan"), counts["sinkhorn.sinkhorn_plan.iterations"]),
        "sinkhorn.sinkhorn_plan.converged_ratio": lambda: _ratio(
            counts["converged"], calls("sinkhorn.sinkhorn_plan")),
        "dataset.samples_per_current": lambda: _ratio(counts["samples"], counts["currents"]),
        "dataset.steps_referenced_ratio": lambda: _ratio(
            counts["steps_referenced"], counts["steps_produced"]),
    }
    out = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]()
        elif name in COUNTED:
            out[name] = counts[name]
        elif tail == "calls":
            out[name] = calls(head)
        elif tail in ("self_ms", "self_us"):
            scale = 1e3 if tail == "self_ms" else 1e6
            out[name] = scale * _ratio(self_s(head), calls(head))
        elif tail == "total_self_ms":
            prefix = head + "."
            out[name] = 1e3 * sum(s for span, (_, s) in table.items()
                                  if span.startswith(prefix) or span == head)
    return out

