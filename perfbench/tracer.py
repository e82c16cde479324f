"""Per-module time and call counts, taken from outside the package.

``Tracer`` wraps public functions of ``dosapp`` modules while it is active
and restores them when it exits. A name bound with ``from ... import`` is a
separate attribute of the importing module, so each wrapper is installed on
every ``dosapp`` module that holds the original object; otherwise calls made
through that binding would not be seen. Times are inclusive: a span contains
the spans of the calls it makes.

Backward time per op kind is taken by wrapping each tape node's
``backward_fn`` just before ``autodiff.backward`` replays the tape.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from dosapp import autodiff, data, ema, harness, masking, model, reporting, seeding, ttl

# (module, function) -> (time metric, call-count metric); a prefix p stands
# for (p_s, p_calls).
TIMED = {
    (harness, "run_supervised_session"): "harness.supervised",
    (harness, "evaluate"): "harness.eval",
    (ttl, "route_pseudo_label"): "ttl.route",
    (ema, "ema_update"): "ema.update",
    (ema, "compute_pq"): "ema.pq",
    (masking, "score_parameters"): "masking.score",
    (masking, "select_topk"): "masking.select",
    (masking, "union_masks"): "masking.select",
    (masking, "reselect_topk"): "masking.select",
    (data, "generate_tasks"): "data.generate",
    (data, "build_ttl_stream"): "data.stream",
    (seeding, "substream"): "seeding.substream",
    (reporting, "persist_run"): "reporting.persist",
    (reporting, "load_run"): "reporting.load",
    (reporting, "build_report"): "reporting.report",
    (reporting, "write_report_files"): "reporting.report",
    (reporting, "write_momentum_grid_csv"): "reporting.report",
}
TIMED.update({(autodiff, kind): (f"autodiff.op.{kind}.fwd_s", f"autodiff.op.{kind}.calls")
              for kind in autodiff.op_kinds()})


def _op_metrics(kind: str) -> list[tuple[str, str]]:
    return [(f"autodiff.op.{kind}.fwd_s", "s"), (f"autodiff.op.{kind}.bwd_s", "s"),
            (f"autodiff.op.{kind}.calls", "count")]


# Every per-layer metric a traced pass reports, with its unit, in report order.
METRICS: list[tuple[str, str]] = [
    ("ttl.session_s", "s"), ("ttl.batches", "count"), ("ttl.route_s", "s"),
    ("ttl.route_calls", "count"), ("ttl.student_forwards_per_batch", "ratio"),
    ("model.encode_s", "s"), ("model.encode_calls", "count"),
    ("model.untaped_encode_calls", "count"),
    ("ema.update_s", "s"), ("ema.update_calls", "count"), ("ema.pq_s", "s"),
    ("masking.score_s", "s"), ("masking.select_s", "s"),
    ("autodiff.backward_s", "s"), ("autodiff.backward_calls", "count"),
    ("autodiff.tape_nodes", "count"), ("autodiff.opt_step_s", "s"),
    ("autodiff.opt_step_calls", "count"),
    *[m for kind in autodiff.op_kinds() for m in _op_metrics(kind)],
    ("harness.supervised_s", "s"), ("harness.eval_s", "s"), ("harness.gradient_samples", "count"),
    ("data.generate_s", "s"), ("data.stream_s", "s"), ("seeding.substream_calls", "count"),
    ("reporting.persist_s", "s"), ("reporting.bytes_written", "B"), ("reporting.load_s", "s"),
    ("reporting.report_s", "s"),
]
COUNT_METRICS = [name for name, unit in METRICS if unit in ("count", "ratio", "B")]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dosapp" or name.startswith("dosapp."))]


def patch_everywhere(original, wrapper, patched: list) -> None:
    """Install ``wrapper`` on every dosapp module attribute that holds ``original``.

    Appends ``(module, attribute, original)`` to ``patched`` for each one, so
    the caller can restore them.
    """
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))


class Tracer:
    """Context manager: patch on enter, restore on exit, read ``metrics()``."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.audits: list[harness.RunAudit] = []
        self.patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._ttl_student = None

    # ------------------------------------------------------------ wrappers

    def _timed(self, keys, fn):
        times, counts = self.times, self.counts
        time_key, count_key = (f"{keys}_s", f"{keys}_calls") if isinstance(keys, str) else keys

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[time_key] += time.perf_counter() - t0
                counts[count_key] += 1
        return wrapper

    def _encode(self, fn):
        timed = self._timed("model.encode", fn)

        @functools.wraps(fn)
        def wrapper(params, x):
            if not autodiff._ACTIVE:
                self.counts["model.untaped_encode_calls"] += 1
            if params is self._ttl_student:
                self.counts["ttl.student_forwards"] += 1
            return timed(params, x)
        return wrapper

    def _ttl_session(self, fn):
        timed = self._timed("ttl.session", fn)

        @functools.wraps(fn)
        def wrapper(student, *args, **kwargs):
            self._ttl_student = student
            try:
                return timed(student, *args, **kwargs)
            finally:
                self._ttl_student = None
        return wrapper

    def _backward(self, fn):
        times, counts = self.times, self.counts

        def timed_node(node_fn, key):
            def run(g):
                t0 = time.perf_counter()
                try:
                    return node_fn(g)
                finally:
                    times[key] += time.perf_counter() - t0
            return run

        @functools.wraps(fn)
        def wrapper(loss, graph):
            counts["autodiff.backward_calls"] += 1
            counts["autodiff.tape_nodes"] += len(graph.nodes)
            if self._ttl_student is not None:
                counts["ttl.batches"] += 1
            originals = [node.backward_fn for node in graph.nodes]
            for node in graph.nodes:
                node.backward_fn = timed_node(node.backward_fn, f"autodiff.op.{node.kind}.bwd_s")
            t0 = time.perf_counter()
            try:
                return fn(loss, graph)
            finally:
                times["autodiff.backward_s"] += time.perf_counter() - t0
                for node, original in zip(graph.nodes, originals):
                    node.backward_fn = original
        return wrapper

    def _run_experiment(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg, seed, audit=None):
            if audit is None:
                audit = harness.RunAudit()
            self.audits.append(audit)
            return fn(cfg, seed, audit=audit)
        return wrapper

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        try:
            for (module, name), keys in TIMED.items():
                original = getattr(module, name)
                patch_everywhere(original, self._timed(keys, original), self.patched)
            patch_everywhere(model.encode, self._encode(model.encode), self.patched)
            patch_everywhere(ttl.ttl_session, self._ttl_session(ttl.ttl_session), self.patched)
            patch_everywhere(autodiff.backward, self._backward(autodiff.backward), self.patched)
            patch_everywhere(harness.run_experiment,
                             self._run_experiment(harness.run_experiment), self.patched)
            step = autodiff.Optimizer.__dict__["step"]
            autodiff.Optimizer.step = self._timed("autodiff.opt_step", step)
            self.patched.append((autodiff.Optimizer, "step", step))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not the original object again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self.patched
                if vars(owner).get(attr) is not original]

    # ------------------------------------------------------------ readout

    def metrics(self, bytes_written: int = 0) -> dict[str, float]:
        values = {name: 0.0 for name, _ in METRICS}
        for key, v in list(self.times.items()) + list(self.counts.items()):
            if key in values:
                values[key] = float(v)
        batches = self.counts["ttl.batches"]
        values["ttl.student_forwards_per_batch"] = (
            self.counts["ttl.student_forwards"] / batches if batches else 0.0)
        values["harness.gradient_samples"] = float(
            sum(len(ids) for audit in self.audits for _, _, ids in audit.events))
        values["reporting.bytes_written"] = float(bytes_written)
        return values
