"""Quiet-host timing: each stretch of a pass at its fastest, summed.

Other tenants of the host slow this machine in bursts of a few milliseconds,
and the share of time they take drifts over tens of seconds. So the wall time
of a whole pass mixes the program's cost with the host's load, and even the
fastest of twenty passes moves by a fifth from one run to the next.

``Marks`` records wall and CPU time at every call to two functions the
program calls hundreds of times per run (``autodiff.backward`` and
``model.encode``), and at the start and end of each variant x seed run. A
stretch is the work between two consecutive marks. Passes over a workload
repeat the same work in the same order: every program seed gives the same
shapes and call counts, and runs of one variant do the same work whatever
their seed. So the k-th stretch of a run of a variant is the same work in
every pass. ``quiet_passes`` keeps, for each stretch, the fastest of its
repeats, and sums them over a pass. The sum is the time of the pass with the
host's other load away; the bursts are short enough that each stretch has
some repeat that none of them hit.

A program with fewer marks per run has longer stretches, whose fastest
repeat is less often a clean one, so cutting ``backward`` or ``encode``
calls makes this estimate a little less optimistic. Without any mark inside
a run, a run is one stretch and the estimate is its fastest repeat.

Over minutes the host's speed drifts too: in some spells even the fastest
stretches run half again as long. ``Reference`` measures that drift. It is a
fixed piece of small-array numpy and Python work, with no dosapp code in it,
run in chunks between passes and estimated the same way. Timings are scaled
by ``REFERENCE_S`` over its estimate, to the speed of the machine on which
``REFERENCE_S`` was measured.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from dosapp import autodiff, model
from tracer import patch_everywhere

RUN_START = "run:"  # label prefix of the mark at the start of a run; the run's name follows
RUN_END = "/run"

# Quiet-host seconds of one reference block on a 2-core Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6); timings are scaled to that machine's speed.
REFERENCE_S = 0.065
REFERENCE_CHUNKS = 150


class Marks:
    """Context manager: while active, mark each call to the boundary functions.

    ``mark`` may also be called directly, entered or not; the run marks are
    made that way.
    """

    def __init__(self):
        self.points: list[tuple[str, float, float]] = []  # (label, wall, own CPU)
        self.patched: list[tuple[object, str, object]] = []

    def mark(self, label: str = "") -> None:
        self.points.append((label, time.perf_counter(), time.process_time()))

    def _marking(self, fn):
        mark = self.mark

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Marks":
        try:
            for module, name in ((autodiff, "backward"), (model, "encode")):
                original = getattr(module, name)
                patch_everywhere(original, self._marking(original), self.patched)
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
        self.patched.clear()


def stretches(points):
    """(key, run ordinal or None, wall, CPU) for each stretch between two marks.

    The key names the same work in every pass: (run name, index within the
    run) inside a run, and ("", index among the stretches outside runs)
    elsewhere.
    """
    out = []
    run, ordinal, index, outside = None, -1, 0, 0
    for (label, w0, c0), (_, w1, c1) in zip(points, points[1:]):
        if label.startswith(RUN_START):
            run, ordinal, index = label[len(RUN_START):], ordinal + 1, 0
        elif label == RUN_END:
            run = None
        if run is None:
            out.append((("", outside), None, w1 - w0, c1 - c0))
            outside += 1
        else:
            out.append(((run, index), ordinal, w1 - w0, c1 - c0))
            index += 1
    return out


@dataclass
class Quiet:
    wall_s: float
    cpu_s: float  # own CPU only
    run_walls: list[float]
    stretches: int


def quiet_passes(passes_points) -> list[Quiet]:
    """For each pass, the sums of the fastest repeat of each of its stretches."""
    per_pass = [stretches(points) for points in passes_points]
    fastest_wall: dict = {}
    fastest_cpu: dict = {}
    for pass_stretches in per_pass:
        for key, _, wall, cpu in pass_stretches:
            fastest_wall[key] = min(wall, fastest_wall.get(key, math.inf))
            fastest_cpu[key] = min(cpu, fastest_cpu.get(key, math.inf))
    out = []
    for pass_stretches in per_pass:
        runs: dict[int, float] = {}
        for key, ordinal, _, _ in pass_stretches:
            if ordinal is not None:
                runs[ordinal] = runs.get(ordinal, 0.0) + fastest_wall[key]
        out.append(Quiet(wall_s=sum(fastest_wall[key] for key, *_ in pass_stretches),
                         cpu_s=sum(fastest_cpu[key] for key, *_ in pass_stretches),
                         run_walls=[runs[i] for i in sorted(runs)],
                         stretches=len(pass_stretches)))
    return out


class Reference:
    """Work independent of the program, timed in chunks to gauge the host's speed.

    A chunk is twelve forward and backward steps of a small tanh MLP on a
    [64, 16] batch, plus some dict updates: the kind of work the program is
    made of, at a fraction of a millisecond. A block is ``REFERENCE_CHUNKS``
    chunks; ``seconds`` sums the fastest reading of each chunk over all the
    blocks run.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((16, 32)) * 0.1
        self.w2 = rng.standard_normal((32, 16)) * 0.1
        self.x = rng.standard_normal((64, 16))
        self.fastest = [math.inf] * REFERENCE_CHUNKS
        self.blocks = 0

    def _chunk(self) -> float:
        w1, w2, x, counts = self.w1, self.w2, self.x, {}
        for _ in range(12):
            a = np.tanh(x @ w1)
            g = (a @ w2 - x) / x.shape[0]
            ga = g @ w2.T * (1 - a * a)
            total = (a.T @ g).sum() + (x.T @ ga).sum()
            x = x - 0.01 * (ga @ w1.T)
            for j in range(40):
                counts[j] = counts.get(j, 0.0) + total
        return counts[0]

    def block(self) -> None:
        fastest = self.fastest
        for k in range(REFERENCE_CHUNKS):
            t = time.perf_counter()
            self._chunk()
            fastest[k] = min(fastest[k], time.perf_counter() - t)
        self.blocks += 1

    def seconds(self) -> float:
        return sum(self.fastest)

    def scale(self) -> float:
        """Factor that takes a quiet-host time on this host to the reference machine."""
        return REFERENCE_S / self.seconds()
