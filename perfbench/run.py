"""Benchmark for dosapp: end-to-end run metrics, or a traced per-module split.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adapt_default --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36

``--trace 0`` repeats untraced passes of the workload, each followed by
reference blocks, and reports the end-to-end metrics as quiet-host
estimates (see ``quiet.py``). ``--trace 1`` repeats cycles of one untraced pass and two
traced passes on the same program seeds, and reports per-module metrics
(median over traced passes) plus the tracing overhead. A pass or cycle is
started only while one as long as the last still ends within ``--seconds``;
the first always runs. Every pass's
outputs are checked against ``perfbench/pins.json``; the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in both modes in child processes and
prints every metric. See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9

# One BLAS thread, unless the caller's environment says otherwise; set before
# numpy is first imported, and inherited by the setup probes. With two threads
# on a 2-core VM with a shared host, supervised_wide's figures followed other
# tenants' load on the second core: over ten runs its quiet-host workload_s
# spread 0.17 and its CPU time 0.24, against at most 0.10 on the others.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

END_TO_END = [("setup_s", "s"), ("workload_s", "s"), ("run_s_p50", "s"), ("cpu_s_per_run", "s"),
              ("samples_per_s", "1/s"), ("peak_rss_mb", "MB")]
# The keys of workloads.WORKLOADS, listed here because the arguments are
# parsed before dosapp (which workloads imports) can be imported.
WORKLOAD_NAMES = ("adapt_default", "supervised_wide", "ablate_sweep")

# A fresh interpreter imports the package and resolves the workload's config;
# it prints the seconds that took. It runs under -X importtime, and the marker
# on stderr separates the imports it times from the interpreter's own.
PROBE_MARK = "-- probe starts --"
PROBE = """
import sys, time
sys.stderr.write({mark!r} + "\\n")
sys.stderr.flush()
t0 = time.perf_counter()
import dosapp, dosapp.cli
from dosapp.config import RunConfig, apply_overrides, parse_config_file
ini, overrides = {ini!r}, {overrides!r}
apply_overrides(parse_config_file(ini)[0] if ini else RunConfig(), overrides)
print(time.perf_counter() - t0)
"""


# The benchmark's own modules (workloads, tracer) import dosapp, so they are
# imported inside functions, after _import_program has put src/ on the path.
def _import_program():
    """Import dosapp from this checkout's src/, or exit without a result."""
    if not (SRC / "dosapp" / "__init__.py").is_file():
        sys.exit(f"benchmark: no dosapp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dosapp
    if Path(dosapp.__file__).resolve().parent != SRC / "dosapp":
        sys.exit(f"benchmark: imported dosapp from {dosapp.__file__}, not from {SRC}")


def environment() -> dict:
    """Versions, BLAS and thread settings; printed with each result."""
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_seconds(workload: str) -> tuple[float, float, list[float]]:
    """Set-up time with the host's other load away, its scale, and each probe's reading.

    Like a pass, a probe is cut into stretches, here one per imported module
    (its self time as ``-X importtime`` gives it) plus the rest of the probe.
    The estimate sums the fastest reading of each over the probes, scaled by
    a reference block run after each probe.
    """
    from quiet import Reference
    from workloads import WORKLOADS
    reference = Reference()
    spec = WORKLOADS[workload]
    code = PROBE.format(mark=PROBE_MARK, ini=str(spec["ini"]) if spec["ini"] else None,
                        overrides=tuple(spec["overrides"]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, rests, modules = [], [], {}
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=env,
                              check=True, capture_output=True, text=True, timeout=120)
        total = float(proc.stdout.split()[-1])
        imported = 0.0
        # lines read "import time: <self us> | <cumulative us> | <module>"
        for line in proc.stderr.split(PROBE_MARK + "\n", 1)[1].splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_s = int(fields[0]) / 1e6
            name = fields[2].strip()
            modules[name] = min(self_s, modules.get(name, self_s))
            imported += self_s
        totals.append(total)
        rests.append(total - imported)
        reference.block()
    scale = reference.scale()
    return (sum(modules.values()) + min(rests)) * scale, scale, totals


class Ledger:
    """Counts checked outputs and records every check that failed."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expected(self, seeds) -> dict:
        from workloads import unit_key
        return self.pins[unit_key(seeds)]

    def outputs(self, seeds) -> int:
        pin = self.expected(seeds)
        return len(pin["runs"]) + (1 if "trends" in pin else 0)

    def check(self, seeds, result) -> None:
        """Compare one pass's run digests (and trend verdicts) with the pins."""
        pin = self.expected(seeds)
        self.attempted += self.outputs(seeds)
        for key in sorted(set(pin["runs"]) | set(result.runs)):
            if result.runs.get(key) != pin["runs"].get(key):
                self.fail(f"seeds {seeds}: outputs of {key} differ from the pinned digests")
        if "trends" in pin and result.trends != pin["trends"]:
            self.fail(f"seeds {seeds}: trend verdicts {result.trends} != pinned {pin['trends']}")

    def crashed(self, seeds) -> None:
        self.attempted += self.outputs(seeds)
        self.failed += self.outputs(seeds)
        self.problems.append(f"seeds {seeds}: pass raised\n{traceback.format_exc()}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def problem(self, message: str) -> None:
        """A failed check that is not one program output (tracer faithfulness)."""
        self.problems.append(message)


@dataclass
class Job:
    workload: str
    cfg: object  # dosapp.config.RunConfig
    order: Iterator[tuple[int, ...]]  # program seeds of each successive pass
    seconds: float
    work_dir: Path
    ledger: Ledger

    def timed_pass(self, seeds, tracer=None, marks=None):
        """One checked pass; None if it raised (counted as failed outputs).

        ``tracer`` (a ``Tracer``) or ``marks`` (a ``Marks``) is active for the pass.
        """
        from workloads import run_pass
        gc.collect()
        try:
            with tracer or marks or contextlib.nullcontext():
                result = run_pass(self.workload, self.cfg, seeds, self.work_dir, marks)
        except Exception:
            self.ledger.crashed(seeds)
            return None
        self.ledger.check(seeds, result)
        return result


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether another step as long as the last one still ends within the budget."""
    return time.perf_counter() - start + last <= seconds


def measure_end_to_end(job: Job):
    from quiet import Marks, Reference, quiet_passes
    passes = []
    reference = Reference()
    start = time.perf_counter()
    step_s = 0.0
    while not passes or _time_left(start, job.seconds, step_s):
        step_start = time.perf_counter()
        seeds = next(job.order)
        result = job.timed_pass(seeds, marks=Marks())
        if result is None:
            break
        passes.append((seeds, result))
        # reference blocks for about a tenth of the pass's time, at least one
        block_start = time.perf_counter()
        reference.block()
        block_s = time.perf_counter() - block_start
        for _ in range(round(0.1 * result.wall_s / block_s) - 1):
            reference.block()
        step_s = time.perf_counter() - step_start
    if not passes:
        return {}, {}
    rss = peak_rss_mb()
    setup, setup_scale, probes = setup_seconds(job.workload)

    # Timings are quiet-host estimates (see quiet.py): each stretch of a pass
    # at its fastest over all passes, summed, and scaled to the reference
    # machine's speed. Passes that repeat the same work get the same figures;
    # the median covers any that do not.
    scale = reference.scale()

    def figures(seeds, q, p):
        wall = q.wall_s * scale
        return {"workload_s": wall, "run_s_p50": statistics.median(q.run_walls) * scale,
                "cpu_s_per_run": (q.cpu_s + p.child_cpu_s) * scale / len(q.run_walls),
                "samples_per_s": job.ledger.expected(seeds)["gradient_samples"] / wall}

    quiet = quiet_passes([p.points for _, p in passes])
    per_pass = [figures(seeds, q, p) for (seeds, p), q in zip(passes, quiet)]
    values = {"setup_s": setup,
              **{k: statistics.median(f[k] for f in per_pass) for k in per_pass[0]},
              "peak_rss_mb": rss}
    walls = [p.wall_s for _, p in passes]
    raw = {"workload_s": walls, "run_s_p50": [w for _, p in passes for w in p.run_walls],
           "cpu_s_per_run": [p.cpu_s / len(p.run_walls) for _, p in passes],
           "samples_per_s": [job.ledger.expected(s)["gradient_samples"] / p.wall_s
                             for s, p in passes]}
    stretches = statistics.median(q.stretches for q in quiet)
    notes = {k: f"quiet-host, {len(passes)} passes of {stretches:g} stretches, scale "
                f"{scale:.4f} from {reference.blocks} reference blocks; as measured: "
                f"median {statistics.median(v):.6g}, range {min(v):.6g}-{max(v):.6g}"
             for k, v in raw.items()}
    notes["setup_s"] = (f"quiet-host, {len(probes)} probes, scale {setup_scale:.4f}; as "
                        f"measured: median {statistics.median(probes):.6g}, "
                        f"range {min(probes):.6g}-{max(probes):.6g}")
    notes["peak_rss_mb"] = "one reading"
    return values, notes


def measure_per_layer(job: Job):
    from tracer import COUNT_METRICS, Tracer
    untraced_walls, traced_walls, traced = [], [], []
    start = time.perf_counter()
    ledger = job.ledger
    cycle_s = 0.0
    while not untraced_walls or _time_left(start, job.seconds, cycle_s):
        cycle_start = time.perf_counter()
        seeds = next(job.order)
        base = job.timed_pass(seeds)
        if base is None:
            break
        untraced_walls.append(base.wall_s)
        cycle = []
        for _ in range(2):
            tracer = Tracer()
            result = job.timed_pass(seeds, tracer)
            if tracer.unrestored():
                ledger.problem(f"attributes left patched after tracing: {tracer.unrestored()}")
            if result is None:
                break
            if result.runs != base.runs:
                ledger.problem(f"seeds {seeds}: traced outputs differ from untraced outputs")
            metrics = tracer.metrics(result.bytes_written)
            if metrics["harness.gradient_samples"] != ledger.expected(seeds)["gradient_samples"]:
                ledger.problem(f"seeds {seeds}: {metrics['harness.gradient_samples']} gradient "
                               f"samples, pinned {ledger.expected(seeds)['gradient_samples']}")
            traced_walls.append(result.wall_s)
            cycle.append(metrics)
        if len(cycle) < 2:
            break
        first, second = ({k: m[k] for k in COUNT_METRICS} for m in cycle)
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            ledger.problem(f"seeds {seeds}: traced counts differ between repeats: {diff}")
        traced.extend(cycle)
        cycle_s = time.perf_counter() - cycle_start
    if not traced:
        return {}, {}
    values = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return values, {k: f"median of {len(traced)} traced passes" for k in values}


def run_one(args, work_dir: Path) -> int:
    from tracer import METRICS
    from workloads import PINS, UNITS, resolve_config
    units = list(UNITS[args.workload])
    random.Random(args.seed).shuffle(units)
    ledger = Ledger(json.loads(PINS.read_text())[args.workload])
    job = Job(args.workload, resolve_config(args.workload), itertools.cycle(units),
              args.seconds, work_dir, ledger)
    if args.trace:
        values, notes = measure_per_layer(job)
        units_by_name = dict(METRICS + [("trace.overhead_s", "s")])
    else:
        values, notes = measure_end_to_end(job)
        units_by_name = dict(END_TO_END)
    for message in ledger.problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for name, value in values.items():
        print(f"# {args.workload} {name} = {value:.6g} {units_by_name[name]} ({notes[name]})")
    print(json.dumps({
        "correct": ledger.attempted > 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units_by_name[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if line.startswith("# ")), flush=True)
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="picks the order of program seeds")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return run_one(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
