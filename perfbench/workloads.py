"""The benchmark's workloads: what one pass runs, and the outputs it checks.

A pass is the unit the benchmark times. For the two in-process workloads a
pass is one ``run_experiment`` call for one program seed; for the sweep it is
one ``dosapp ablate`` over a pair of program seeds. Every pass returns the
SHA-256 digests of the files the ``reporting`` writers produce for each
variant x seed run, so a caller can compare them with ``pins.json``.

Program seeds come from a fixed pool (``UNITS``) so that every pass has
pinned reference digests; the benchmark's own ``--seed`` only picks the
order in which the pool is visited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from dosapp import cli, harness, reporting
from dosapp.config import RunConfig, apply_overrides, parse_config_file
from quiet import RUN_END, RUN_START, Marks

HERE = Path(__file__).resolve().parent
ABLATE_INI = HERE / "ablate.ini"
PINS = HERE / "pins.json"

# Files whose bytes replays must reproduce. aggregate.csv is left out on
# purpose: its n_runs column miscounts momentum-labelled rows (a known
# reporting bug), and fixing that must not read as a benchmark failure.
PINNED_FILES = ("R_postsup.csv", "R_postttl.csv", "summary.csv")

# The wide model: four tokens of 32 features, with a 256-unit MLP.
WIDE_OVERRIDES = ("run.variant=finetune_no_ttl", "model.token_dim=32", "data.input_dim=128",
                  "model.mlp_hidden_dim=256", "model.embed_dim=64")

WORKLOADS = {
    "adapt_default": {"overrides": (), "ini": None},
    "supervised_wide": {"overrides": WIDE_OVERRIDES, "ini": None},
    "ablate_sweep": {"overrides": (), "ini": ABLATE_INI},
}

POOL_SIZE = 12
UNITS = {
    "adapt_default": [(s,) for s in range(POOL_SIZE)],
    "supervised_wide": [(s,) for s in range(POOL_SIZE)],
    "ablate_sweep": [(s, s + 1) for s in range(0, POOL_SIZE, 2)],
}


def unit_key(seeds) -> str:
    return ",".join(str(s) for s in seeds)


def resolve_config(workload: str) -> RunConfig:
    """The RunConfig a workload hands to the program (seeds are set per pass)."""
    spec = WORKLOADS[workload]
    cfg = parse_config_file(spec["ini"])[0] if spec["ini"] else RunConfig()
    return apply_overrides(cfg, spec["overrides"])


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    child_cpu_s: float  # the part of cpu_s spent in reaped child processes
    run_walls: list[float]
    points: list  # Marks.points of the pass
    runs: dict[str, dict[str, str]]  # "<variant dir>/seed<n>" -> file -> digest
    trends: list[list[str]] | None = None
    bytes_written: int = 0


def cpu_seconds() -> tuple[float, float]:
    """User plus system time of this process and every child it reaped; and of the children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = children.ru_utime + children.ru_stime
    return own.ru_utime + own.ru_stime + child, child


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_dir(run_dir: Path) -> dict[str, str]:
    return {name: _digest(run_dir / name) for name in PINNED_FILES}


def _inprocess_pass(cfg: RunConfig, seeds, work_dir: Path, marks: Marks) -> PassResult:
    (seed,) = seeds
    c0, k0 = cpu_seconds()
    t0 = time.perf_counter()
    marks.mark(RUN_START + cfg.variant)
    # looked up on the module at call time, so a tracer's wrapper applies
    result = harness.run_experiment(cfg, seed)
    marks.mark(RUN_END)
    wall = time.perf_counter() - t0
    c1, k1 = cpu_seconds()
    out = work_dir / "digest"
    out.mkdir(parents=True, exist_ok=True)
    reporting.write_r_matrix_csv(out / "R_postsup.csv", result.r_post_sup)
    reporting.write_r_matrix_csv(out / "R_postttl.csv", result.r_post_ttl)
    reporting.write_summary_csv(out / "summary.csv", result.summary)
    runs = {f"{cfg.variant}/seed{seed}": _digest_dir(out)}
    return PassResult(wall, c1 - c0, k1 - k0, [wall], marks.points, runs)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _ablate_pass(seeds, work_dir: Path, marks: Marks) -> PassResult:
    out = work_dir / "ablate"
    if out.exists():
        shutil.rmtree(out)
    argv = ["ablate", "--seeds", unit_key(seeds), "--config", str(ABLATE_INI), "--out", str(out)]
    # One span per variant x seed run, around the call the sweep makes for it.
    # Its start mark is labelled with the run's name, the directory the run
    # persists to, once the call has returned it.
    run_walls: list[float] = []
    original = cli._run_and_persist

    def timed_run(*args, **kwargs):
        start = len(marks.points)
        marks.mark(RUN_START)
        t = time.perf_counter()
        try:
            run_dir = original(*args, **kwargs)
        finally:
            run_walls.append(time.perf_counter() - t)
            marks.mark(RUN_END)
        marks.points[start] = (RUN_START + Path(run_dir).parent.name, *marks.points[start][1:])
        return run_dir

    cli._run_and_persist = timed_run
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            c0, k0 = cpu_seconds()
            t0 = time.perf_counter()
            marks.mark()
            code = cli.main(argv)
            marks.mark()
            wall = time.perf_counter() - t0
            c1, k1 = cpu_seconds()
    finally:
        cli._run_and_persist = original
    if code != 0:
        raise RuntimeError(f"dosapp {' '.join(argv)} exited with {code}")
    runs = {f"{d.parent.name}/{d.name}": _digest_dir(d)
            for d in sorted(out.glob("*/seed*")) if d.parent.name != "report"}
    if len(run_walls) != len(runs):
        raise RuntimeError(f"timed {len(run_walls)} runs but found {len(runs)} run directories")
    trends = []
    for line in (out / "report" / "trends.txt").read_text().splitlines():
        name, verdict = line.removeprefix("trend ").split(" (", 1)[0].split(": ")
        trends.append([name, verdict])
    written = _tree_bytes(out)
    shutil.rmtree(out)
    return PassResult(wall, c1 - c0, k1 - k0, run_walls, marks.points, runs, trends, written)


def run_pass(workload: str, cfg: RunConfig, seeds, work_dir: Path,
             marks: Marks | None = None) -> PassResult:
    """One pass. Run marks go to ``marks``, and the boundary marks too if it is entered."""
    marks = marks if marks is not None else Marks()
    if workload == "ablate_sweep":
        return _ablate_pass(seeds, work_dir, marks)
    return _inprocess_pass(cfg, seeds, work_dir, marks)
