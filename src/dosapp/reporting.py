"""Persisted run artifacts and cross-run aggregation.

Every number a report emits comes from files a run already wrote (manifest,
summary, metrics rows); reporting never re-runs a model. Writers are pure
functions of their inputs, so re-reporting unchanged runs writes identical
bytes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import masking as mk
from . import model as dm
from .config import ConfigError, config_hash, read_manifest_config, read_text, write_manifest
from .harness import RunResult

SUMMARY_FIELDS = ("avg_acc", "forgetting", "fta", "cta", "final_task_acc",
                  "post_sup_avg_acc", "post_sup_forgetting", "post_sup_fta",
                  "post_sup_cta", "post_sup_final_task_acc")


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def write_r_matrix_csv(path, r: np.ndarray) -> None:
    """Accuracy matrix, one row per session; cells above the diagonal stay empty."""
    t = r.shape[0]
    lines = ["session," + ",".join(f"task{j}" for j in range(t))]
    for i in range(t):
        cells = [_fmt(None if np.isnan(r[i, j]) else r[i, j]) for j in range(t)]
        lines.append(f"{i}," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path, summary: dict) -> None:
    header = ["variant", "seed"] + list(SUMMARY_FIELDS)
    values = [str(summary["variant"]), str(summary["seed"])] + [_fmt(summary.get(k)) for k in SUMMARY_FIELDS]
    Path(path).write_text(",".join(header) + "\n" + ",".join(values) + "\n")


def write_metrics_jsonl(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def persist_run(run_dir, manifest: dict, result: RunResult) -> None:
    """Write one finished run's artifacts; an earlier run's go first, files never written here stay.
    The manifest goes first and is written last, so load_run rejects a directory cut off midway."""
    run_dir = Path(run_dir)
    mask_dir = run_dir / "masks"
    (run_dir / "manifest.json").unlink(missing_ok=True)
    (run_dir / "teacher.ckpt").unlink(missing_ok=True)
    for old in mask_dir.glob("*"):
        if re.fullmatch(r"task\d+\.(mask|scores)|ttl_final\.mask", old.name):  # .scores: older versions
            old.unlink()
    if mask_dir.is_dir() and not any(mask_dir.iterdir()):
        mask_dir.rmdir()
    run_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_jsonl(run_dir / "metrics.jsonl", result.metrics_rows)
    write_r_matrix_csv(run_dir / "R_postttl.csv", result.r_post_ttl)
    write_r_matrix_csv(run_dir / "R_postsup.csv", result.r_post_sup)
    write_summary_csv(run_dir / "summary.csv", result.summary)
    dm.save_checkpoint(run_dir / "student.ckpt", result.student, result.table)
    if result.teacher is not None:
        dm.save_checkpoint(run_dir / "teacher.ckpt", result.teacher, result.table)
    if result.masks:
        mask_dir.mkdir(exist_ok=True)
        for t, mask in enumerate(result.masks):  # one mask per session, so t is the task id
            mk.save_mask(mask_dir / f"task{t}.mask", mask)
        if result.final_ttl_mask is not None:
            mk.save_mask(mask_dir / "ttl_final.mask", result.final_ttl_mask)
    write_manifest(run_dir / "manifest.json", manifest)


@dataclass
class RunRecord:
    """One persisted run, reloaded from its artifact files."""

    run_dir: Path
    variant: str
    seed: int
    run_hash: str  # of the config with its seed list cut to this run's seed
    momenta: tuple[float, float, float]  # gamma, lambda, delta
    summary: dict
    curve: list[float]  # mean seen-task accuracy after each session (post_ttl)


@dataclass
class ReportBundle:
    records: list[RunRecord]
    # display row -> {"n_runs": runs averaged, summary field: (mean, std)}
    aggregate: dict[str, dict] = field(default_factory=dict)
    trend_verdicts: list[dict] = field(default_factory=list)


def load_run(run_dir) -> RunRecord:
    run_dir = Path(run_dir)
    cfg = read_manifest_config(run_dir / "manifest.json")
    summary_path = run_dir / "summary.csv"
    try:
        rows = list(csv.DictReader(read_text(summary_path).splitlines()))
    except csv.Error as err:  # a NUL byte, before Python 3.11
        raise ConfigError(f"{summary_path}: {err}") from None
    if len(rows) != 1:
        raise ConfigError(f"{summary_path}: must hold exactly one run")
    raw = rows[0]
    try:
        variant, seed = raw["variant"], int(raw["seed"])
        summary = {k: (float(raw[k]) if raw[k] != "" else None) for k in SUMMARY_FIELDS}
    except (KeyError, TypeError, ValueError) as err:  # no such column, a short row, not a number
        raise ConfigError(f"{summary_path}: a missing or bad value: {err!r}") from None
    curve = []
    metrics_path = run_dir / "metrics.jsonl"
    for n, line in enumerate(read_text(metrics_path).splitlines(), 1):
        try:  # a line cut short or not JSON, a row not an object, an eval row without cells or values
            row = json.loads(line)
            if row.get("type") == "eval" and row.get("checkpoint") == "post_ttl":
                vals = [v for v in row["row"] if v is not None]
                if not vals:
                    raise ValueError("a post_ttl eval row with no value")
                curve.append(float(np.mean(vals)))
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{metrics_path}: line {n}: {err!r}") from None
    return RunRecord(
        run_dir=run_dir, variant=variant, seed=seed,
        run_hash=config_hash(cfg), momenta=(cfg.gamma, cfg.lam, cfg.delta),
        summary=summary, curve=curve,
    )


def _mean_std(values) -> tuple[float, float | None]:
    """Std is omitted (None) for a single value; it would be a misleading 0."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), (float(arr.std()) if arr.size > 1 else None)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _group_by(records: list[RunRecord], key) -> dict:
    """Runs grouped by key(run), groups and runs in first-seen order."""
    out: dict = {}
    for r in records:
        out.setdefault(key(r), []).append(r)
    return out


def _display_group(records: list[RunRecord]) -> dict[str, list[RunRecord]]:
    """Runs by variant, but a variant run at several (gamma, lambda, delta) settings gets one labeled
    row per setting instead of a pooled (and misleading) row. The label holds no comma, so it stays
    one CSV cell."""
    momenta = {v: {r.momenta for r in runs} for v, runs in _group_by(records, lambda r: r.variant).items()}
    return _group_by(records, lambda r: r.variant if len(momenta[r.variant]) == 1
                     else f"{r.variant}[g={r.momenta[0]!r} l={r.momenta[1]!r} d={r.momenta[2]!r}]")


def _single_momentum(momenta: tuple[float, float, float]) -> bool:
    """gamma = lambda = delta: the dual-momentum blend collapsed to one EMA momentum."""
    return momenta[0] == momenta[1] == momenta[2]


def _shared_seed_pairs(a: list[RunRecord], b: list[RunRecord]) -> list[tuple[RunRecord, RunRecord]]:
    """Runs of a and b at the same seed and momenta: a momentum-grid arm reuses
    the method's variant name, and pairs only with runs at its own momenta."""
    by_key_b = {(r.seed, r.momenta): r for r in b}
    return [(r, by_key_b[(r.seed, r.momenta)]) for r in a if (r.seed, r.momenta) in by_key_b]


def evaluate_trends(records: list[RunRecord]) -> list[dict]:
    """Directional checks across variants; only evaluable ones are emitted."""
    groups = _group_by(records, lambda r: r.variant)
    verdicts = []

    if "dosapp" in groups and "finetune_no_ttl" in groups:
        pairs = _shared_seed_pairs(groups["dosapp"], groups["finetune_no_ttl"])
        if pairs and all(r.summary["forgetting"] is not None for pair in pairs for r in pair):  # None: one task
            f_d = _median([a.summary["forgetting"] for a, _ in pairs])
            f_f = _median([b.summary["forgetting"] for _, b in pairs])
            a_d = _median([a.summary["avg_acc"] for a, _ in pairs])
            a_f = _median([b.summary["avg_acc"] for _, b in pairs])
            verdicts.append({
                "trend": "adaptation_reduces_forgetting_and_lifts_accuracy",
                "passed": bool(f_d < f_f and a_d > a_f),
                "detail": f"forgetting {f_d:.4f} vs {f_f:.4f}; avg_acc {a_d:.4f} vs {a_f:.4f}",
            })

    if "dosapp" in groups and "plus_union_single_momentum" in groups:
        pairs = _shared_seed_pairs(groups["dosapp"], groups["plus_union_single_momentum"])
        if pairs:
            wins = sum(a.summary["avg_acc"] > b.summary["avg_acc"] for a, b in pairs)
            need = math.ceil(0.8 * len(pairs))
            verdicts.append({
                "trend": "dual_momentum_beats_single_momentum_union",
                "passed": bool(wins >= need),
                "detail": f"strict wins {wins}/{len(pairs)} (need {need})",
            })

    if "dosapp" in groups and "teacher_student_only" in groups:
        pairs = _shared_seed_pairs(groups["dosapp"], groups["teacher_student_only"])
        if pairs:
            a_d = _median([a.summary["avg_acc"] for a, _ in pairs])
            a_t = _median([b.summary["avg_acc"] for _, b in pairs])
            verdicts.append({
                "trend": "full_method_at_least_matches_teacher_student_baseline",
                "passed": bool(a_d >= a_t),
                "detail": f"median avg_acc {a_d:.4f} vs {a_t:.4f}",
            })

    by_momenta = _group_by(groups.get("dosapp", []), lambda r: r.momenta)
    single = [m for m in by_momenta if _single_momentum(m)]
    dual = [m for m in by_momenta if m not in single]
    if single and dual:
        best_dual = max(dual, key=lambda m: _median([r.summary["avg_acc"] for r in by_momenta[m]]))
        a_single = _median([r.summary["avg_acc"] for r in by_momenta[single[0]]])
        a_dual = _median([r.summary["avg_acc"] for r in by_momenta[best_dual]])
        verdicts.append({
            "trend": "single_momentum_collapse_degrades_accuracy",
            "passed": bool(a_single < a_dual),
            "detail": f"median avg_acc {a_single:.4f} (single) vs {a_dual:.4f} (dual)",
        })
    return verdicts


def format_trend(verdict: dict) -> str:
    """One trends.txt line: ``trend <name>: PASS|FAIL (<detail>)``."""
    return f"trend {verdict['trend']}: {'PASS' if verdict['passed'] else 'FAIL'} ({verdict['detail']})"


def build_report(run_dirs) -> ReportBundle:
    """Aggregates and trends; a run repeated under another name (a grid arm
    at the default momenta, another invocation's seed list) counts once."""
    unique: dict[str, RunRecord] = {}
    for r in map(load_run, run_dirs):
        unique.setdefault(r.run_hash, r)
    records = list(unique.values())
    if not records:
        raise ConfigError("no runs to report on")
    aggregate = {}
    for variant, runs in sorted(_display_group(records).items()):
        aggregate[variant] = {"n_runs": len(runs)}
        aggregate[variant].update({
            k: _mean_std([r.summary[k] for r in runs if r.summary[k] is not None])
            for k in SUMMARY_FIELDS
            if any(r.summary[k] is not None for r in runs)
        })
    return ReportBundle(records=records, aggregate=aggregate,
                        trend_verdicts=evaluate_trends(records))


def write_report_files(out_dir, bundle: ReportBundle) -> None:
    """aggregate.csv, curves.csv (accuracy vs session), forgetting.csv, trends.txt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["variant,n_runs," + ",".join(f"{k}_mean,{k}_std" for k in SUMMARY_FIELDS)]
    for variant, agg in sorted(bundle.aggregate.items()):
        cells = [_fmt(stat) for k in SUMMARY_FIELDS for stat in agg.get(k, (None, None))]
        lines.append(f"{variant},{agg['n_runs']}," + ",".join(cells))
    (out_dir / "aggregate.csv").write_text("\n".join(lines) + "\n")

    lines = ["variant,session,mean_seen_acc_mean,mean_seen_acc_std"]
    for variant, runs in sorted(_display_group(bundle.records).items()):
        depth = min(len(r.curve) for r in runs)
        for s in range(depth):
            m, sd = _mean_std([r.curve[s] for r in runs])
            lines.append(f"{variant},{s},{_fmt(m)},{_fmt(sd)}")
    (out_dir / "curves.csv").write_text("\n".join(lines) + "\n")

    lines = ["variant,forgetting_mean,forgetting_std"]
    for variant, agg in sorted(bundle.aggregate.items()):
        if "forgetting" in agg:
            lines.append(f"{variant},{_fmt(agg['forgetting'][0])},{_fmt(agg['forgetting'][1])}")
    (out_dir / "forgetting.csv").write_text("\n".join(lines) + "\n")

    lines = [format_trend(v) for v in bundle.trend_verdicts]
    (out_dir / "trends.txt").write_text("\n".join(lines) + ("\n" if lines else ""))


def write_momentum_grid_csv(path, records: list[RunRecord]) -> None:
    """Momentum grid summary; the row with every momentum equal is flagged."""
    by_momenta = _group_by(records, lambda r: r.momenta)
    lines = ["gamma,lambda,delta,single_momentum,avg_acc_mean,avg_acc_std,forgetting_mean,forgetting_std"]
    for momenta in sorted(by_momenta):
        runs = by_momenta[momenta]
        g, l, d = momenta
        single = int(_single_momentum(momenta))
        am, asd = _mean_std([r.summary["avg_acc"] for r in runs])
        fvals = [r.summary["forgetting"] for r in runs if r.summary["forgetting"] is not None]
        fm, fsd = _mean_std(fvals) if fvals else (None, None)
        lines.append(f"{_fmt(g)},{_fmt(l)},{_fmt(d)},{single},{_fmt(am)},{_fmt(asd)},{_fmt(fm)},{_fmt(fsd)}")
    Path(path).write_text("\n".join(lines) + "\n")
