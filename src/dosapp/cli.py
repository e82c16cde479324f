"""Command-line entry point: run experiments, run ablations, aggregate reports.

Argv and config checks use the standard library; the commands import the run stack at first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

from .config import (ConfigError, RunConfig, apply_overrides, build_manifest, check_cross_keys,
                     parse_config_file)


def _load_config(args) -> tuple[RunConfig, dict]:
    if args.config is not None:
        cfg, ablate = parse_config_file(args.config)
    else:
        cfg, ablate = RunConfig(), {}
    flags = {"run.variant": args.variant, "run.seeds": args.seeds}
    overrides = [f"{key}={value}" for key, value in flags.items() if value is not None]
    return check_cross_keys(apply_overrides(cfg, overrides + args.override)), ablate


def _run_and_persist(cfg: RunConfig, seed: int, out_root: Path, name: str | None = None) -> Path:
    from .harness import run_experiment  # looked up per call, so a patched attribute is the one run
    from .reporting import persist_run
    try:
        result = run_experiment(cfg, seed)
    except FloatingPointError as err:  # the run diverged; main reports it in one line
        raise FloatingPointError(f"{name or cfg.variant} seed={seed}: {err}") from None
    run_dir = out_root / (name or cfg.variant) / f"seed{seed}"
    persist_run(run_dir, build_manifest(cfg, seed), result)
    return run_dir


def cmd_run(args) -> int:
    cfg, _ = _load_config(args)
    from .reporting import load_run  # after the config checks, so their exits load no numpy
    out_root = Path(args.out)
    for seed in cfg.seeds:
        run_dir = _run_and_persist(cfg, seed, out_root)
        rec = load_run(run_dir)
        forg = "" if rec.summary["forgetting"] is None else f" forgetting={rec.summary['forgetting']:.4f}"
        print(f"{cfg.variant} seed={seed}: avg_acc={rec.summary['avg_acc']:.4f}{forg} -> {run_dir}")
    return 0


_DEFAULT_ABLATION = ("dosapp", "finetune_no_ttl", "self_label", "teacher_student_only",
                     "plus_sparse", "plus_union_single_momentum")


def cmd_ablate(args) -> int:
    cfg, ablate = _load_config(args)
    from .reporting import build_report, format_trend, load_run, write_momentum_grid_csv, write_report_files
    out_root = Path(args.out)
    variants = ablate.get("variants", _DEFAULT_ABLATION)
    grid = ablate.get("momentum_grid", ())

    run_dirs = []
    for variant in variants:
        vcfg = dataclasses.replace(cfg, variant=variant)
        for seed in cfg.seeds:
            run_dirs.append(_run_and_persist(vcfg, seed, out_root))
            print(f"done: {variant} seed={seed}")

    grid_dirs = []
    for gamma, lam in grid:
        gcfg = dataclasses.replace(cfg, variant="dosapp", gamma=gamma, lam=lam)
        name = f"momentum-g{gamma}-l{lam}"
        for seed in cfg.seeds:
            grid_dirs.append(_run_and_persist(gcfg, seed, out_root, name=name))
            print(f"done: {name} seed={seed}")

    bundle = build_report([str(d) for d in run_dirs + grid_dirs])
    write_report_files(out_root / "report", bundle)
    if grid_dirs:
        write_momentum_grid_csv(out_root / "report" / "momentum_grid.csv",
                                [load_run(d) for d in grid_dirs])
    for v in bundle.trend_verdicts:
        print(format_trend(v))
    print(f"report -> {out_root / 'report'}")
    return 0


def cmd_report(args) -> int:
    from .reporting import build_report, format_trend, write_report_files
    run_dirs = []
    for root in args.run_dirs:
        root = Path(root)
        if (root / "manifest.json").exists():
            run_dirs.append(root)
        else:
            run_dirs.extend(sorted(p.parent for p in root.rglob("manifest.json")))
    bundle = build_report(run_dirs)
    write_report_files(args.out, bundle)
    def _cell(stat):
        return f"{stat[0]:.4f}" if stat[1] is None else f"{stat[0]:.4f}±{stat[1]:.4f}"

    for variant, agg in sorted(bundle.aggregate.items()):
        parts = [f"avg_acc={_cell(agg['avg_acc'])}"]
        if "forgetting" in agg:
            parts.append(f"forgetting={_cell(agg['forgetting'])}")
        print(f"{variant}: " + " ".join(parts))
    for v in bundle.trend_verdicts:
        print(format_trend(v))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dosapp",
                                     description="Continual test-time learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and adapt one variant over one or more seeds")
    p_run.add_argument("--config", help="INI config or a manifest.json from a previous run")
    p_run.add_argument("--variant", help="variant name (overrides config)")
    p_run.add_argument("--seeds", help="seed list, e.g. '0,1,2' (overrides config)")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
    p_run.add_argument("--out", default="runs", help="output root directory")
    p_run.set_defaults(fn=cmd_run)

    p_ab = sub.add_parser("ablate", help="run the variant ladder and momentum grid")
    p_ab.add_argument("--config", help="INI config; [ablate] variants / momentum_grid select the sweep")
    p_ab.add_argument("--seeds", help="seed list shared by every arm")
    p_ab.add_argument("--override", action="append", default=[],
                      metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
    p_ab.add_argument("--out", default="ablation", help="output root directory")
    p_ab.set_defaults(fn=cmd_ablate, variant=None)

    p_rep = sub.add_parser("report", help="aggregate finished run directories")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories, or roots to scan")
    p_rep.add_argument("--out", default="report", help="output directory for report files")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # a warning is one line on stderr, like an error, until main returns
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 1
        except FloatingPointError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
