"""Regenerate perfbench/pins.json: the reference outputs every pass is checked against.

Usage, from the root of a checkout:

    python3 perfbench/pin.py

Runs one traced pass per program-seed unit of every workload and records the
SHA-256 digest of every pinned file, the trend verdicts of the sweep, and the
number of examples that reached a gradient step (from the run's RunAudit).
Only rerun this when a change is meant to alter results; the diff of
pins.json then shows which runs moved.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._import_program()
    from tracer import Tracer
    from workloads import PINS, UNITS, resolve_config, run_pass, unit_key

    pins = {}
    run.WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
    try:
        for workload in run.WORKLOAD_NAMES:
            cfg = resolve_config(workload)
            entries = {}
            for seeds in UNITS[workload]:
                with Tracer() as tracer:
                    result = run_pass(workload, cfg, seeds, work_dir)
                metrics = tracer.metrics(result.bytes_written)
                entry = {"runs": result.runs,
                         "gradient_samples": int(metrics["harness.gradient_samples"])}
                if result.trends is not None:
                    entry["trends"] = result.trends
                entries[unit_key(seeds)] = entry
                if workload == "adapt_default" and seeds == (0,):
                    pins["count_baseline"] = {
                        "workload": workload, "program_seed": 0,
                        **{k: int(metrics[k]) for k in ("model.encode_calls", "ttl.route_calls",
                                                   "autodiff.backward_calls")}}
                print(f"pinned {workload} {unit_key(seeds)}", file=sys.stderr, flush=True)
            pins[workload] = entries
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
