"""Pytest wiring: end-of-run summary for the acceptance criteria, a RunAudit reader, and runs in
worker processes."""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def ids_seen(audit, phase: str | None = None, session: int | None = None) -> list[int]:
    """The instance ids a RunAudit saw reach gradient steps, optionally of one phase and session."""
    return [i for ph, se, ids in audit.events
            if phase in (None, ph) and session in (None, se) for i in ids]


def _warnings_are_errors() -> None:
    warnings.simplefilter("error")


def in_workers(fn, jobs: list[tuple]) -> list:
    """[fn(*job) for job in jobs], on min(os.cpu_count(), len(jobs)) fresh worker processes.

    Results come back in submission order. fn must be importable by name, and
    each job must depend on its arguments alone, as a (cfg, seed) run does.
    A warning is an error in the workers too, as the test session's filter makes it.
    """
    workers = min(os.cpu_count() or 1, len(jobs))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_warnings_are_errors) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def timed_summary(cfg, seed: int) -> tuple[dict, float]:
    """One run's summary and the wall time of that run alone."""
    from dosapp.harness import run_experiment
    t0 = time.perf_counter()
    summary = run_experiment(cfg, seed).summary
    return summary, time.perf_counter() - t0


def timed_summary_that_warns(cfg, seed: int, match: str) -> tuple[dict, float]:
    """timed_summary of a run that must warn with a UserWarning matching `match`; any other warning
    is still an error."""
    import pytest
    with pytest.warns(UserWarning, match=match):
        return timed_summary(cfg, seed)
