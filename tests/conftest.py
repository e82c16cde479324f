"""Pytest wiring: end-of-run summary for the acceptance criteria, and a RunAudit reader."""

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
