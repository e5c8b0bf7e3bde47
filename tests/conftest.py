"""Shared pytest hooks: collect acceptance verdicts and print them uncaptured."""

ACCEPTANCE_LINES = []


def record_verdict(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
