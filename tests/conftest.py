"""Shared pytest hooks: collect acceptance verdicts and print them uncaptured; calls in turn."""

ACCEPTANCE_LINES = []
IN_TURN_ROUNDS = 5


def in_turn(*calls) -> list[list]:
    """Each call's results over rounds in which every call runs once, in order (A, B, A, B, ...).

    The machine's speed drifts in phases, so figures timed at different
    moments can compare the wrong way round; calls made in turn see the
    same phases, and a median over the rounds compares them.
    """
    results = [[] for _ in calls]
    for _ in range(IN_TURN_ROUNDS):
        for out, call in zip(results, calls):
            out.append(call())
    return results


def record_verdict(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
