"""Shared pytest plumbing.

test_acceptance.py appends one verdict line per criterion; printing them in
a terminal-summary section keeps the pass/fail lines visible even though
pytest swallows stdout of passing tests.

Property tests run a fixed example sequence with no per-example time limit,
so the suite is reproducible and does not depend on machine speed.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
