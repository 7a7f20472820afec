"""Shared pytest wiring for the suite.

The acceptance tests record one verdict line per criterion through the
``record_acceptance`` fixture; this hook echoes them after the run so the
per-criterion results are visible regardless of output capturing.  The
lines live on the session's config, so no test module imports this file.
"""

import pytest

_ACCEPTANCE_LINES = pytest.StashKey[list]()


@pytest.fixture
def record_acceptance(request):
    """Callable that records one verdict line for the terminal summary."""
    return request.config.stash.setdefault(_ACCEPTANCE_LINES, []).append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_ACCEPTANCE_LINES, [])
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
