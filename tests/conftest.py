"""Per-criterion verdict lines for the acceptance suite.

Tests marked ``@pytest.mark.acceptance(number, label)`` get one summary line
each at the end of the run. A passing test may downgrade itself to
INCONCLUSIVE through ``record_property("acceptance_status", ...)``; an
optional ``acceptance_detail`` property is appended to the line. A last line
gives the line count of the package sources under ``src/``.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_results: dict[int, tuple[str, str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    failed_early = report.when == "setup" and not report.passed
    if report.when != "call" and not failed_early:
        return
    number, label = marker.args
    status = "PASS" if (report.when == "call" and report.passed) else "FAIL"
    detail = ""
    for name, value in item.user_properties:
        if name == "acceptance_status" and status == "PASS":
            status = str(value)
        elif name == "acceptance_detail":
            detail = str(value)
    _results[int(number)] = (str(label), status, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _results:
        terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        label, status, detail = _results[number]
        line = f"ACCEPTANCE {number} ({label}): {status}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
    # information only: the code size to read next to the benchmark's figures
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    terminalreporter.write_line(f"src/ lines: {lines}")
