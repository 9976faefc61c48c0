import re

from hypothesis import HealthCheck, settings

settings.register_profile(
    "sweep",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sweep")

_CRITERION = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: dict[str, tuple[str, str, float, dict]] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match and report.when == "call":
        # a budgeted criterion records "budget_s" and "measured_s" (test_acceptance.py)
        timing = dict(report.user_properties)
        _criterion_outcomes[match.group(1)] = (
            report.nodeid, report.outcome, report.duration, timing
        )


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_criterion_outcomes):
        nodeid, outcome, duration, timing = _criterion_outcomes[num]
        name = nodeid.split("::")[-1]
        budget = ""
        if "budget_s" in timing:
            measured = timing.get("measured_s")
            shown = "not reached" if measured is None else f"{measured:.3g} s"
            budget = f", timed span {shown} of {timing['budget_s']:g} s budget"
        terminalreporter.write_line(
            f"criterion {num}: {outcome.upper()} in {duration:.2f} s{budget} ({name})"
        )
