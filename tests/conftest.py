import re

import pytest

# helpers.py holds the independent oracles; it is not a test module, so
# without this its asserts are plain ones, which python -O strips out
pytest.register_assert_rewrite("tests.helpers")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    verdicts: dict[int, str] = {}
    for key, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(key, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m:
                num = int(m.group(1))
                if verdicts.get(num) != "FAIL":
                    verdicts[num] = label
    if verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(verdicts):
            terminalreporter.write_line("criterion %02d: %s" % (num, verdicts[num]))
