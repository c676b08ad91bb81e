#!/usr/bin/env python3
"""Check that the tier-1 suite fails exactly where it is designed to.

    python3 tools/check_suite.py [extra pytest arguments]

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
from the repository root, with `src/` on PYTHONPATH) and compares the set of
failing tests with the two acceptance checks that fail by design: they pin
published holdings trees that no correct solver produces (README, "Expected
suite status").  Exits 0 when the failing set is exactly those two and 1
otherwise.  A new failure, a collection error and a by-design failure that
starts passing all count as a change.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_BY_DESIGN = frozenset({
    "tests.test_acceptance::test_c02_log_tree_optimistic_published_values",
    "tests.test_acceptance::test_c03_power_tree_published_values",
})


def run_suite(extra_args: list[str]) -> tuple[set[str], int]:
    """Failing test ids ("module::name") and the number of tests run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "--junitxml", str(report), *extra_args],
            cwd=ROOT, env=env, check=False,
        )
        if not report.exists():
            raise SystemExit("check_suite: pytest wrote no report")
        cases = ET.parse(report).getroot().iter("testcase")
        failing, total = set(), 0
        for case in cases:
            total += 1
            if case.find("failure") is not None or case.find("error") is not None:
                failing.add("%s::%s" % (case.get("classname"), case.get("name")))
    return failing, total


def main(argv: list[str]) -> int:
    failing, total = run_suite(argv)
    new = sorted(failing - FAILING_BY_DESIGN)
    fixed = sorted(FAILING_BY_DESIGN - failing)
    print("check_suite: %d tests, %d failing" % (total, len(failing)))
    for test in new:
        print("  unexpected failure: %s" % test)
    for test in fixed:
        print("  by-design failure no longer fails: %s" % test)
    if new or fixed:
        return 1
    print("check_suite: only the by-design failures fail")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
