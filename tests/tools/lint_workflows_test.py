#!/usr/bin/env python3
"""Test of tools/lint_workflows.py — the CI workflow linter.

Run directly (registered in ctest as workflow_lint_test):

    python3 tests/tools/lint_workflows_test.py [path/to/lint_workflows.py]

The repository's own workflows must lint clean. A workflow that names
a build target no CMakeLists.txt defines must fail the linter with an
error naming that target, and so must a `ctest -R` step without
`--no-tests=error`.
"""

import os
import subprocess
import sys
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir)
LINTER = (sys.argv.pop(1) if len(sys.argv) > 1 else
          os.path.join(ROOT, "tools", "lint_workflows.py"))
CI = os.path.join(ROOT, ".github", "workflows", "ci.yml")
STALE = os.path.join(ROOT, "tests", "data", "workflows", "stale_target.yml")
VACUOUS = os.path.join(ROOT, "tests", "data", "workflows",
                       "vacuous_ctest.yml")


def run_linter(*paths):
    return subprocess.run([sys.executable, LINTER, *paths],
                          capture_output=True, text=True, check=False)


class LintWorkflowsTest(unittest.TestCase):
    def test_repository_workflows_lint_clean(self):
        result = run_linter(CI)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_undefined_build_target_fails(self):
        result = run_linter(STALE)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        errors = [line for line in result.stdout.splitlines()
                  if line.startswith("LINT ")]
        # Exactly the stale target: the fixture is otherwise valid, and
        # the defined target next to it is not flagged.
        self.assertEqual(len(errors), 1, result.stdout)
        self.assertIn("--target 'serve_snapshot_test'", errors[0])

    def test_unguarded_ctest_filter_fails(self):
        result = run_linter(VACUOUS)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        errors = [line for line in result.stdout.splitlines()
                  if line.startswith("LINT ")]
        # Only the unguarded step: the guarded loop next to it passes.
        self.assertEqual(len(errors), 1, result.stdout)
        self.assertIn("jobs.tsan.steps[1]", errors[0])
        self.assertIn("--no-tests=error", errors[0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
