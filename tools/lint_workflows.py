#!/usr/bin/env python3
"""Self-contained GitHub Actions workflow linter (no downloads).

Runs in CI as the workflow-lint job and locally as:

    python3 tools/lint_workflows.py [.github/workflows/*.yml]

It is an actionlint-equivalent sized to this repo: a structural
validator catching the mistakes that actually bite us — a workflow
that no longer parses, a job missing runs-on/steps/timeout-minutes, a
step with both (or neither of) run:/uses:, a typo'd job or step key
(`run-on:`, `use:`), a `needs:` edge to a job that does not exist,
unbalanced ${{ ... }} expressions, a `cmake --build --target`
naming a target that no CMakeLists.txt in the repository defines (a
stale target fails the job at build time, after a long setup), and a
`ctest -R` without `--no-tests=error` (ctest exits 0 when the pattern
matches nothing, so a stale pattern would pass running no test). It
deliberately does not try to typecheck action inputs or shellcheck
run blocks; if the hosted runner image ever ships actionlint, CI can
add it on top without replacing this gate.

Exit codes: 0 clean, 1 lint errors, 2 usage/IO error.
"""

import glob
import os
import re
import sys

try:
    import yaml
except ImportError:  # pragma: no cover - PyYAML ships on CI runners
    print("error: PyYAML unavailable; cannot lint workflows",
          file=sys.stderr)
    sys.exit(2)

# Keys GitHub accepts at each level. A key outside the set is almost
# always a typo that GitHub would silently ignore — the worst failure
# mode, because the workflow "passes" while not doing what it says.
WORKFLOW_KEYS = {
    "name", "run-name", "on", True, "permissions", "env", "defaults",
    "concurrency", "jobs",
}
JOB_KEYS = {
    "name", "needs", "runs-on", "permissions", "environment",
    "concurrency", "outputs", "env", "defaults", "if", "steps",
    "timeout-minutes", "strategy", "continue-on-error", "container",
    "services", "uses", "with", "secrets",
}
STEP_KEYS = {
    "id", "if", "name", "uses", "run", "working-directory", "shell",
    "with", "env", "continue-on-error", "timeout-minutes",
}


# CMake commands that define a build target named by their first
# argument; a function() wrapping one of them (gem_add_test, ...)
# defines one too.
TARGET_COMMANDS = ("add_executable", "add_library", "add_custom_target")
CMAKE_CALL = re.compile(r"^\s*(\w+)\s*\(\s*([\w.+-]+)", re.M)
CMAKE_FUNCTION = re.compile(
    r"^\s*function\s*\(\s*(\w+)\s+(\w+)[^)]*\)(.*?)^\s*endfunction",
    re.M | re.S)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cmake_targets(root):
    """Names of every build target the CMakeLists.txt files under root
    define (build trees and dot-directories skipped)."""
    texts = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith((".", "build"))]
        if "CMakeLists.txt" in filenames:
            with open(os.path.join(dirpath, "CMakeLists.txt"),
                      encoding="utf-8") as f:
                texts.append(re.sub(r"#[^\n]*", "", f.read()))
    definers = set(TARGET_COMMANDS)
    for text in texts:
        for name, param, body in CMAKE_FUNCTION.findall(text):
            compact = re.sub(r"\s+", "", body)
            if any(f"{command}(${{{param}}}" in compact
                   for command in TARGET_COMMANDS):
                definers.add(name)
    return {target for text in texts
            for command, target in CMAKE_CALL.findall(text)
            if command in definers}


def build_targets(command):
    """Targets named by `cmake --build ... --target`/`-t` in a run:
    block (shell variables skipped: they cannot be resolved
    statically)."""
    names = []
    for line in command.replace("\\\n", " ").splitlines():
        if "--build" not in line.split():
            continue
        collecting = False
        for token in line.split():
            if token in ("--target", "-t"):
                collecting = True
            elif token.startswith("-") or token in ("&&", "||", ";", "|"):
                collecting = False
            elif collecting:
                names.append(token)
    return [name for name in names if "$" not in name]


def unguarded_ctests(command):
    """ctest invocations in a run: block that select tests with -R but
    lack --no-tests=error."""
    found = []
    for line in command.replace("\\\n", " ").splitlines():
        invocation = None
        for token in line.split() + [";"]:
            if token in ("&&", "||", ";", "|"):
                if invocation and "--no-tests=error" not in invocation and any(
                        arg.startswith(("-R", "--tests-regex"))
                        for arg in invocation):
                    found.append(" ".join(invocation))
                invocation = None
            elif invocation is not None:
                invocation.append(token)
            elif os.path.basename(token) == "ctest":
                invocation = [token]
    return found


def balanced_expressions(text):
    """True iff every ${{ has a matching }} (GitHub expression syntax)."""
    return text.count("${{") == text.count("}}")


def lint_step(path, job_id, index, step, targets, errors):
    where = f"{path}: jobs.{job_id}.steps[{index}]"
    if not isinstance(step, dict):
        errors.append(f"{where}: step is not a mapping")
        return
    for key in step:
        if key not in STEP_KEYS:
            errors.append(f"{where}: unknown step key '{key}'")
    has_run = "run" in step
    has_uses = "uses" in step
    if has_run == has_uses:
        errors.append(f"{where}: needs exactly one of run:/uses: "
                      f"(has run={has_run}, uses={has_uses})")
    for key in ("run", "uses", "if", "name"):
        value = step.get(key)
        if isinstance(value, str) and not balanced_expressions(value):
            errors.append(f"{where}.{key}: unbalanced ${{{{ }}}} "
                          f"expression")
    env = step.get("env")
    if env is not None and not isinstance(env, dict):
        errors.append(f"{where}: env must be a mapping")
    if isinstance(step.get("run"), str):
        for target in build_targets(step["run"]):
            if target not in targets:
                errors.append(f"{where}: --target '{target}' is not "
                              f"defined by any CMakeLists.txt")
        for invocation in unguarded_ctests(step["run"]):
            errors.append(f"{where}: ctest -R without --no-tests=error "
                          f"passes when the pattern matches no test: "
                          f"'{invocation}'")


def lint_job(path, job_id, job, job_ids, targets, errors):
    where = f"{path}: jobs.{job_id}"
    if not isinstance(job, dict):
        errors.append(f"{where}: job is not a mapping")
        return
    for key in job:
        if key not in JOB_KEYS:
            errors.append(f"{where}: unknown job key '{key}'")
    if "uses" in job:
        return  # reusable-workflow call; steps/runs-on do not apply
    if "runs-on" not in job:
        errors.append(f"{where}: missing runs-on")
    if "timeout-minutes" not in job:
        # House rule: every job pins a timeout so a wedged runner
        # cannot hold the concurrency group for six hours.
        errors.append(f"{where}: missing timeout-minutes")
    steps = job.get("steps")
    if not isinstance(steps, list) or not steps:
        errors.append(f"{where}: missing or empty steps")
        steps = []
    needs = job.get("needs", [])
    if isinstance(needs, str):
        needs = [needs]
    for dependency in needs or []:
        if dependency not in job_ids:
            errors.append(f"{where}: needs unknown job '{dependency}'")
    for index, step in enumerate(steps):
        lint_step(path, job_id, index, step, targets, errors)


def lint_file(path, targets, errors):
    with open(path, encoding="utf-8") as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as e:
            errors.append(f"{path}: YAML parse error: {e}")
            return
    if not isinstance(doc, dict):
        errors.append(f"{path}: workflow is not a mapping")
        return
    for key in doc:
        if key not in WORKFLOW_KEYS:
            errors.append(f"{path}: unknown workflow key '{key}'")
    # YAML 1.1 reads a bare `on:` key as boolean True; accept both.
    if "on" not in doc and True not in doc:
        errors.append(f"{path}: missing 'on:' trigger block")
    jobs = doc.get("jobs")
    if not isinstance(jobs, dict) or not jobs:
        errors.append(f"{path}: missing or empty 'jobs:'")
        return
    for job_id, job in jobs.items():
        lint_job(path, job_id, job, set(jobs), targets, errors)


def main(argv):
    paths = argv or sorted(glob.glob(".github/workflows/*.yml") +
                           glob.glob(".github/workflows/*.yaml"))
    if not paths:
        print("error: no workflow files found", file=sys.stderr)
        return 2
    targets = cmake_targets(REPO_ROOT)
    errors = []
    for path in paths:
        lint_file(path, targets, errors)
        print(f"linted {path}")
    for error in errors:
        print(f"LINT {error}")
    print(f"{'FAIL' if errors else 'OK'}: {len(errors)} error(s) across "
          f"{len(paths)} workflow file(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
