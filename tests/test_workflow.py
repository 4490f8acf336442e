"""The CI workflow runs the tier-1 command and the benchmark smoke check
on the dependency floors that pyproject.toml promises, and the tier-1
command under an ASCII locale too."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workflow():
    workflow_file = ROOT / ".github" / "workflows" / "tests.yml"
    return yaml.safe_load(workflow_file.read_text(encoding="utf-8"))


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md names no tier-1 command"
    return match[1]


def test_every_job_runs_tier1_and_smoke(workflow):
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        commands = [step["run"] for step in job["steps"] if "run" in step]
        assert tier1_command() in commands, name
        assert "python3 perfbench/smoke.py" in commands, name


def test_every_job_has_a_timeout(workflow):
    # a forked child that hangs fails the job in minutes, not GitHub's six hours
    for name, job in workflow["jobs"].items():
        assert 0 < job.get("timeout-minutes", 0) <= 30, name


def test_some_job_runs_tier1_under_an_ascii_locale(workflow):
    # summa reads and writes UTF-8 whatever the locale
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]
             if step.get("run") == tier1_command()]
    assert any(step.get("env", {}).items() >= ascii_locale.items() for step in steps)


def test_matrix_keeps_promised_floors(workflow):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    numpy_floor = re.search(r'"numpy>=([\d.]+)"', pyproject)[1]
    python_floor = re.search(r'requires-python = ">=([\d.]+)"', pyproject)[1]
    for name, job in workflow["jobs"].items():
        include = job["strategy"]["matrix"]["include"]
        assert {"python": python_floor, "numpy": f"numpy=={numpy_floor}.*"} in include, name


def test_every_job_installs_the_test_extra(workflow):
    # a test dependency CI lacks turns its tests into skips there
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[([^\]]*)\]", pyproject, re.M)[1]
    names = [re.match(r'\s*"([A-Za-z0-9_.-]+)', item)[1] for item in extra.split(",")]
    assert "pyyaml" in names
    for name, job in workflow["jobs"].items():
        installs = [step["run"] for step in job["steps"]
                    if "pip install" in step.get("run", "")]
        for package in names:
            assert any(f'"{package}' in line for line in installs), (name, package)
