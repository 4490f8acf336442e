"""The CI workflow runs the tier-1 command and the benchmark smoke check
on the dependency floors that pyproject.toml promises."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())


def tier1_command():
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert match, "ROADMAP.md names no tier-1 command"
    return match[1]


def test_every_job_runs_tier1_and_smoke(workflow):
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        commands = [step["run"] for step in job["steps"] if "run" in step]
        assert tier1_command() in commands, name
        assert "python3 perfbench/smoke.py" in commands, name


def test_matrix_keeps_promised_floors(workflow):
    pyproject = (ROOT / "pyproject.toml").read_text()
    numpy_floor = re.search(r'"numpy>=([\d.]+)"', pyproject)[1]
    python_floor = re.search(r'requires-python = ">=([\d.]+)"', pyproject)[1]
    for name, job in workflow["jobs"].items():
        include = job["strategy"]["matrix"]["include"]
        assert {"python": python_floor, "numpy": f"numpy=={numpy_floor}.*"} in include, name


def test_every_job_installs_the_test_extra(workflow):
    # a test dependency CI lacks turns its tests into skips there
    extra = re.search(r"^test = \[([^\]]*)\]", (ROOT / "pyproject.toml").read_text(), re.M)[1]
    names = [re.match(r'\s*"([A-Za-z0-9_.-]+)', item)[1] for item in extra.split(",")]
    assert "pyyaml" in names
    for name, job in workflow["jobs"].items():
        installs = [step["run"] for step in job["steps"]
                    if "pip install" in step.get("run", "")]
        for package in names:
            assert any(f'"{package}' in line for line in installs), (name, package)
