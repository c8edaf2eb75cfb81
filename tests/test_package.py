"""The package as others reach it: its exported names, and the calls that the
benchmark under ``perfbench/`` makes into it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import coverext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench/oracles.py and tests/oracles.py share a module name, so the
# benchmark's modules are loaded in their own interpreter.
_ONE_PASS = """
import json, sys
from types import SimpleNamespace
sys.path.insert(0, sys.argv[1])
import run, spans

outcomes = {}
for name in ("paper", "groups", "analytic"):
    cx, wl = run.setup(name, 1)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    tally = outcomes[name] = {"ok": 0, "refused": 0, "raised": 0, "wrong": 0, "problems": []}
    for op in wl.ops:
        op.expected = op.expect()
        _, _, outcome, problem = run.run_op(op, SimpleNamespace(busy=0.0))
        tally[outcome] += 1
        if problem:
            tally["problems"].append(problem)
print(json.dumps(outcomes))
"""


def test_every_exported_name_resolves():
    assert len(set(coverext.__all__)) == len(coverext.__all__)
    missing = [name for name in coverext.__all__ if not hasattr(coverext, name)]
    assert not missing, missing
    namespace: dict = {}
    exec("from coverext import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(coverext.__all__)


def _fresh(script: str, *args: str) -> list:
    """The JSON that ``script`` prints last, run in a fresh interpreter on ``src/``."""
    src = str(Path(coverext.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


_GROUP_RUNS_WITHOUT_NUMPY = """
import json, os, sys
from importlib import resources
loaded = []
import coverext
loaded.append("numpy" in sys.modules)
import coverext.braids
loaded.append("numpy" in sys.modules)
import coverext.cli
loaded.append("numpy" in sys.modules)
data = resources.files("coverext") / "scenarios_data"
for name in sys.argv[1:]:
    assert coverext.cli.main(["run", str(data / f"{name}.json"), "--out", os.devnull]) == 0
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_the_package_and_group_scenario_runs_never_load_numpy():
    names = ["two_sheet_extension", "example3_extension", "braid_4_3_search", "minimal_extension_degree"]
    assert _fresh(_GROUP_RUNS_WITHOUT_NUMPY, *names) == [False] * (3 + len(names))


def test_a_bare_import_resolves_submodules_and_exports():
    script = """
import json, coverext
print(json.dumps([coverext.monodromy.__name__, coverext.weak_extend.__module__]))
"""
    assert _fresh(script) == ["coverext.monodromy", "coverext.extension"]


def test_benchmark_workloads_build_and_pass_their_checks():
    """Each workload builds at seed 1 from this checkout, the tracer wraps
    every entry point it names and lets go of them, and one pass of each
    workload's ops passes the ops' own checks (a documented refusal is
    allowed, as in the benchmark)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_PASS, str(PERFBENCH)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    outcomes = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(outcomes) == ["analytic", "groups", "paper"]
    for name, tally in outcomes.items():
        assert tally["ok"] > 0, (name, tally)
        assert tally["raised"] == tally["wrong"] == 0, (name, tally)
