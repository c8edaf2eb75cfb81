from __future__ import annotations

import copy
import json
import subprocess
import sys
import time

import pytest

from coverext.cosets import Presentation
from coverext.extension import Inclusion, weak_extend
from coverext.perms import Perm
from coverext.reps import PermRep
from coverext.words import parse_word


def coverext(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "coverext.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TINY = {
    "kind": "extension",
    "name": "tiny",
    "rho0": {"degree": 3, "images": {"alpha1": [0, 2, 1], "alpha2": [1, 0, 2]}},
    "inclusion": {
        "images": {"alpha1": "gamma", "alpha2": "gamma^-1"},
        "target": {"generators": ["gamma"], "relators": []},
    },
    "claims": [
        {
            "id": "one-sheet",
            "source": "doc",
            "statement": "collapses to one sheet",
            "check": {"path": "b1", "equals": 1},
        }
    ],
}


def test_list_scenarios():
    proc = coverext("list-scenarios")
    assert proc.returncode == 0
    names = [line.split(":", 1)[0] for line in proc.stdout.splitlines() if line.strip()]
    assert "example3_extension" in names and len(names) == 8


def test_run_stdout_and_summary(tmp_path):
    path = write_scenario(tmp_path, TINY)
    proc = coverext("run", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "ok"
    assert report["results"]["b1"] == 1
    assert "claim one-sheet: MATCHES" in proc.stderr


def test_run_out_file(tmp_path):
    path = write_scenario(tmp_path, TINY)
    out = tmp_path / "report.json"
    proc = coverext("run", path, "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(out.read_text())["scenario"] == "tiny"


def test_run_debug_tables(tmp_path):
    path = write_scenario(tmp_path, TINY)
    proc = coverext("run", path, "--debug-tables")
    assert proc.returncode == 0
    assert "coset" in proc.stderr  # table header reached stderr
    rho0 = PermRep(3, {"alpha1": Perm.from_images([0, 2, 1]), "alpha2": Perm.from_images([1, 0, 2])})
    inclusion = Inclusion(
        ("alpha1", "alpha2"),
        {"alpha1": parse_word("gamma", ["gamma"]), "alpha2": parse_word("gamma^-1", ["gamma"])},
        Presentation(("gamma",)),
    )
    assert proc.stderr.endswith(weak_extend(rho0, inclusion).table.format_table() + "\n")


def collapsing_inclusion(**overrides):
    """TINY into a free group on two letters, hitting only the first one."""
    payload = copy.deepcopy(TINY)
    payload["rho0"]["images"] = {"alpha1": [1, 0, 2], "alpha2": [0, 2, 1]}
    payload["inclusion"] = {
        "images": {"alpha1": "gamma1", "alpha2": "gamma1"},
        "target": {"generators": ["gamma1", "gamma2"], "relators": []},
    }
    payload.update(overrides)
    return payload


@pytest.mark.parametrize(
    "overrides, status",
    [
        ({"cap": 2, "surjectivity_assumed": False}, "cap-exceeded"),
        ({"surjectivity_assumed": True}, "surjectivity-failed"),
    ],
)
def test_debug_tables_without_a_table(tmp_path, overrides, status):
    path = write_scenario(tmp_path, collapsing_inclusion(**overrides))
    t0 = time.perf_counter()
    proc = coverext("run", path, "--debug-tables")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == status
    assert f"tiny: status={status}" in proc.stderr
    assert "coset" not in proc.stderr
    assert elapsed < 10.0  # no second enumeration at the default cap


def test_extension_into_a_collapsing_target_finishes(tmp_path):
    """The target is trivial, but its coset sweep defines cosets and merges
    them back; an enumerator that loses deductions there never stops (the
    live count stays under the cap), so a timeout turns a hang into a failure."""
    payload = {
        "kind": "extension",
        "name": "collapse",
        "rho0": {"degree": 2, "images": {"a": [1, 0]}},
        "inclusion": {
            "images": {"a": "x"},
            "target": {"generators": ["x", "y"], "relators": ["y^-2 x^-1 y", "y^2 x^-1", "x^4"]},
        },
        "cap": 1000,
    }
    proc = coverext("run", write_scenario(tmp_path, payload), timeout=10)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["b1"] == 1
    assert results["fiber_map"] == [0, 0]


def test_schema_failures_exit_2(tmp_path):
    proc = coverext("run", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    proc = coverext("run", str(bad))
    assert proc.returncode == 2
    assert "schema error" in proc.stderr
    path = write_scenario(tmp_path, {"kind": "no-such-kind"})
    proc = coverext("run", path)
    assert proc.returncode == 2


def test_unreadable_paths_exit_2(tmp_path):
    proc = coverext("run", str(tmp_path))
    assert proc.returncode == 2
    assert "schema error" in proc.stderr and "Traceback" not in proc.stderr
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    proc = coverext("verify-paper", "--filter", "example3", "--out-dir", str(occupied))
    assert proc.returncode == 2
    assert "schema error" in proc.stderr and "Traceback" not in proc.stderr


def test_numeric_failures_exit_3(tmp_path):
    degenerate = {
        "kind": "slice-monodromy",
        "name": "bad",
        "cover": {"w_coeffs": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
    }
    proc = coverext("run", write_scenario(tmp_path, degenerate))
    assert proc.returncode == 3
    assert "vanishes identically" in proc.stderr


def test_bad_basepoint_exits_2(tmp_path):
    on_branch = {
        "kind": "slice-monodromy",
        "name": "bad",
        "cover": {"w_coeffs": [[[0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
        "basepoint": [0.0, 0.0],
    }
    proc = coverext("run", write_scenario(tmp_path, on_branch))
    assert proc.returncode == 2
    assert "branch point" in proc.stderr


def test_verify_paper_writes_reports(tmp_path):
    out = tmp_path / "reports"
    proc = coverext("verify-paper", "--filter", "example3", "--out-dir", str(out))
    assert proc.returncode == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["example3_extension.report.json"]
    report = json.loads((out / files[0]).read_text())
    assert report["status"] == "ok"
    assert "example3_extension: status=ok" in proc.stdout


def test_verify_paper_empty_filter_exits_2(tmp_path):
    proc = coverext("verify-paper", "--filter", "zzz", "--out-dir", str(tmp_path / "r"))
    assert proc.returncode == 2
