from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import pytest

from coverext.errors import SchemaError
from coverext.scenarios import (
    Report,
    bundled_scenario_names,
    load_bundled,
    run_bundled,
    run_file,
    run_payload,
)

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "paper_digests.json"

BUNDLED = [
    "braid_4_3_search",
    "cubic_slice_monodromy",
    "example3_extension",
    "galois_slice_monodromy",
    "hartogs_signature_sweep",
    "minimal_extension_degree",
    "stein_weierstrass",
    "two_sheet_extension",
]


def small_extension(claims=None, **overrides):
    payload = {
        "kind": "extension",
        "name": "tiny",
        "rho0": {"degree": 3, "images": {"alpha1": [0, 2, 1], "alpha2": [1, 0, 2]}},
        "inclusion": {
            "images": {"alpha1": "gamma", "alpha2": "gamma^-1"},
            "target": {"generators": ["gamma"], "relators": []},
        },
        "claims": claims or [],
    }
    payload.update(overrides)
    return payload


def claim(path=None, **check):
    c = {"id": "c", "source": "somewhere", "statement": "something", "check": None}
    if path is not None:
        c["check"] = {"path": path, **check}
    return c


def test_bundled_names():
    assert bundled_scenario_names() == BUNDLED
    with pytest.raises(SchemaError, match="no bundled scenario"):
        load_bundled("nope")


def test_schema_rejections():
    with pytest.raises(SchemaError, match="unknown kind"):
        run_payload({"kind": "sorcery"})
    with pytest.raises(SchemaError, match="expected an object"):
        run_payload([1, 2])
    with pytest.raises(SchemaError, match="unknown fields"):
        run_payload(small_extension(bogus=1))
    with pytest.raises(SchemaError, match="exactly one"):
        run_payload(small_extension([claim("b1", equals=1, close_to=1.0)]))
    with pytest.raises(SchemaError, match="exactly one"):
        run_payload(small_extension([claim("b1")]))
    with pytest.raises(SchemaError, match=r"at scenario\.cap: expected a positive integer, got 0"):
        run_payload(small_extension(cap=0))
    bad = small_extension()
    bad["rho0"]["images"]["alpha1"] = [0, 0, 1]
    with pytest.raises(SchemaError, match="alpha1"):
        run_payload(bad)
    bad = small_extension()
    bad["rho0"]["images"]["alpha2"] = [1, 0]
    with pytest.raises(SchemaError, match="alpha2"):
        run_payload(bad)
    bad = small_extension()
    bad["inclusion"]["images"]["alpha1"] = "gamma^"
    with pytest.raises(SchemaError, match="inclusion.images.alpha1"):
        run_payload(bad)
    bad = small_extension()
    del bad["inclusion"]["images"]["alpha2"]
    with pytest.raises(SchemaError, match="one image per"):
        run_payload(bad)
    bad = small_extension()
    del bad["inclusion"]["target"]["generators"]
    with pytest.raises(
        SchemaError, match=r"at scenario\.inclusion\.target: missing required field 'generators'"
    ):
        run_payload(bad)
    bad_rho0 = {"degree": 3, "images": {"s1": [0, 0, 1], "s2": [0, 2, 1]}}
    with pytest.raises(SchemaError, match=r"at scenario\.rho0\.images\.s1"):
        run_payload({"kind": "braid-search", "mode": "minimal-extension", "strands": 4, "rho0": bad_rho0})
    with pytest.raises(SchemaError, match="unknown mode"):
        run_payload({"kind": "braid-search", "mode": "bogus"})
    for cap in (0, -5):
        homs = {"kind": "braid-search", "mode": "homs", "strands": 3, "degree": 2, "cap": cap}
        with pytest.raises(SchemaError, match=rf"at scenario\.cap: expected a positive integer, got {cap}"):
            run_payload(homs)
    good_rho0 = {"degree": 2, "images": {"s1": [1, 0], "s2": [1, 0]}}
    minimal = {"kind": "braid-search", "mode": "minimal-extension", "strands": 4, "rho0": good_rho0}
    with pytest.raises(SchemaError, match=r"at scenario\.cap_degree: expected a positive integer, got 0"):
        run_payload(dict(minimal, cap_degree=0))
    line = {"w_coeffs": [[[0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]}
    with pytest.raises(SchemaError, match=r"at scenario\.refine: expected a positive integer, got 0"):
        run_payload({"kind": "slice-monodromy", "cover": line, "refine": 0})
    with pytest.raises(SchemaError, match="separation points need"):
        run_payload(
            {
                "kind": "slice-monodromy",
                "cover": {"w_coeffs": [[[0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
                "separation_points": [[2.0, 0.0]],
            }
        )
    with pytest.raises(SchemaError, match="1 <= q < n"):
        run_payload(
            {
                "kind": "hartogs-check",
                "r": 0.5,
                "cases": [{"n": 3, "q": 3, "alpha": 1.0, "count": 1, "seed": 0}],
            }
        )


def test_run_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        run_file(str(bad))
    with pytest.raises(FileNotFoundError):
        run_file(str(tmp_path / "absent.json"))


def test_run_file_roundtrip(tmp_path):
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(small_extension()))
    rep = run_file(str(f))
    assert rep.status == "ok" and rep.results["b1"] == 1


def test_claim_verdicts():
    claims = [
        dict(claim("b1", equals=1), id="match-int"),
        dict(claim("b1", equals=2), id="mismatch-int"),
        dict(claim("b1", close_to=1.0000001, abs_tol=1e-3), id="close-in"),
        dict(claim("b1", close_to=1.5, abs_tol=1e-3), id="close-out"),
        dict(claim("strong", equals=0), id="bool-vs-int"),
        dict(claim("b1", equals=True), id="int-vs-bool"),
        dict(claim("fiber_map", close_to=[0, 0, 0], abs_tol=0.0), id="list-close"),
        dict(claim("no.such.path", equals=1), id="dangling"),
        dict(claim(), id="informal"),
    ]
    rep = run_payload(small_extension(claims))
    assert rep.status == "ok"
    verdicts = {c["id"]: c["verdict"] for c in rep.claims}
    assert verdicts == {
        "match-int": "MATCHES",
        "mismatch-int": "CONTRADICTS",
        "close-in": "MATCHES",
        "close-out": "CONTRADICTS",
        "bool-vs-int": "CONTRADICTS",
        "int-vs-bool": "CONTRADICTS",
        "list-close": "MATCHES",
        "dangling": "NOT-CLAIMED",
        "informal": "NOT-CLAIMED",
    }
    by_id = {c["id"]: c for c in rep.claims}
    assert by_id["match-int"]["computed"] == 1
    assert by_id["dangling"]["computed"] is None
    assert by_id["informal"]["expected"] is None


def test_status_surjectivity_failed():
    payload = small_extension(
        claims=[dict(claim("b1", equals=1), id="unreachable")],
        surjectivity_assumed=True,
    )
    payload["rho0"]["images"] = {"alpha1": [1, 0, 2], "alpha2": [0, 2, 1]}
    payload["inclusion"] = {
        "images": {"alpha1": "gamma1", "alpha2": "gamma1"},
        "target": {"generators": ["gamma1", "gamma2"], "relators": []},
    }
    rep = run_payload(payload)
    assert rep.status == "surjectivity-failed"
    assert "error" in rep.results
    assert [c["verdict"] for c in rep.claims] == ["NOT-CLAIMED"]
    assert rep.claims[0]["computed"] is None
    json.loads(rep.to_json())  # still serializable


def test_status_cap_exceeded():
    payload = small_extension(surjectivity_assumed=False, cap=200)
    payload["rho0"]["images"] = {"alpha1": [1, 0, 2], "alpha2": [0, 2, 1]}
    payload["inclusion"] = {
        "images": {"alpha1": "gamma1", "alpha2": "gamma1"},
        "target": {"generators": ["gamma1", "gamma2"], "relators": []},
    }
    rep = run_payload(payload)
    assert rep.status == "cap-exceeded"


def test_report_json_shape_and_determinism():
    a = run_bundled("example3_extension")
    b = run_bundled("example3_extension")
    assert isinstance(a, Report)
    assert a.to_json() == b.to_json()
    assert a.to_json().endswith("\n")
    payload = json.loads(a.to_json())
    assert set(payload) == {"scenario", "kind", "status", "results", "claims"}
    assert "timings" not in payload
    assert a.timings["total_s"] > 0
    # canonical form: key-sorted, two-space indent
    assert a.to_json() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_all_bundled_run_ok_with_expected_verdicts():
    tallies = {}
    for name in BUNDLED:
        rep = run_bundled(name)
        assert rep.status == "ok", name
        for c in rep.claims:
            tallies[c["verdict"]] = tallies.get(c["verdict"], 0) + 1
    # the corpus deliberately includes claims the computation refutes and
    # one informal claim with no machine check
    assert tallies["CONTRADICTS"] == 3
    assert tallies["NOT-CLAIMED"] == 1
    assert tallies["MATCHES"] == 28


def test_payload_not_mutated():
    payload = small_extension([dict(claim("b1", equals=1))])
    snapshot = copy.deepcopy(payload)
    run_payload(payload)
    assert payload == snapshot


def test_bundled_reports_match_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(recorded) == BUNDLED
    for name in BUNDLED:
        rep = run_bundled(name)
        digest = hashlib.sha256(rep.to_json().encode("utf-8")).hexdigest()
        assert (rep.status, digest) == (recorded[name]["status"], recorded[name]["sha256"]), name


def test_report_keeps_the_coset_table_off_the_wire():
    rep = run_payload(small_extension())
    assert rep.table is not None and rep.table.index == rep.results["b1"]
    assert "table" not in json.loads(rep.to_json())
    assert run_bundled("braid_4_3_search").table is None
