from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import pytest

from coverext import hartogs
from coverext.errors import CapExceeded, DegenerateCover, NotSmooth, NumericFailure, SchemaError
from coverext.monodromy import MonodromyResult
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
    with pytest.raises(SchemaError, match=r"at scenario\.claims\[0\]\.check\.abs_tol: expected a non-negative"):
        run_payload(small_extension([claim("b1", close_to=1.0, abs_tol=-1e-9)]))
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
    homs = {"kind": "braid-search", "mode": "homs", "strands": 3, "degree": -3}
    with pytest.raises(SchemaError, match=r"at scenario\.degree: expected a non-negative integer, got -3"):
        run_payload(homs)
    good_rho0 = {"degree": 2, "images": {"s1": [1, 0], "s2": [1, 0]}}
    minimal = {"kind": "braid-search", "mode": "minimal-extension", "strands": 4, "rho0": good_rho0}
    with pytest.raises(SchemaError, match=r"at scenario\.cap_degree: expected a positive integer, got 0"):
        run_payload(dict(minimal, cap_degree=0))
    empty_rho0 = {"degree": 0, "images": {"alpha1": [], "alpha2": []}}
    with pytest.raises(SchemaError, match=r"at scenario\.rho0\.degree: expected a positive integer, got 0"):
        run_payload(small_extension(rho0=empty_rho0))
    empty_rho0 = {"degree": 0, "images": {"s1": [], "s2": []}}
    with pytest.raises(SchemaError, match=r"at scenario\.rho0\.degree: expected a positive integer, got 0"):
        run_payload(dict(minimal, rho0=empty_rho0))
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
    with pytest.raises(
        SchemaError,
        match=r"at scenario\.check_two_sheet_uniqueness_up_to: expected a positive integer, got -5",
    ):
        run_payload(small_extension(check_two_sheet_uniqueness_up_to=-5))
    empty_case = {"n": 3, "q": 1, "alpha": 1.0, "count": 0, "seed": 0}
    with pytest.raises(SchemaError, match=r"at scenario\.cases\[0\]\.count: expected a positive integer, got 0"):
        run_payload({"kind": "hartogs-check", "r": 0.5, "cases": [empty_case]})
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
        dict(claim("fiber_map.2", equals=0), id="index"),
        dict(claim("fiber_map", equals=[False, False, False]), id="bools-vs-ints"),
        dict(claim("rho1.gamma", equals={"images": [0], "cycles": "()"}), id="object"),
        dict(claim("rho1.gamma", equals={"images": [False], "cycles": "()"}), id="object-bool"),
        dict(claim("rho1.gamma", equals={"images": [0]}), id="object-keys"),
    ]
    # only canonical non-negative decimals index a list; "3" is past the end
    odd_indices = ("-1", "+0", " 0", "0 ", "00", "3", "0x0", "\u0660")
    for seg in odd_indices:
        claims.append(dict(claim(f"fiber_map.{seg}", equals=0), id=f"index {seg!r}"))
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
        "index": "MATCHES",
        "bools-vs-ints": "CONTRADICTS",
        "object": "MATCHES",
        "object-bool": "CONTRADICTS",
        "object-keys": "CONTRADICTS",
        **{f"index {seg!r}": "NOT-CLAIMED" for seg in odd_indices},
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


def _set(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


@pytest.mark.parametrize(
    "scenario, path, value, where",
    [
        (
            "cubic_slice_monodromy",
            ("cover", "w_coeffs", 2, 0, 1),
            float("nan"),
            r"cover\.w_coeffs\[2\]\[0\]\[1\]",
        ),
        ("stein_weierstrass", ("separation_points", 1, 1), float("nan"), r"separation_points\[1\]\[1\]"),
        ("hartogs_signature_sweep", ("cases", 0, "alpha"), float("inf"), r"cases\[0\]\.alpha"),
        (
            "example3_extension",
            ("claims", 0, "check", "equals"),
            float("nan"),
            r"claims\[0\]\.check\.equals",
        ),
        (  # an integer JSON literal beyond the float range
            "cubic_slice_monodromy",
            ("claims", 0, "check", "close_to", 0, 0),
            10**400,
            r"claims\[0\]\.check\.close_to\[0\]\[0\]",
        ),
    ],
    ids=["cover-coefficient", "separation-point", "alpha", "claim-value", "claim-huge-integer"],
)
def test_non_finite_numbers_rejected_at_the_wire(scenario, path, value, where):
    payload = _set(load_bundled(scenario), path, value)
    with pytest.raises(SchemaError, match=rf"at scenario\.{where}: expected a finite number"):
        run_payload(payload)


def test_null_counts_as_absent_only_for_optional_fields():
    rep = run_payload(small_extension(check_two_sheet_uniqueness_up_to=None))
    assert rep.status == "ok" and "two_sheet_unique_up_to" not in rep.results
    line = {"w_coeffs": [[[0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]}
    rep = run_payload({"kind": "slice-monodromy", "cover": line, "basepoint": None, "function": None})
    assert rep.status == "ok" and "separates" not in rep.results
    for key in ("cap", "surjectivity_assumed", "path_class_pairs", "name", "description", "claims"):
        with pytest.raises(SchemaError, match=rf"at scenario\.{key}: expected .*, got NoneType"):
            run_payload(_set(small_extension(), (key,), None))


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            small_extension(rho0={"degree": 3, "images": {"alpha1": [0, 1, 2], "alpha2": [0, 2, 1]}}),
            "transitive",
        ),
        (
            {
                "kind": "slice-monodromy",
                "cover": {"w_coeffs": [[[0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]]},
                "basepoint": [0.0, 0.0],
            },
            "branch point",
        ),
        (_set(load_bundled("hartogs_signature_sweep"), ("r",), 1.5), "strictly between 0 and 1"),
    ],
    ids=["non-transitive-rho0", "basepoint-on-branch-point", "r-outside-unit-interval"],
)
def test_rejected_run_input_is_a_schema_error(payload, message):
    with pytest.raises(SchemaError, match=rf"^at scenario: .*{message}"):
        run_payload(payload)


def test_slice_closure_cap_reports_cap_exceeded(monkeypatch):
    # closure_order answers every lasso group, so only a mocked refusal reaches
    # this point: it checks that any kind maps CapExceeded to cap-exceeded
    def capped(self):
        raise CapExceeded("group order exceeds cap 1000000")

    monkeypatch.setattr(MonodromyResult, "closure_order", capped)
    rep = run_bundled("cubic_slice_monodromy")
    assert rep.status == "cap-exceeded"
    assert rep.results == {"error": "group order exceeds cap 1000000"}
    assert {c["verdict"] for c in rep.claims} == {"NOT-CLAIMED"}


CONTRACT_VALUES = [None, True, -1, 0, 1.5, "x", [], {}, float("nan"), float("inf"), 1e308, 5000.0, 2**40]
FREE_TEXT = {"id", "source", "statement", "description", "name"}


def _input_leaves(obj, path=()):
    """Paths to every scalar or empty-container leaf, free text left out."""
    if isinstance(obj, dict) and obj:
        for key, v in obj.items():
            if key not in FREE_TEXT:
                yield from _input_leaves(v, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _input_leaves(v, path + (i,))
    else:
        yield path


def _refuse_constant(name):
    raise ValueError(f"report holds the non-finite constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", BUNDLED)
def test_seeded_error_contract(name):
    """One input leaf replaced by an odd value either still gives a finite
    report or raises one of the typed errors the command line maps."""
    base = load_bundled(name)
    leaves = list(_input_leaves(base))
    rng = random.Random(f"error-contract {name}")
    for _ in range(40):
        path, value = rng.choice(leaves), rng.choice(CONTRACT_VALUES)
        try:
            rep = run_payload(_set(copy.deepcopy(base), path, value))
            json.loads(rep.to_json(), parse_constant=_refuse_constant)
        except (SchemaError, NumericFailure, DegenerateCover, NotSmooth):
            pass
        except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
            pytest.fail(f"{name}: {path} = {value!r} gave {exc!r}")


def test_braid_search_with_no_free_generator_skips_the_factorial():
    t0 = perf_counter()
    report = run_payload({"kind": "braid-search", "mode": "homs", "strands": 1, "degree": 10**6})
    assert report.results == {"exhaustive": True, "search_space": 1, "solution_count": 1, "solutions": [{}]}
    pinned = {"s1": list(range(5000))}
    report = run_payload({"kind": "braid-search", "mode": "homs", "strands": 2, "degree": 5000, "pinned": pinned})
    assert report.results["search_space"] == 1
    assert [sol["s1"]["images"] for sol in report.results["solutions"]] == [pinned["s1"]]
    assert perf_counter() - t0 < 1.0


def _sweep_case(**case):
    return {"kind": "hartogs-check", "r": 0.5, "cases": [{"q": 2, "alpha": 3.5, "seed": 5, **case}]}


def test_hartogs_chunks_give_the_report_of_single_points(monkeypatch):
    n = 5
    chunk = hartogs.LEVI_CHUNK_ENTRIES // ((2 * n) ** 2 * n)
    payload = _sweep_case(n=n, count=2 * chunk + 3)
    chunked = run_payload(payload).to_json()
    monkeypatch.setattr(hartogs, "LEVI_CHUNK_ENTRIES", 1)  # one point per batch
    assert run_payload(payload).to_json() == chunked


def test_hartogs_sweep_makes_one_levi_call_per_chunk(monkeypatch):
    sizes = []
    batch = hartogs._levi_batch

    def counting(points, *args):
        sizes.append(len(points))
        return batch(points, *args)

    monkeypatch.setattr(hartogs, "_levi_batch", counting)
    report = run_bundled("hartogs_signature_sweep")
    # 40 points at each of n = 3, 4, 5: chunks of at most 75, 32 and 16 points
    assert sizes == [40, 32, 8, 16, 16, 8]
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["hartogs_signature_sweep"]
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == recorded["sha256"]


@pytest.mark.parametrize(
    "case, where, message",
    [
        (None, r"cases", "needs at least one case"),
        ({"alpha": -1}, r"cases\[1\]\.alpha", "alpha must be positive and finite"),
        ({"seed": -1}, r"cases\[1\]\.seed", "expected a non-negative integer, got -1"),
    ],
    ids=["no-cases", "negative-alpha", "negative-seed"],
)
def test_hartogs_input_is_checked_at_its_path_before_any_case_runs(monkeypatch, case, where, message):
    def no_levi_forms(*args):
        raise AssertionError("a case ran before the input was checked")

    monkeypatch.setattr(hartogs, "_levi_batch", no_levi_forms)
    payload = _sweep_case(n=3, count=1)
    if case is None:
        payload["cases"] = []
    else:
        payload["cases"].append({**payload["cases"][0], **case})
    with pytest.raises(SchemaError, match=rf"^at scenario\.{where}: {message}$"):
        run_payload(payload)


def test_hartogs_dimension_over_the_levi_cap_is_a_schema_error():
    t0 = perf_counter()
    with pytest.raises(SchemaError, match=r"at scenario\.cases\[0\]: n=1000000 exceeds MAX_DIM=64"):
        run_payload(_sweep_case(n=10**6, count=1))
    assert perf_counter() - t0 < 1.0


def test_an_overflowing_hartogs_case_is_a_numeric_failure():
    payload = {"kind": "hartogs-check", "r": 0.5, "cases": [{"n": 8, "q": 7, "alpha": 5000.0, "count": 3, "seed": 1}]}
    with pytest.raises(NumericFailure, match="overflows a float"):
        run_payload(payload)
