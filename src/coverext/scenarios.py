"""Scenario runner: JSON descriptions in, canonical JSON reports out.

A scenario file declares a ``kind`` (extension, braid-search,
slice-monodromy, hartogs-check), the input data for that kind, and a list of
*claims*: statements recorded in the project documentation, each carried as
neutral data with an optional machine-checkable ``check``.  Running a
scenario computes the results, evaluates every claim against them, and
produces a verdict per claim: MATCHES, CONTRADICTS, or NOT-CLAIMED (no check
attached, or the checked value was not produced).

Reports serialize canonically (sorted keys, two-space indent, trailing
newline) and contain no timing data, so identical runs produce identical
bytes.  Wall-clock timings are returned separately for console display.

Wire conventions: complex numbers are ``[re, im]`` pairs, permutations enter
as image lists and leave as ``{"images": [...], "cycles": "(0 1)"}``, words
use the ``alpha1 alpha2^-1`` syntax.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from importlib import resources
from math import factorial
from typing import Any, Callable, Sequence

import numpy as np

from .braids import hom_search, minimal_extension_degree
from .cosets import CosetTable, Presentation
from .cpoly import BivarPoly
from .errors import CapExceeded, SchemaError, SurjectivityError
from .extension import Inclusion, two_sheet_unique, weak_extend
from .hartogs import levi_signature
from .monodromy import CoverSlice, full_monodromy, separates_fiber, weierstrass_poly_of_function
from .perms import Perm, format_cycles
from .reps import PermRep
from .words import Word, format_word, parse_word

KINDS = ("extension", "braid-search", "slice-monodromy", "hartogs-check")
VERDICT_MATCHES = "MATCHES"
VERDICT_CONTRADICTS = "CONTRADICTS"
VERDICT_NOT_CLAIMED = "NOT-CLAIMED"


# ---------------------------------------------------------------------------
# schema helpers


def _ctx(path: str, msg: str) -> SchemaError:
    return SchemaError(f"at {path}: {msg}")


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise _ctx(path, f"missing required field {key!r}")
    return obj[key]


def _as_dict(v: Any, path: str) -> dict:
    if not isinstance(v, dict):
        raise _ctx(path, f"expected an object, got {type(v).__name__}")
    return v


def _as_list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise _ctx(path, f"expected a list, got {type(v).__name__}")
    return v


def _as_str(v: Any, path: str) -> str:
    if not isinstance(v, str):
        raise _ctx(path, f"expected a string, got {type(v).__name__}")
    return v


def _as_bool(v: Any, path: str) -> bool:
    if not isinstance(v, bool):
        raise _ctx(path, f"expected a boolean, got {type(v).__name__}")
    return v


def _as_int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _ctx(path, f"expected an integer, got {type(v).__name__}")
    return v


def _as_positive_int(v: Any, path: str) -> int:
    n = _as_int(v, path)
    if n < 1:
        raise _ctx(path, f"expected a positive integer, got {n}")
    return n


def _as_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _ctx(path, f"expected a number, got {type(v).__name__}")
    return float(v)


def _as_complex(v: Any, path: str) -> complex:
    lst = _as_list(v, path)
    if len(lst) != 2:
        raise _ctx(path, "complex values are [re, im] pairs")
    return complex(_as_number(lst[0], path + "[0]"), _as_number(lst[1], path + "[1]"))


def _as_perm(v: Any, path: str, degree: int | None = None) -> Perm:
    lst = _as_list(v, path)
    try:
        p = Perm.from_images([_as_int(x, f"{path}[{i}]") for i, x in enumerate(lst)])
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc
    if degree is not None and p.degree != degree:
        raise _ctx(path, f"permutation degree {p.degree} does not match {degree}")
    return p


def _as_word(v: Any, path: str, alphabet: Sequence[str]) -> Word:
    s = _as_str(v, path)
    try:
        return parse_word(s, alphabet)
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise _ctx(path, f"unknown fields {extra}; allowed: {sorted(allowed)}")


def _as_rep(v: Any, path: str) -> PermRep:
    raw = _as_dict(v, path)
    _check_keys(raw, {"degree", "images"}, path)
    degree = _as_int(_need(raw, "degree", path), path + ".degree")
    images = _as_dict(_need(raw, "images", path), path + ".images")
    return PermRep(
        degree,
        {name: _as_perm(p, f"{path}.images.{name}", degree) for name, p in sorted(images.items())},
    )


def _as_presentation(v: Any, path: str) -> Presentation:
    raw = _as_dict(v, path)
    _check_keys(raw, {"generators", "relators"}, path)
    gens = tuple(
        _as_str(g, f"{path}.generators[{i}]")
        for i, g in enumerate(_as_list(_need(raw, "generators", path), path + ".generators"))
    )
    relators = tuple(
        _as_word(r, f"{path}.relators[{i}]", gens)
        for i, r in enumerate(_as_list(raw.get("relators", []), path + ".relators"))
    )
    try:
        return Presentation(gens, relators)
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# wire output helpers


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _perm2j(p: Perm) -> dict:
    return {"images": list(p.images), "cycles": format_cycles(p)}


# ---------------------------------------------------------------------------
# claims


def _lookup(results: Any, path: str) -> Any:
    cur = results
    for seg in path.split("."):
        if isinstance(cur, list):
            cur = cur[int(seg)]
        elif isinstance(cur, dict):
            cur = cur[seg]
        else:
            raise KeyError(path)
    return cur


def _close(a: Any, b: Any, tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= tol
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    return a == b


def _validate_claims(v: Any, path: str) -> list[dict]:
    claims = []
    for i, raw in enumerate(_as_list(v, path)):
        p = f"{path}[{i}]"
        c = _as_dict(raw, p)
        _check_keys(c, {"id", "source", "statement", "check"}, p)
        claim = {
            "id": _as_str(_need(c, "id", p), p + ".id"),
            "source": _as_str(_need(c, "source", p), p + ".source"),
            "statement": _as_str(_need(c, "statement", p), p + ".statement"),
            "check": None,
        }
        if "check" in c and c["check"] is not None:
            ch = _as_dict(c["check"], p + ".check")
            _check_keys(ch, {"path", "equals", "close_to", "abs_tol"}, p + ".check")
            target = _as_str(_need(ch, "path", p + ".check"), p + ".check.path")
            if ("equals" in ch) == ("close_to" in ch):
                raise _ctx(p + ".check", "exactly one of 'equals' / 'close_to' is required")
            check: dict[str, Any] = {"path": target}
            if "equals" in ch:
                check["equals"] = ch["equals"]
            else:
                check["close_to"] = ch["close_to"]
                check["abs_tol"] = _as_number(ch.get("abs_tol", 1e-9), p + ".check.abs_tol")
            claim["check"] = check
        claims.append(claim)
    return claims


def _evaluate_claims(claims: list[dict], results: dict) -> list[dict]:
    out = []
    for claim in claims:
        entry = {
            "id": claim["id"],
            "source": claim["source"],
            "statement": claim["statement"],
            "expected": None,
            "computed": None,
            "verdict": VERDICT_NOT_CLAIMED,
        }
        check = claim["check"]
        if check is not None:
            try:
                computed = _lookup(results, check["path"])
            except (KeyError, IndexError, ValueError):
                computed = None
                entry["verdict"] = VERDICT_NOT_CLAIMED
            else:
                entry["computed"] = computed
                if "equals" in check:
                    entry["expected"] = check["equals"]
                    ok = computed == check["equals"] and (
                        isinstance(computed, bool) == isinstance(check["equals"], bool)
                    )
                else:
                    entry["expected"] = {"close_to": check["close_to"], "abs_tol": check["abs_tol"]}
                    ok = _close(computed, check["close_to"], check["abs_tol"])
                entry["verdict"] = VERDICT_MATCHES if ok else VERDICT_CONTRADICTS
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# kind runners

# (status, results, table): only an extension run that computed a coset table
# returns one, and it never enters the canonical report.
_Outcome = tuple[str, dict, CosetTable | None]


def _run_extension(payload: dict) -> _Outcome:
    path = "scenario"
    allowed = {
        "kind", "name", "description", "claims", "rho0", "inclusion",
        "surjectivity_assumed", "cap", "path_class_pairs",
        "check_two_sheet_uniqueness_up_to",
    }
    _check_keys(payload, allowed, path)
    rho0 = _as_rep(_need(payload, "rho0", path), path + ".rho0")

    inc_raw = _as_dict(_need(payload, "inclusion", path), path + ".inclusion")
    _check_keys(inc_raw, {"images", "target"}, path + ".inclusion")
    target = _as_presentation(_need(inc_raw, "target", path + ".inclusion"), path + ".inclusion.target")
    gens = target.generators
    inc_images_raw = _as_dict(_need(inc_raw, "images", path + ".inclusion"), path + ".inclusion.images")
    source_names = tuple(sorted(rho0.images))
    if set(inc_images_raw) != set(source_names):
        raise _ctx(path + ".inclusion.images", "must give one image per rho0 generator")
    try:
        inclusion = Inclusion(
            source_names,
            {n: _as_word(inc_images_raw[n], f"{path}.inclusion.images.{n}", gens) for n in source_names},
            target,
        )
    except ValueError as exc:
        raise _ctx(path + ".inclusion", str(exc)) from exc

    assumed = _as_bool(payload.get("surjectivity_assumed", True), path + ".surjectivity_assumed")
    cap = _as_positive_int(payload.get("cap", 1_000_000), path + ".cap")

    pair_specs = []
    for i, pair in enumerate(_as_list(payload.get("path_class_pairs", []), path + ".path_class_pairs")):
        lst = _as_list(pair, f"{path}.path_class_pairs[{i}]")
        if len(lst) != 2:
            raise _ctx(f"{path}.path_class_pairs[{i}]", "expected a pair of words")
        pair_specs.append(
            (
                _as_word(lst[0], f"{path}.path_class_pairs[{i}][0]", gens),
                _as_word(lst[1], f"{path}.path_class_pairs[{i}][1]", gens),
            )
        )
    uniq_up_to = payload.get("check_two_sheet_uniqueness_up_to")
    if uniq_up_to is not None:
        uniq_up_to = _as_int(uniq_up_to, path + ".check_two_sheet_uniqueness_up_to")

    try:
        res = weak_extend(rho0, inclusion, surjectivity_assumed=assumed, cap=cap)
    except CapExceeded as exc:
        return "cap-exceeded", {"error": str(exc)}, None
    except SurjectivityError as exc:
        return "surjectivity-failed", {"error": str(exc)}, None

    results: dict[str, Any] = {
        "b0": res.b0,
        "b1": res.b1,
        "strong": res.strong,
        "fiber_map": list(res.fiber_map),
        "rho1": {name: _perm2j(res.rho1.images[name]) for name in sorted(res.rho1.images)},
        "abelianization_surjective": res.abelianization_surjective,
        "stabilizer_generators": [format_word(w) for w in res.stabilizer.generators],
        "transversal": [format_word(w) for w in res.stabilizer.transversal],
    }
    if pair_specs:
        results["path_class_pairs"] = [
            {
                "first": format_word(w1),
                "second": format_word(w2),
                "sheet_first": res.sheet_of_path(w1),
                "sheet_second": res.sheet_of_path(w2),
                "equivalent": res.path_classes_equivalent(w1, w2),
            }
            for w1, w2 in pair_specs
        ]
    if uniq_up_to is not None:
        results["two_sheet_unique_up_to"] = {
            "k_max": uniq_up_to,
            "all_unique": all(two_sheet_unique(k) for k in range(1, uniq_up_to + 1)),
        }
    return "ok", results, res.table


def _run_braid_search(payload: dict) -> _Outcome:
    path = "scenario"
    mode = _as_str(_need(payload, "mode", path), path + ".mode")
    if mode == "homs":
        allowed = {"kind", "name", "description", "claims", "mode", "strands", "degree", "pinned", "cap"}
        _check_keys(payload, allowed, path)
        strands = _as_int(_need(payload, "strands", path), path + ".strands")
        degree = _as_int(_need(payload, "degree", path), path + ".degree")
        pinned_raw = _as_dict(payload.get("pinned", {}), path + ".pinned")
        pinned = {
            name: _as_perm(v, f"{path}.pinned.{name}", degree) for name, v in sorted(pinned_raw.items())
        }
        cap = _as_positive_int(payload.get("cap", 10_000_000), path + ".cap")
        try:
            sols = hom_search(strands, degree, pinned, cap=cap)
        except CapExceeded as exc:
            return "cap-exceeded", {"error": str(exc)}, None
        except ValueError as exc:
            raise _ctx(path, str(exc)) from exc
        return "ok", {
            "exhaustive": True,
            "search_space": factorial(degree) ** (max(strands - 1, 0) - len(pinned)),
            "solution_count": len(sols),
            "solutions": [
                {name: _perm2j(sol[name]) for name in sorted(sol)} for sol in sols
            ],
        }, None
    if mode == "minimal-extension":
        allowed = {"kind", "name", "description", "claims", "mode", "strands", "rho0", "cap_degree"}
        _check_keys(payload, allowed, path)
        strands = _as_int(_need(payload, "strands", path), path + ".strands")
        rho0 = _as_rep(_need(payload, "rho0", path), path + ".rho0")
        cap_degree = _as_positive_int(payload.get("cap_degree", 8), path + ".cap_degree")
        try:
            res = minimal_extension_degree(rho0, strands, cap_degree=cap_degree)
        except CapExceeded as exc:
            return "cap-exceeded", {"error": str(exc)}, None
        except ValueError as exc:
            raise _ctx(path, str(exc)) from exc
        return "ok", {
            "minimal_degree": res.degree,
            "witness": {name: _perm2j(res.images[name]) for name in sorted(res.images)},
        }, None
    raise _ctx(path + ".mode", f"unknown mode {mode!r}; expected 'homs' or 'minimal-extension'")


def _as_bivar(v: Any, path: str) -> BivarPoly:
    rows_raw = _as_dict(v, path)
    _check_keys(rows_raw, {"w_coeffs"}, path)
    rows = []
    for i, row in enumerate(_as_list(_need(rows_raw, "w_coeffs", path), path + ".w_coeffs")):
        rows.append(
            [
                _as_complex(c, f"{path}.w_coeffs[{i}][{j}]")
                for j, c in enumerate(_as_list(row, f"{path}.w_coeffs[{i}]"))
            ]
        )
    if not rows:
        raise _ctx(path + ".w_coeffs", "needs at least one row")
    return BivarPoly.from_lists(rows)


def _run_slice_monodromy(payload: dict) -> _Outcome:
    path = "scenario"
    allowed = {
        "kind", "name", "description", "claims", "cover", "basepoint",
        "refine", "function", "separation_points",
    }
    _check_keys(payload, allowed, path)
    cover = CoverSlice(_as_bivar(_need(payload, "cover", path), path + ".cover"))
    basepoint = None
    if payload.get("basepoint") is not None:
        basepoint = _as_complex(payload["basepoint"], path + ".basepoint")
    refine = _as_positive_int(payload.get("refine", 1), path + ".refine")

    mono = full_monodromy(cover, basepoint=basepoint, refine=refine)
    results: dict[str, Any] = {
        "degree": cover.degree,
        "basepoint": _c2j(mono.basepoint),
        "branch_points": [_c2j(c) for c in mono.branch],
        "fiber": [_c2j(w) for w in mono.fiber],
        "perms": [_perm2j(p) for p in mono.perms],
        "cycle_types": [list(p.cycle_type()) for p in mono.perms],
        "product": _perm2j(mono.product_perm),
        "product_cycle_type": list(mono.product_perm.cycle_type()),
        "boundary": _perm2j(mono.boundary_perm),
        "product_matches_boundary": mono.product_matches_boundary,
        "distinct_perm_count": len({p.images for p in mono.perms}),
        "closure_order": mono.closure_order(),
    }
    if payload.get("function") is not None:
        func = _as_bivar(payload["function"], path + ".function")
        wp = weierstrass_poly_of_function(cover, func)
        results["weierstrass"] = {
            "w_coeffs": [[_c2j(c) for c in row.coeffs] for row in wp.w_coeffs]
        }
        sep_points = [
            _as_complex(z, f"{path}.separation_points[{i}]")
            for i, z in enumerate(_as_list(payload.get("separation_points", []), path + ".separation_points"))
        ]
        results["separates"] = [
            {"z": _c2j(z), "distinct": separates_fiber(cover, func, z)} for z in sep_points
        ]
    elif payload.get("separation_points"):
        raise _ctx(path + ".separation_points", "separation points need a 'function'")
    return "ok", results, None


def _run_hartogs_check(payload: dict) -> _Outcome:
    path = "scenario"
    allowed = {"kind", "name", "description", "claims", "r", "cases"}
    _check_keys(payload, allowed, path)
    r = _as_number(_need(payload, "r", path), path + ".r")
    cases_out = []
    worst_dev = 0.0
    all_expected = True
    for i, raw in enumerate(_as_list(_need(payload, "cases", path), path + ".cases")):
        p = f"{path}.cases[{i}]"
        c = _as_dict(raw, p)
        _check_keys(c, {"n", "q", "alpha", "count", "seed"}, p)
        n = _as_int(_need(c, "n", p), p + ".n")
        q = _as_int(_need(c, "q", p), p + ".q")
        alpha = _as_number(_need(c, "alpha", p), p + ".alpha")
        count = _as_int(_need(c, "count", p), p + ".count")
        seed = _as_int(_need(c, "seed", p), p + ".seed")
        if not 1 <= q < n:
            raise _ctx(p, f"need 1 <= q < n, got q={q}, n={n}")
        rng = np.random.default_rng(seed)
        sig_counts: dict[str, int] = {}
        case_dev = 0.0
        for _ in range(count):
            radii = rng.uniform(0.25, 0.7, size=n)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
            w = radii * np.exp(1j * angles)
            data = levi_signature(w, q, alpha, r)
            key = ",".join(str(x) for x in data.signature)
            sig_counts[key] = sig_counts.get(key, 0) + 1
            for e in data.eigenvalues:
                if e < 0:
                    case_dev = max(case_dev, abs(e + 2.0))
        expected = f"{q},{n - q},0"
        case_ok = set(sig_counts) == {expected}
        all_expected = all_expected and case_ok
        worst_dev = max(worst_dev, case_dev)
        cases_out.append(
            {
                "n": n,
                "q": q,
                "alpha": alpha,
                "count": count,
                "seed": seed,
                "expected_signature": expected,
                "signature_counts": dict(sorted(sig_counts.items())),
                "max_negative_deviation_from_minus_2": case_dev,
                "signatures_as_expected": case_ok,
            }
        )
    return "ok", {
        "cases": cases_out,
        "all_signatures_expected": all_expected,
        "max_negative_deviation_from_minus_2": worst_dev,
    }, None


_RUNNERS: dict[str, Callable[[dict], _Outcome]] = {
    "extension": _run_extension,
    "braid-search": _run_braid_search,
    "slice-monodromy": _run_slice_monodromy,
    "hartogs-check": _run_hartogs_check,
}


# ---------------------------------------------------------------------------
# top level


@dataclass(frozen=True)
class Report:
    """Computed results plus claim verdicts for one scenario."""

    scenario: str
    kind: str
    status: str
    results: dict
    claims: list[dict]
    timings: dict = field(default_factory=dict, compare=False)
    table: CosetTable | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        """Canonical bytes: timings and the coset table are deliberately left out."""
        payload = {
            "scenario": self.scenario,
            "kind": self.kind,
            "status": self.status,
            "results": self.results,
            "claims": self.claims,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_payload(payload: Any) -> Report:
    """Validate and run one scenario description."""
    top = _as_dict(payload, "scenario")
    kind = _as_str(_need(top, "kind", "scenario"), "scenario.kind")
    if kind not in KINDS:
        raise _ctx("scenario.kind", f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    name = _as_str(top.get("name", "unnamed"), "scenario.name")
    if "description" in top:
        _as_str(top["description"], "scenario.description")
    claims = _validate_claims(top.get("claims", []), "scenario.claims")
    t0 = time.perf_counter()
    status, results, table = _RUNNERS[kind](top)
    elapsed = time.perf_counter() - t0
    return Report(
        scenario=name,
        kind=kind,
        status=status,
        results=results,
        # Only an ok run has results to check; every other lookup misses.
        claims=_evaluate_claims(claims, results if status == "ok" else {}),
        timings={"total_s": elapsed},
        table=table,
    )


def run_file(path: str) -> Report:
    """Load a scenario JSON file and run it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return run_payload(payload)


def bundled_scenario_names() -> list[str]:
    """Names of the scenarios shipped with the package, sorted."""
    pkg = resources.files("coverext") / "scenarios_data"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    pkg = resources.files("coverext") / "scenarios_data"
    f = pkg / f"{name}.json"
    if not f.is_file():
        raise SchemaError(f"no bundled scenario named {name!r}")
    return json.loads(f.read_text(encoding="utf-8"))


def run_bundled(name: str) -> Report:
    return run_payload(load_bundled(name))
