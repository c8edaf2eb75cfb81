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
use the ``alpha1 alpha2^-1`` syntax, and every number must be finite.

The runner holds no numerics of its own: ``cpoly``, ``monodromy`` and
``hartogs`` (and with them numpy) are imported inside the parsers and runners
that need them, so extension and braid-search runs never load numpy.  The
Hartogs sweep itself, its draws, chunks and tallies, is
:func:`coverext.hartogs.signature_sweep`; this module parses and formats.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .braids import SEARCH_CAP, _search_space, hom_search, minimal_extension_degree
from .cosets import CosetTable, Presentation
from .errors import CapExceeded, SchemaError, SurjectivityError
from .extension import Inclusion, two_sheet_unique, weak_extend
from .perms import Perm, format_cycles
from .reps import PermRep
from .words import Word, format_word, parse_word

if TYPE_CHECKING:
    from .cpoly import BivarPoly

VERDICT_MATCHES = "MATCHES"
VERDICT_CONTRADICTS = "CONTRADICTS"
VERDICT_NOT_CLAIMED = "NOT-CLAIMED"

# Read by run_payload itself; a runner sees only the remaining body.
_ENVELOPE = ("kind", "name", "description", "claims")


# ---------------------------------------------------------------------------
# schema helpers


def _ctx(path: str, msg: str) -> SchemaError:
    return SchemaError(f"at {path}: {msg}")


# Marks "no value": a required field (no default) or a claim path that misses.
_MISSING = object()


def _field(obj: dict, key: str, path: str, conv: Callable[[Any, str], Any], default: Any = _MISSING) -> Any:
    """``conv(obj[key], "path.key")``, or ``default`` when the key is absent.

    Without a default the field is required.  ``null`` counts as absent only
    where the default is ``None``; everywhere else ``conv`` rejects it.
    """
    if key in obj and not (obj[key] is None and default is None):
        return conv(obj[key], f"{path}.{key}")
    if default is _MISSING:
        raise _ctx(path, f"missing required field {key!r}")
    return default


def _is(types: type | tuple[type, ...], noun: str) -> Callable[[Any, str], Any]:
    """A converter that accepts only instances of ``types``; a bool is never a number."""

    def conv(v: Any, path: str) -> Any:
        if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
            raise _ctx(path, f"expected {noun}, got {type(v).__name__}")
        return v

    return conv


_as_dict = _is(dict, "an object")
_as_list = _is(list, "a list")
_as_str = _is(str, "a string")
_as_bool = _is(bool, "a boolean")
_as_int = _is(int, "an integer")
_as_real = _is((int, float), "a number")


def _items(v: Any, path: str) -> list[tuple[Any, str]]:
    """The elements of a list, each with its own path ``path[i]``."""
    return [(x, f"{path}[{i}]") for i, x in enumerate(_as_list(v, path))]


def _as_positive_int(v: Any, path: str) -> int:
    n = _as_int(v, path)
    if n < 1:
        raise _ctx(path, f"expected a positive integer, got {n}")
    return n


def _as_nonnegative_int(v: Any, path: str) -> int:
    n = _as_int(v, path)
    if n < 0:
        raise _ctx(path, f"expected a non-negative integer, got {n}")
    return n


def _as_number(v: Any, path: str) -> float:
    # fails for NaN, the infinities and integers beyond the float range
    if not abs(_as_real(v, path)) <= sys.float_info.max:
        raise _ctx(path, "expected a finite number")
    return float(v)


def _as_finite(v: Any, path: str) -> Any:
    """Any JSON value whose numbers, however deeply nested, are all finite."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        _as_number(v, path)
    elif isinstance(v, list):
        for x, p in _items(v, path):
            _as_finite(x, p)
    elif isinstance(v, dict):
        for k, x in v.items():
            _as_finite(x, f"{path}.{k}")
    return v


def _as_complex(v: Any, path: str) -> complex:
    lst = _as_list(v, path)
    if len(lst) != 2:
        raise _ctx(path, "complex values are [re, im] pairs")
    return complex(*(_as_number(x, p) for x, p in _items(lst, path)))


def _as_perm(v: Any, path: str, degree: int) -> Perm:
    try:
        p = Perm.from_images([_as_int(x, q) for x, q in _items(v, path)])
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc
    if p.degree != degree:
        raise _ctx(path, f"permutation degree {p.degree} does not match {degree}")
    return p


def _as_word(v: Any, path: str, alphabet: Sequence[str]) -> Word:
    s = _as_str(v, path)
    try:
        return parse_word(s, alphabet)
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc


def _checked(check: Callable[..., None], path: str, *args: Any) -> None:
    """Run a library's own range check, its ValueError a schema error at ``path``."""
    try:
        check(*args)
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise _ctx(path, f"unknown fields {extra}; allowed: {sorted(allowed)}")


def _as_perms(v: Any, path: str, degree: int) -> dict[str, Perm]:
    """An object of named permutations, all of the given degree."""
    return {name: _as_perm(p, f"{path}.{name}", degree) for name, p in sorted(_as_dict(v, path).items())}


def _as_rep(v: Any, path: str) -> PermRep:
    raw = _as_dict(v, path)
    _check_keys(raw, {"degree", "images"}, path)
    degree = _field(raw, "degree", path, _as_positive_int)
    return PermRep(degree, _field(raw, "images", path, lambda x, p: _as_perms(x, p, degree)))


def _as_presentation(v: Any, path: str) -> Presentation:
    raw = _as_dict(v, path)
    _check_keys(raw, {"generators", "relators"}, path)
    gens = tuple(_as_str(g, p) for g, p in _field(raw, "generators", path, _items))
    relators = tuple(_as_word(r, p, gens) for r, p in _field(raw, "relators", path, _items, []))
    try:
        return Presentation(gens, relators)
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc


def _as_inclusion(v: Any, path: str, rho0: PermRep) -> Inclusion:
    raw = _as_dict(v, path)
    _check_keys(raw, {"images", "target"}, path)
    target = _field(raw, "target", path, _as_presentation)
    images = _field(raw, "images", path, _as_dict)
    if set(images) != set(rho0.images):
        raise _ctx(path + ".images", "must give one image per rho0 generator")
    words = {n: _as_word(w, f"{path}.images.{n}", target.generators) for n, w in sorted(images.items())}
    return Inclusion(tuple(words), words, target)


def _as_bivar(v: Any, path: str) -> BivarPoly:
    from .cpoly import BivarPoly

    raw = _as_dict(v, path)
    _check_keys(raw, {"w_coeffs"}, path)
    rows = _field(raw, "w_coeffs", path, _items)
    if not rows:
        raise _ctx(path + ".w_coeffs", "needs at least one row")
    return BivarPoly.from_lists([[_as_complex(c, q) for c, q in _items(row, p)] for row, p in rows])


# ---------------------------------------------------------------------------
# wire output helpers


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _perm2j(p: Perm) -> dict:
    return {"images": list(p.images), "cycles": format_cycles(p)}


def _images2j(images: dict[str, Perm]) -> dict:
    return {name: _perm2j(p) for name, p in sorted(images.items())}


# ---------------------------------------------------------------------------
# claims

_INDEX = re.compile(r"0|[1-9][0-9]*")


def _lookup(results: Any, path: str) -> Any:
    """The value at a dotted claim path, or ``_MISSING``.  A list is indexed
    only by a canonical non-negative decimal segment."""
    cur = results
    for seg in path.split("."):
        if isinstance(cur, list) and _INDEX.fullmatch(seg) and int(seg) < len(cur):
            cur = cur[int(seg)]
        elif isinstance(cur, dict) and seg in cur:
            cur = cur[seg]
        else:
            return _MISSING
    return cur


def _agrees(a: Any, b: Any, tol: float) -> bool:
    """Claim comparer: booleans match only booleans, numbers within ``tol``
    (integers exactly), lists and objects entry by entry."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tol
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_agrees(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_agrees(a[k], b[k], tol) for k in a)
    return a == b


def _as_check(v: Any, path: str) -> dict:
    """``equals`` is a check at tolerance 0; ``expected`` is the report's copy."""
    ch = _as_dict(v, path)
    _check_keys(ch, {"path", "equals", "close_to", "abs_tol"}, path)
    target = _field(ch, "path", path, _as_str)
    if ("equals" in ch) == ("close_to" in ch):
        raise _ctx(path, "exactly one of 'equals' / 'close_to' is required")
    if "equals" in ch:
        value = _field(ch, "equals", path, _as_finite)
        return {"path": target, "value": value, "tol": 0, "expected": value}
    value = _field(ch, "close_to", path, _as_finite)
    tol = _field(ch, "abs_tol", path, _as_number, 1e-9)
    if tol < 0:
        raise _ctx(path + ".abs_tol", f"expected a non-negative tolerance, got {tol}")
    return {"path": target, "value": value, "tol": tol, "expected": {"close_to": value, "abs_tol": tol}}


def _as_claim(v: Any, path: str) -> tuple[dict, dict | None]:
    """The claim's text fields, and its check if it has one."""
    c = _as_dict(v, path)
    _check_keys(c, {"id", "source", "statement", "check"}, path)
    text = {key: _field(c, key, path, _as_str) for key in ("id", "source", "statement")}
    return text, _field(c, "check", path, _as_check, None)


def _verdict(text: dict, check: dict | None, results: dict) -> dict:
    computed = _MISSING if check is None else _lookup(results, check["path"])
    if computed is _MISSING:
        return dict(text, expected=None, computed=None, verdict=VERDICT_NOT_CLAIMED)
    ok = _agrees(computed, check["value"], check["tol"])
    verdict = VERDICT_MATCHES if ok else VERDICT_CONTRADICTS
    return dict(text, expected=check["expected"], computed=computed, verdict=verdict)


# ---------------------------------------------------------------------------
# kind runners
#
# Each runner validates its body (the scenario minus the envelope) and returns
# (results, table); only an extension run computes a coset table, and it
# never enters the canonical report.  run_payload maps the runners' errors.

_Outcome = tuple[dict, CosetTable | None]


def _run_extension(body: dict) -> _Outcome:
    path = "scenario"
    allowed = {
        "rho0", "inclusion", "surjectivity_assumed", "cap", "path_class_pairs",
        "check_two_sheet_uniqueness_up_to",
    }
    _check_keys(body, allowed, path)
    rho0 = _field(body, "rho0", path, _as_rep)
    inclusion = _field(body, "inclusion", path, lambda v, p: _as_inclusion(v, p, rho0))
    gens = inclusion.target.generators
    assumed = _field(body, "surjectivity_assumed", path, _as_bool, True)
    cap = _field(body, "cap", path, _as_positive_int, 1_000_000)
    pair_specs = []
    for pair, p in _field(body, "path_class_pairs", path, _items, []):
        if len(_as_list(pair, p)) != 2:
            raise _ctx(p, "expected a pair of words")
        pair_specs.append(tuple(_as_word(w, q, gens) for w, q in _items(pair, p)))
    uniq_up_to = _field(body, "check_two_sheet_uniqueness_up_to", path, _as_positive_int, None)

    res = weak_extend(rho0, inclusion, surjectivity_assumed=assumed, cap=cap)
    results: dict[str, Any] = {
        "b0": res.b0,
        "b1": res.b1,
        "strong": res.strong,
        "fiber_map": list(res.fiber_map),
        "rho1": _images2j(res.rho1.images),
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
        # two_sheet_unique gives one answer for every k >= 1, so its last k answers the range
        results["two_sheet_unique_up_to"] = {"k_max": uniq_up_to, "all_unique": two_sheet_unique(uniq_up_to)}
    return results, res.table


def _run_braid_search(body: dict) -> _Outcome:
    path = "scenario"
    mode = _field(body, "mode", path, _as_str)
    if mode == "homs":
        _check_keys(body, {"mode", "strands", "degree", "pinned", "cap"}, path)
        strands = _field(body, "strands", path, _as_int)
        degree = _field(body, "degree", path, _as_nonnegative_int)
        pinned = _field(body, "pinned", path, lambda v, p: _as_perms(v, p, degree), {})
        cap = _field(body, "cap", path, _as_positive_int, SEARCH_CAP)
        sols = hom_search(strands, degree, pinned, cap=cap)
        return {
            "exhaustive": True,
            "search_space": _search_space(degree, strands - 1 - len(pinned), cap),
            "solution_count": len(sols),
            "solutions": [_images2j(sol) for sol in sols],
        }, None
    if mode == "minimal-extension":
        _check_keys(body, {"mode", "strands", "rho0", "cap_degree"}, path)
        strands = _field(body, "strands", path, _as_int)
        rho0 = _field(body, "rho0", path, _as_rep)
        cap_degree = _field(body, "cap_degree", path, _as_positive_int, 8)
        res = minimal_extension_degree(rho0, strands, cap_degree=cap_degree)
        return {"minimal_degree": res.degree, "witness": _images2j(res.images)}, None
    raise _ctx(path + ".mode", f"unknown mode {mode!r}; expected 'homs' or 'minimal-extension'")


def _run_slice_monodromy(body: dict) -> _Outcome:
    from .monodromy import CoverSlice, full_monodromy, separates_fiber, weierstrass_poly_of_function

    path = "scenario"
    _check_keys(body, {"cover", "basepoint", "refine", "function", "separation_points"}, path)
    cover = CoverSlice(_field(body, "cover", path, _as_bivar))
    basepoint = _field(body, "basepoint", path, _as_complex, None)
    refine = _field(body, "refine", path, _as_positive_int, 1)
    func = _field(body, "function", path, _as_bivar, None)
    sep_points = [_as_complex(z, p) for z, p in _field(body, "separation_points", path, _items, [])]
    if func is None and sep_points:
        raise _ctx(path + ".separation_points", "separation points need a 'function'")

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
    if func is not None:
        wp = weierstrass_poly_of_function(cover, func, branch=mono.branch)
        results["weierstrass"] = {
            "w_coeffs": [[_c2j(c) for c in row.coeffs] for row in wp.w_coeffs]
        }
        results["separates"] = [
            {"z": _c2j(z), "distinct": separates_fiber(cover, func, z)} for z in sep_points
        ]
    return results, None


def _as_case(v: Any, path: str) -> dict:
    from .hartogs import _check_alpha, _check_levi_shape

    c = _as_dict(v, path)
    _check_keys(c, {"n", "q", "alpha", "count", "seed"}, path)
    case = {
        "n": _field(c, "n", path, _as_int),
        "q": _field(c, "q", path, _as_int),
        "alpha": _field(c, "alpha", path, _as_number),
        "count": _field(c, "count", path, _as_positive_int),
        "seed": _field(c, "seed", path, _as_nonnegative_int),
    }
    _checked(_check_alpha, path + ".alpha", case["alpha"])
    _checked(_check_levi_shape, path, case["n"], case["q"])
    return case


def _run_hartogs_check(body: dict) -> _Outcome:
    from .hartogs import _check_r, signature_sweep

    path = "scenario"
    _check_keys(body, {"r", "cases"}, path)
    r = _field(body, "r", path, _as_number)
    _checked(_check_r, path, r)
    cases = [_as_case(c, p) for c, p in _field(body, "cases", path, _items)]
    if not cases:
        raise _ctx(path + ".cases", "needs at least one case")
    cases_out = []
    for case in cases:
        n, q = case["n"], case["q"]
        counts, dev = signature_sweep(n, q, case["alpha"], r, case["count"], case["seed"])
        sig_counts = dict(sorted((",".join(map(str, sig)), k) for sig, k in counts.items()))
        expected = f"{q},{n - q},0"
        cases_out.append(
            dict(
                case,
                expected_signature=expected,
                signature_counts=sig_counts,
                max_negative_deviation_from_minus_2=dev,
                signatures_as_expected=set(sig_counts) == {expected},
            )
        )
    return {
        "cases": cases_out,
        "all_signatures_expected": all(c["signatures_as_expected"] for c in cases_out),
        "max_negative_deviation_from_minus_2": max(
            c["max_negative_deviation_from_minus_2"] for c in cases_out
        ),
    }, None


_RUNNERS: dict[str, Callable[[dict], _Outcome]] = {
    "extension": _run_extension,
    "braid-search": _run_braid_search,
    "slice-monodromy": _run_slice_monodromy,
    "hartogs-check": _run_hartogs_check,
}
KINDS = tuple(_RUNNERS)


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
    """Validate and run one scenario description.

    A capped enumeration, which only the ``extension`` and ``braid-search``
    kinds run, ends in status ``cap-exceeded``, and a provably non-surjective
    map in ``surjectivity-failed``; input the computation rejects raises
    :class:`SchemaError`.
    """
    path = "scenario"
    top = _as_dict(payload, path)
    kind = _field(top, "kind", path, _as_str)
    if kind not in KINDS:
        raise _ctx(path + ".kind", f"unknown kind {kind!r}; expected one of {list(KINDS)}")
    name = _field(top, "name", path, _as_str, "unnamed")
    _field(top, "description", path, _as_str, "")
    claims = [_as_claim(c, p) for c, p in _field(top, "claims", path, _items, [])]
    body = {key: v for key, v in top.items() if key not in _ENVELOPE}
    t0 = time.perf_counter()
    status, table = "ok", None
    try:
        results, table = _RUNNERS[kind](body)
    except CapExceeded as exc:
        status, results = "cap-exceeded", {"error": str(exc)}
    except SurjectivityError as exc:
        status, results = "surjectivity-failed", {"error": str(exc)}
    except ValueError as exc:
        raise _ctx(path, str(exc)) from exc
    elapsed = time.perf_counter() - t0
    return Report(
        scenario=name,
        kind=kind,
        status=status,
        results=results,
        # Only an ok run has results to check; every other lookup misses.
        claims=[_verdict(text, check, results if status == "ok" else {}) for text, check in claims],
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
