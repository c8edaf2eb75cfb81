"""In-memory span recorder that wraps coverext's public entry points.

Only the traced process installs the wrappers.  A wrapper replaces a public
function everywhere the package holds a reference to it (the defining module
and every ``from .x import f`` copy), or a method on its class, and restores
the original on ``uninstall``.  Each call records one span: name, id, parent
id, start and end (``perf_counter_ns``), the exception type if it raised, an
optional work count and an optional label.

Per-element hot calls (``Perm.__mul__``, ``Perm.inverse``, ``rho_alpha``,
``CPoly.__call__``, the Newton corrector) are deliberately not wrapped: a
span costs about a microsecond, which would distort what they time.  Their
cost shows up in the self time of the caller.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], int]
Labeller = Callable[[tuple, dict], str]


@dataclass(frozen=True)
class Target:
    """One public entry point: ``module`` plus ``Class.method`` or ``function``."""

    span: str
    module: str
    attr: str
    count: Counter | None = None
    label: Labeller | None = None


def _letters(args: tuple, kwargs: dict, out: Any) -> int:
    return sum(w.length() for w in out.generators)


# Layer boundaries, named <module>.<function>.  The benchmark reaches every
# call below through module attributes, so rebinding them is enough.
TARGETS: tuple[Target, ...] = (
    Target("scenarios.run_payload", "coverext.scenarios", "run_payload",
           label=lambda a, k: str(a[0].get("name", "unnamed"))),
    Target("scenarios.to_json", "coverext.scenarios", "Report.to_json"),
    Target("extension.weak_extend", "coverext.extension", "weak_extend"),
    Target("reps.is_transitive", "coverext.reps", "PermRep.is_transitive"),
    Target("cosets.schreier_generators", "coverext.cosets", "schreier_generators", count=_letters),
    Target("cosets.todd_coxeter", "coverext.cosets", "todd_coxeter",
           count=lambda a, k, out: out.index),
    Target("words.substitute", "coverext.words", "Word.substitute"),
    Target("braids.hom_search", "coverext.braids", "hom_search",
           count=lambda a, k, out: len(out)),
    Target("braids.minimal_extension_degree", "coverext.braids", "minimal_extension_degree"),
    Target("perms.generate", "coverext.perms", "generate"),
    Target("monodromy.full_monodromy", "coverext.monodromy", "full_monodromy"),
    Target("monodromy.track_path", "coverext.monodromy", "track_path",
           count=lambda a, k, out: len(a[1] if len(a) > 1 else k["nodes"])),
    Target("monodromy.branch_points", "coverext.monodromy", "branch_points"),
    Target("monodromy.z_discriminant", "coverext.monodromy", "z_discriminant"),
    Target("monodromy.weierstrass_poly_of_function", "coverext.monodromy",
           "weierstrass_poly_of_function"),
    Target("monodromy.separates_fiber", "coverext.monodromy", "separates_fiber"),
    Target("cpoly.roots", "coverext.cpoly", "roots"),
    Target("cpoly.discriminant", "coverext.cpoly", "discriminant"),
    Target("hartogs.levi_signature", "coverext.hartogs", "levi_signature"),
    Target("hartogs.levi_matrix", "coverext.hartogs", "levi_matrix"),
)


class Tracer:
    """Records spans while installed; ``spans`` rows are
    ``[name, id, parent, start_ns, end_ns, error, count, label]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, count, label = target.span, target.count, target.label

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            row = [name, sid, parent, 0, 0, None, None, label(args, kwargs) if label else None]
            tracer._stack.append(sid)
            row[3] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[4] = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append(row)
            if count is not None:
                row[6] = count(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "coverext" or n.startswith("coverext."))]
        for target in TARGETS:
            owner: Any = sys.modules[target.module]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            if path:  # a method: patch the class once
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "id", "parent", "start_ns", "end_ns", "error", "count", "label")
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    time_ns: int = 0
    self_ns: int = 0
    count: int = 0
    errors: dict | None = None


def aggregate(spans: list[list]) -> tuple[dict[str, SpanStats], dict[str, int]]:
    """Per-name totals (self time = duration minus direct children's durations)
    and per-label totals of ``scenarios.run_payload`` durations."""
    child_ns: dict[int, int] = {}
    for name, sid, parent, t0, t1, *_ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    stats: dict[str, SpanStats] = {}
    by_label: dict[str, int] = {}
    for name, sid, parent, t0, t1, error, count, label in spans:
        st = stats.setdefault(name, SpanStats())
        dur = t1 - t0
        st.calls += 1
        st.time_ns += dur
        st.self_ns += dur - child_ns.get(sid, 0)
        if count is not None:
            st.count += count
        if error is not None:
            st.errors = st.errors or {}
            st.errors[error] = st.errors.get(error, 0) + 1
        if label is not None:
            by_label[label] = by_label.get(label, 0) + dur
    return stats, by_label
