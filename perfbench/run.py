"""coverext benchmark: one closed-loop, single-threaded client driving the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload {paper,groups,analytic} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory.  Setup
(import plus input generation) is measured in eleven fresh interpreters and
reported as their median.  Then blocks of the workload's op list run until
``--seconds`` is used up (at least one block; another starts only while
the previous one's duration still fits in the time left).  Each op's output is checked
against an independent oracle outside the timed region.

``wall_s`` is the median over passes of one pass's summed op times,
``verdict_p50_ms`` the median over passes of a pass's median op time, and
``verdict_tail_ms`` the median over blocks of the block's highest percentile
with at least ten ops beyond it (a block is a fixed number of passes, so the
percentile does not move when a faster program fits more blocks in a run).

Times are reported in reference seconds.  A shared host's speed swings by a
third within seconds to minutes, and every op slows or speeds with it, so an
interval timer interrupts the run every ``CAL_EVERY_S`` to time a fixed
kernel (complex Horner steps, as in the package's polynomial code, but none
of its code).  The handler's time is taken out of the op it interrupted, and
each op's time is scaled by ``CAL_REF_S`` over the mean kernel reading from
the last one before the op to the first one after it (for ``setup_s``, by
each probe's median kernel reading).  stderr also shows the unscaled wall
time and the median kernel reading.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced block and prints the per-layer metrics derived from
the spans, which are also written to ``.perfbench_out/``.  The last line of
stdout is the JSON result; details go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import spans as spanlib

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # one compute thread, set before numpy loads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MODULES = ("words", "perms", "reps", "cosets", "extension", "braids", "cpoly",
           "monodromy", "hartogs", "scenarios", "cli", "errors")
SETUP_PROBES = 11
TAIL_BEYOND = 10
CAL_LOOPS = 1000  # one run takes about 0.5 ms on the reference host
CAL_REPEATS = 3  # a kernel reading is the median of this many runs
CAL_REF_S = 0.0014  # the kernel reading that defines a reference second
CAL_EVERY_S = 0.1
_CAL_COEFFS = tuple(complex(k % 5 - 2, k % 3 - 1) for k in range(8))

SCENARIOS = ("braid_4_3_search", "cubic_slice_monodromy", "example3_extension",
             "galois_slice_monodromy", "hartogs_signature_sweep",
             "minimal_extension_degree", "stein_weierstrass", "two_sheet_extension")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "ok_frac": "ratio",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}

# (metric, span, stat): stat is calls, time_s, self_s or count.
SPAN_METRICS = [
    ("hartogs.levi_signature.calls", "hartogs.levi_signature", "calls"),
    ("hartogs.levi_signature.time_s", "hartogs.levi_signature", "time_s"),
    ("hartogs.levi_signature.self_s", "hartogs.levi_signature", "self_s"),
    ("hartogs.levi_matrix.time_s", "hartogs.levi_matrix", "time_s"),
    ("reps.is_transitive.time_s", "reps.is_transitive", "time_s"),
    ("cosets.schreier_generators.time_s", "cosets.schreier_generators", "time_s"),
    ("cosets.schreier_generators.self_s", "cosets.schreier_generators", "self_s"),
    ("cosets.schreier_generators.letters", "cosets.schreier_generators", "count"),
    ("cosets.todd_coxeter.calls", "cosets.todd_coxeter", "calls"),
    ("cosets.todd_coxeter.time_s", "cosets.todd_coxeter", "time_s"),
    ("cosets.todd_coxeter.index", "cosets.todd_coxeter", "count"),
    ("extension.weak_extend.time_s", "extension.weak_extend", "time_s"),
    ("extension.weak_extend.self_s", "extension.weak_extend", "self_s"),
    ("words.substitute.time_s", "words.substitute", "time_s"),
    ("braids.hom_search.time_s", "braids.hom_search", "time_s"),
    ("braids.hom_search.solutions", "braids.hom_search", "count"),
    ("braids.minimal_extension_degree.time_s", "braids.minimal_extension_degree", "time_s"),
    ("braids.minimal_extension_degree.self_s", "braids.minimal_extension_degree", "self_s"),
    ("perms.generate.calls", "perms.generate", "calls"),
    ("perms.generate.time_s", "perms.generate", "time_s"),
    ("monodromy.track_path.calls", "monodromy.track_path", "calls"),
    ("monodromy.track_path.time_s", "monodromy.track_path", "time_s"),
    ("monodromy.track_path.nodes", "monodromy.track_path", "count"),
    ("monodromy.full_monodromy.time_s", "monodromy.full_monodromy", "time_s"),
    ("monodromy.full_monodromy.self_s", "monodromy.full_monodromy", "self_s"),
    ("monodromy.branch_points.time_s", "monodromy.branch_points", "time_s"),
    ("monodromy.branch_points.self_s", "monodromy.branch_points", "self_s"),
    ("monodromy.z_discriminant.time_s", "monodromy.z_discriminant", "time_s"),
    ("monodromy.z_discriminant.self_s", "monodromy.z_discriminant", "self_s"),
    ("monodromy.weierstrass_poly_of_function.time_s", "monodromy.weierstrass_poly_of_function", "time_s"),
    ("monodromy.weierstrass_poly_of_function.self_s", "monodromy.weierstrass_poly_of_function", "self_s"),
    ("monodromy.separates_fiber.time_s", "monodromy.separates_fiber", "time_s"),
    ("monodromy.separates_fiber.self_s", "monodromy.separates_fiber", "self_s"),
    ("cpoly.roots.calls", "cpoly.roots", "calls"),
    ("cpoly.roots.time_s", "cpoly.roots", "time_s"),
    ("cpoly.discriminant.calls", "cpoly.discriminant", "calls"),
    ("cpoly.discriminant.time_s", "cpoly.discriminant", "time_s"),
    ("scenarios.run_payload.self_s", "scenarios.run_payload", "self_s"),
    ("scenarios.to_json.time_s", "scenarios.to_json", "time_s"),
]
# Spans whose self time the listed metrics carry (leaves report it as time_s),
# so that their sum plus trace.unattributed_s is trace.wall_s.
SELF_CARRIERS = {
    span: metric for metric, span, stat in SPAN_METRICS
    if stat == "self_s" or (stat == "time_s" and not any(
        s == span and st == "self_s" for _, s, st in SPAN_METRICS))
}

PER_LAYER = (
    [(metric, {"calls": "count", "count": "count"}.get(stat, "s")) for metric, _, stat in SPAN_METRICS]
    + [("monodromy.track_path.us_per_node", "us"), ("monodromy.numeric_failures", "count")]
    + [(f"scenarios.{name}.time_s", "s") for name in SCENARIOS]
    + [("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_frac", "ratio")]
)


def calibrate() -> float:
    """Seconds a fixed kernel takes now (median of ``CAL_REPEATS`` runs): the host's speed.

    The kernel runs with the collector off, so the program's heap cannot slow it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            acc = 0j
            for i in range(CAL_LOOPS):
                z = complex((i % 13) * 0.1, 0.3)
                v = 0j
                for c in _CAL_COEFFS:
                    v = v * z + c
                pair = (v, z)
                acc += pair[0] / (1.0 + abs(pair[1]))
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)
    finally:
        if was_enabled:
            gc.enable()


def import_coverext() -> SimpleNamespace:
    """Import the package from this checkout's ``src/``; exit non-zero if it is not there."""
    sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("coverext")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import coverext from {SRC}: {exc}")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: coverext resolved to {pkg.__file__}, not to {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"coverext.{m}") for m in MODULES})


def setup(workload: str, seed: int):
    """Import plus input generation: what ``setup_s`` measures."""
    cx = import_coverext()
    import workloads

    return cx, workloads.BUILDERS[workload](cx, seed)


def probe_setup(workload: str, seed: int) -> float:
    """Median of scaled setup times measured in fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class HostClock:
    """Kernel readings every ``CAL_EVERY_S`` from an interval timer, so that
    long ops get readings from inside them too.  The handler's own time is
    summed in ``busy`` and taken out of the op it interrupted."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(calibrate())
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        self.readings.append(calibrate())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Recorder:
    """Per-op durations and outcomes, grouped by pass and block; pass and
    block statistics are in reference seconds."""

    def __init__(self) -> None:
        self.raw_walls: list[float] = []
        self.pass_walls: list[float] = []
        self.pass_medians: list[float] = []
        self.block_tails: list[float] = []
        self.kernel_times: list[float] = []
        self.scaled_total = 0.0
        self.elapsed_total = 0.0  # op time with the timer handler's time left in
        self.outcomes = {"ok": 0, "refused": 0, "raised": 0, "wrong": 0}
        self.problems: list[str] = []

    def run_block(self, wl, passes: int, clock: HostClock) -> float:
        t_block = time.perf_counter()
        first = len(clock.readings)
        times: list[float] = []
        for _ in range(passes):
            raw, windows = [], []
            for op in wl.ops:
                i0 = len(clock.readings)
                elapsed, handler, outcome, problem = run_op(op, clock)
                raw.append(elapsed - handler)
                windows.append((i0, len(clock.readings)))
                self.elapsed_total += elapsed
                self.outcomes[outcome] += 1
                if problem and len(self.problems) < 20:
                    self.problems.append(problem)
            scaled = []
            for dt, (i0, i1) in zip(raw, windows):
                # readings inside the op, plus the last one before and the first one after it
                near = clock.readings[max(i0 - 1, 0):i1 + 1]
                scaled.append(dt * CAL_REF_S / statistics.fmean(near))
            self.raw_walls.append(sum(raw))
            self.pass_walls.append(sum(scaled))
            self.pass_medians.append(statistics.median(scaled))
            self.scaled_total += sum(scaled)
            times += scaled
        self.block_tails.append(tail(times))
        self.kernel_times += clock.readings[first:]
        return time.perf_counter() - t_block


def run_op(op, clock: HostClock) -> tuple[float, float, str, str | None]:
    """Run one op: (elapsed, timer-handler time inside it, outcome, problem)."""
    busy0 = clock.busy
    t0 = time.perf_counter()
    try:
        out = op.call()
    except op.refuse:
        return time.perf_counter() - t0, clock.busy - busy0, "refused", None
    except Exception as exc:  # any undocumented error fails the op and the run
        return (time.perf_counter() - t0, clock.busy - busy0, "raised",
                f"{op.cls}: {type(exc).__name__}: {exc}")
    dt, handler = time.perf_counter() - t0, clock.busy - busy0
    try:
        problem = op.check(out, op.expected)
    except Exception as exc:  # a check that cannot read the output fails the op
        problem = f"{op.cls}: check raised {type(exc).__name__}: {exc}"
    return dt, handler, ("wrong" if problem else "ok"), problem


def tail(times: list[float]) -> float:
    """The highest per-op percentile with at least TAIL_BEYOND ops beyond it."""
    return sorted(times)[-TAIL_BEYOND - 1]


def end_to_end(rec: Recorder, setup_s: float) -> dict[str, float]:
    attempted = sum(rec.outcomes.values())
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(rec.pass_walls),
        "verdict_p50_ms": 1e3 * statistics.median(rec.pass_medians),
        "verdict_tail_ms": 1e3 * statistics.median(rec.block_tails),
        "ok_frac": rec.outcomes["ok"] / attempted,
        "answered_frac": (rec.outcomes["ok"] + rec.outcomes["wrong"]) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans: list, traced: Recorder, untraced: Recorder) -> dict[str, float]:
    """Per-pass span statistics of the traced blocks, times scaled to reference
    seconds by the traced blocks' ratio of scaled op time to op time as the
    spans saw it (timer handler included)."""
    stats, by_label = spanlib.aggregate(spans)
    passes = len(traced.pass_walls)
    ns = 1e-9 * traced.scaled_total / traced.elapsed_total  # reference seconds per ns of span
    zero = spanlib.SpanStats()
    out: dict[str, float] = {}
    for metric, span, stat in SPAN_METRICS:
        st = stats.get(span, zero)
        value = {"calls": st.calls, "time_s": st.time_ns * ns, "self_s": st.self_ns * ns,
                 "count": st.count}[stat]
        out[metric] = value / passes
    tp = stats.get("monodromy.track_path", zero)
    out["monodromy.track_path.us_per_node"] = tp.time_ns * ns * 1e6 / tp.count if tp.count else 0.0
    fm = stats.get("monodromy.full_monodromy", zero)
    out["monodromy.numeric_failures"] = (fm.errors or {}).get("NumericFailure", 0) / passes
    for name in SCENARIOS:
        out[f"scenarios.{name}.time_s"] = by_label.get(name, 0) * ns / passes
    wall = traced.scaled_total / passes
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(out[m] for m in SELF_CARRIERS.values())
    out["trace.overhead_frac"] = (statistics.median(traced.pass_walls)
                                  / statistics.median(untraced.pass_walls) - 1.0)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="coverext benchmark")
    ap.add_argument("--workload", required=True, choices=("paper", "groups", "analytic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        kernel = [calibrate() for _ in range(5)]
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        elapsed = time.perf_counter() - t0
        kernel += [calibrate() for _ in range(5)]
        print(repr(elapsed * CAL_REF_S / statistics.median(kernel)))
        return 0

    cx, wl = setup(args.workload, args.seed)
    for op in wl.ops:  # input-only oracle answers, computed before timing
        op.expected = op.expect()
    setup_s = probe_setup(args.workload, args.seed) if args.trace == 0 else float("nan")

    start = time.perf_counter()

    def more(last_block: float) -> bool:
        return time.perf_counter() - start + last_block <= args.seconds

    if args.trace == 0:
        rec = Recorder()
        with HostClock() as clock:
            block = rec.run_block(wl, wl.passes_per_block, clock)
            while more(block):
                block = rec.run_block(wl, wl.passes_per_block, clock)
        metrics = end_to_end(rec, setup_s)
        records = [rec]
        units = END_TO_END
    else:
        tracer = spanlib.Tracer()
        untraced, traced = Recorder(), Recorder()
        with HostClock() as clock:
            while True:
                pair = untraced.run_block(wl, wl.passes_per_block, clock)
                tracer.install()
                try:
                    pair += traced.run_block(wl, wl.passes_per_block, clock)
                finally:
                    tracer.uninstall()
                if not more(pair):
                    break
        metrics = per_layer(tracer.spans, traced, untraced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.jsonl"))
        records = [untraced, traced]
        units = dict(PER_LAYER)

    attempted = sum(sum(r.outcomes.values()) for r in records)
    wrong = sum(r.outcomes["wrong"] + r.outcomes["raised"] for r in records)
    refused = sum(r.outcomes["refused"] for r in records)
    ops_per_block = len(wl.ops) * wl.passes_per_block
    pct = 100.0 * (ops_per_block - TAIL_BEYOND) / ops_per_block
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(records[0].block_tails)} block(s) of {ops_per_block} ops, "
          f"{sum(len(r.pass_walls) for r in records)} pass(es), {attempted} ops "
          f"({refused} refused, {wrong} wrong) in {time.perf_counter() - start:.1f}s; "
          f"verdict_tail_ms is p{pct:.1f} of {ops_per_block} ops per block; "
          f"unscaled wall_s {statistics.median(records[0].raw_walls):.4f} s, "
          f"kernel {1e3 * statistics.median(records[0].kernel_times):.3f} ms", file=sys.stderr)
    for problem in sum((r.problems for r in records), []):
        print(f"  check failed: {problem}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": refused + wrong,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
