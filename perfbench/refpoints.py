"""Single-layer reference readings at fixed sizes (ROADMAP item 1's baselines).

Usage, from the repository root:

    python3 perfbench/refpoints.py

Prints one JSON object of named readings, each the median of several calls
on one thread: ``levi_signature`` at n=5, ``schreier_generators`` (and
``todd_coxeter`` on the pushed stabilizer, free target) for random 2-generator
covers at 800 and 2000 sheets, and ``hom_search(4, 4)``.  The readings in
``baseline.json`` were taken with this script.
"""

from __future__ import annotations

import json
import statistics
import time

import run  # sets the thread limits and imports coverext from src/


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    cx = run.import_coverext()
    import numpy as np

    import workloads

    rng = np.random.default_rng(2015)
    out: dict[str, float] = {}

    points = [rng.uniform(0.25, 0.7, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5)) for _ in range(40)]
    it = iter(points)
    out["hartogs.levi_signature.n5_ms"] = 1e3 * median_time(
        lambda: cx.hartogs.levi_signature(next(it), 2, 3.5, 0.5), 40)

    for b in (800, 2000):
        images = workloads.random_cover(rng, b, 2)
        rho0 = cx.reps.PermRep(b, {n: cx.perms.Perm(img) for n, img in images.items()})
        names = tuple(sorted(images))
        out[f"cosets.schreier_generators.b{b}_s"] = median_time(
            lambda: cx.cosets.schreier_generators(rho0, gen_order=names), 3)
        stab = cx.cosets.schreier_generators(rho0, gen_order=names)
        out[f"cosets.todd_coxeter.b{b}_s"] = median_time(
            lambda: cx.cosets.todd_coxeter(cx.cosets.Presentation.free(names), stab.generators), 3)

    out["braids.hom_search.4_4_s"] = median_time(lambda: cx.braids.hom_search(4, 4), 5)
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
