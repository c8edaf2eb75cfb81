"""Time the cover-extension group layers at scaled sheet counts.

For 2k, 20k and 100k sheets this draws a random transitive 2-generator cover
(seeded, so runs are repeatable), then prints the wall time of
``is_transitive``, ``schreier_generators`` and ``weak_extend`` into the free
group on the same generators (identity inclusion, so ``b1`` must equal the
sheet count).  The layers are linear in the sheet count up to the length of
the transversal words, so ten times the sheets should cost a little over ten
times the time.

It then times ``todd_coxeter`` on the Coxeter presentations of S7 and S8 over
the trivial subgroup (5040 and 40320 cosets, one sweep each), and
``hom_search`` at the benchmark sizes (4 strands into S4, 3 into S5) and at
the scaled size 3 into S6 (6480 solutions).  Every braid solution is chased
point by point through every relator with ``tests/oracles.chase``, and the
solution set is compared with a brute-force search.  Last it times
``minimal_extension_degree`` of the 2-strand standard cover into 100, 200 and
400 strands (it extends on 2 sheets), and chases each witness through every
braid relation of ``tests/oracles``.  The deep-tree row extends a single
8k- and 100k-cycle into the free group on its generator, whose breadth-first
tree is half the sheet count deep, and prints the time and the
``tracemalloc`` peak of a second, traced call.  A wrong ``b1``, coset count,
braid solution or witness ends the script with a non-zero exit status.

One SHA-256 covers every answer, read after the timed calls: ``b1``, the
fiber map, the ``rho1`` images and the table rows of each ``weak_extend``;
the rows and representative words of each ``todd_coxeter`` table; and the
solution tuples of each ``hom_search``.  Equal digests mean equal answers.
The ``minimal_extension_degree`` and deep-tree rows are checked but left
out of the digest, so that it stays comparable across commits.

    python scripts/scale_groups.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from coverext.braids import braid_presentation, hom_search, minimal_extension_degree, standard_rep
from coverext.cosets import Presentation, schreier_generators, todd_coxeter
from coverext.extension import Inclusion, weak_extend
from coverext.perms import Perm
from coverext.reps import PermRep
from coverext.words import Word, format_word

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (  # noqa: E402
    _braid_relations,
    braid_homs_by_chase,
    chase,
    coxeter_presentation,
    orbit_size,
    random_transitive_images,
)

SIZES = (2000, 20000, 100000)
GENERATORS = 2
SEED = 2015
COXETER = (7, 8)
BRAIDS = ((4, 4), (3, 5), (3, 6))  # (strands, degree)
EXTENSION_STRANDS = (100, 200, 400)  # m_big for the 2-strand standard cover
DEEP_CYCLES = (8000, 100000)  # single-cycle covers into <a>


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    answers = hashlib.sha256()

    def record(*answer) -> None:
        answers.update(json.dumps(answer).encode() + b"\n")

    names = tuple(f"a{i + 1}" for i in range(GENERATORS))
    inc = Inclusion(names, {n: Word.gen(n) for n in names}, Presentation.free(names))
    print(f"{'sheets':>8} {'is_transitive_s':>16} {'schreier_s':>11} {'weak_extend_s':>14} {'b1':>8}")
    for b in SIZES:
        images = random_transitive_images(np.random.default_rng([SEED, b]), b, GENERATORS)
        rep = PermRep(b, {n: Perm(img) for n, img in zip(names, images)})
        transitive, t_trans = timed(rep.is_transitive)
        _, t_schreier = timed(lambda: schreier_generators(rep, gen_order=names))
        res, t_weak = timed(lambda: weak_extend(rep, inc))
        if not transitive or res.b1 != b:
            raise SystemExit(f"wrong result at {b} sheets: transitive={transitive}, b1={res.b1}")
        record(b, res.b1, res.fiber_map, {n: p.images for n, p in res.rho1.images.items()}, res.table.rows)
        print(f"{b:>8} {t_trans:>16.4f} {t_schreier:>11.3f} {t_weak:>14.3f} {res.b1:>8}", flush=True)
    print(f"\n{'group':>8} {'todd_coxeter_s':>15} {'index':>8}")
    for n in COXETER:
        pres = coxeter_presentation(n)
        table, t_tc = timed(lambda: todd_coxeter(pres))
        if table.index != math.factorial(n):
            raise SystemExit(f"wrong index for S{n}: {table.index} != {math.factorial(n)}")
        record(n, table.rows, [format_word(w) for w in table.rep_words])
        print(f"{'S' + str(n):>8} {t_tc:>15.3f} {table.index:>8}", flush=True)
    # Drop the 100k-sheet cover and the S8 table before the braid rows, so
    # that a collector pass over their millions of tuples is not timed there.
    del images, rep, res, pres, table
    gc.collect()
    print(f"\n{'strands':>8} {'degree':>7} {'hom_search_s':>13} {'solutions':>10} {'brute_force_s':>14}")
    for m, degree in BRAIDS:
        sols, t_hom = timed(lambda: hom_search(m, degree))
        relators = braid_presentation(m).relators
        for sol in sols:
            images = {n: p.images for n, p in sol.items()}
            if any(chase(images, r, x) != x for r in relators for x in range(degree)):
                raise SystemExit(f"hom_search({m}, {degree}): {images} breaks a braid relator")
        brute, t_brute = timed(lambda: braid_homs_by_chase(m, degree))
        tuples = [tuple(sol[f"s{i}"].images for i in range(1, m)) for sol in sols]
        record(m, degree, tuples)
        got = set(tuples)
        if len(got) != len(sols) or got != brute:
            raise SystemExit(f"hom_search({m}, {degree}): {len(sols)} solutions, brute force {len(brute)}")
        print(f"{m:>8} {degree:>7} {t_hom:>13.3f} {len(sols):>10} {t_brute:>14.3f}", flush=True)
    print(f"answers sha256 {answers.hexdigest()}")
    print(f"\n{'m_big':>8} {'minimal_extension_s':>20} {'degree':>7}")
    for m_big in EXTENSION_STRANDS:
        res, t_ext = timed(lambda: minimal_extension_degree(standard_rep(2), m_big))
        images = {n: p.images for n, p in res.images.items()}
        relations = _braid_relations(m_big)
        if (
            res.degree != 2
            or len(images) != m_big - 1
            or images["s1"] != (1, 0)
            or orbit_size(list(images.values()), 0) != res.degree
            or any(chase(images, lhs, x) != chase(images, rhs, x) for lhs, rhs in relations for x in range(res.degree))
        ):
            raise SystemExit(f"minimal_extension_degree(standard_rep(2), {m_big}): wrong witness {images}")
        print(f"{m_big:>8} {t_ext:>20.3f} {res.degree:>7}", flush=True)
    print(f"\n{'cycle':>8} {'weak_extend_s':>14} {'peak_mb':>8} {'b1':>8}")
    free = Inclusion(("a",), {"a": Word.gen("a")}, Presentation.free(["a"]))
    for b in DEEP_CYCLES:
        rep = PermRep(b, {"a": Perm(tuple(range(1, b)) + (0,))})
        res, t_weak = timed(lambda: weak_extend(rep, free))
        if res.b1 != b:
            raise SystemExit(f"wrong b1 for the {b}-cycle: {res.b1}")
        tracemalloc.start()
        try:
            weak_extend(rep, free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"{b:>8} {t_weak:>14.3f} {peak / 1e6:>8.1f} {res.b1:>8}", flush=True)


if __name__ == "__main__":
    main()
