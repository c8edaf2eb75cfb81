"""Time slice monodromy over the generic-cover corpus and group orders up to S10.

For each cover of the corpus (seeds 100-159, ``tests/oracles.generic_cover_rows``:
degree 3 + seed % 6 in w, coefficients of z-degree 1 or 2) this prints the
wall time of ``full_monodromy``, the number of branch points, the order of the
lasso group (``closure_order``) or the error the cover raised, and the total.
One SHA-256 covers every cover's answer: the images of each lasso permutation
and of the boundary permutation and the closure order, or the type and text
of the error the cover raised; equal digests mean equal answers on the whole
corpus.  The encoding is ``tests/oracles.corpus_answer``, which the tier-1
test that pins the digest shares.  A cover that answers with a lasso product
other than its boundary loop ends the script with a non-zero exit status; a
raised error is printed and counted but is not a wrong answer.

It then times ``generated_order`` on generators of S8, S9 and S10 in two
shapes.  Few long generators: an adjacent transposition and an n-cycle, and
the n-2 consecutive 3-cycles of A_n.  Many short ones: the n-1 adjacent
transpositions of S_n (row ``S<n>adj``), the shape of a lasso group: one
generator per branch point, mostly transpositions.  Each pass of
``generated_order`` forms one Schreier generator per orbit point and
generator, and its filter may hand up to n(n-1)/2 of them to the next pass,
so its cost depends on the shape of the generating set; timing both shows a
change that helps one shape and hurts the other.  A wrong order in either
also ends the script with a non-zero exit status.

    python scripts/scale_monodromy.py
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

from coverext.cpoly import BivarPoly
from coverext.errors import NumericFailure
from coverext.monodromy import CoverSlice, full_monodromy
from coverext.perms import Perm, generated_order

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import answer_digest, corpus_answer, generic_cover_rows  # noqa: E402

SEEDS = range(100, 160)
DEGREES = (8, 9, 10)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    print(f"{'seed':>5} {'d':>3} {'branch':>7} {'monodromy_s':>12} {'order':>10}")
    total, errors = 0.0, 0
    answers = []
    for seed in SEEDS:
        rows = generic_cover_rows(seed)
        cover = CoverSlice(BivarPoly.from_lists(rows))
        try:
            mono, dt = timed(lambda: full_monodromy(cover))
        except NumericFailure as exc:
            errors += 1
            answers.append(corpus_answer(seed, exc))
            print(f"{seed:>5} {len(rows) - 1:>3} {'-':>7} {'-':>12} raised: {exc}", flush=True)
            continue
        total += dt
        if not mono.product_matches_boundary:
            raise SystemExit(f"seed {seed}: lasso product {mono.product_perm} != boundary {mono.boundary_perm}")
        answers.append(corpus_answer(seed, mono))
        order = answers[-1][-1]
        print(f"{seed:>5} {len(rows) - 1:>3} {len(mono.branch):>7} {dt:>12.3f} {order:>10}", flush=True)
    print(f"total {total:.2f} s over {len(SEEDS) - errors} covers, {errors} raised")
    print(f"answers sha256 {answer_digest(answers)}")

    print(f"\n{'group':>7} {'generated_order_s':>18} {'order':>9}")
    for n in DEGREES:
        cases = (
            (f"S{n}", [Perm.transposition(n, 0, 1), Perm.from_cycles(n, [tuple(range(n))])], math.factorial(n)),
            (f"A{n}", [Perm.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)], math.factorial(n) // 2),
            (f"S{n}adj", [Perm.transposition(n, i, i + 1) for i in range(n - 1)], math.factorial(n)),
        )
        for name, gens, want in cases:
            order, dt = timed(lambda: generated_order(gens))
            if order != want:
                raise SystemExit(f"wrong order for {name}: {order} != {want}")
            print(f"{name:>7} {dt:>18.4f} {order:>9}", flush=True)


if __name__ == "__main__":
    main()
