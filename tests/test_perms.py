from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coverext.errors import CapExceeded
from coverext.perms import Perm, cycles_of, format_cycles, generate, generated_order

from oracles import closure


@st.composite
def perms(draw, max_degree=8):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(range(n)))
    return Perm.from_images(images)


def test_composition_is_left_to_right():
    s = Perm.transposition(3, 0, 1)
    t = Perm.transposition(3, 1, 2)
    st_ = s * t
    assert st_(0) == t(s(0)) == 2
    assert st_.images == (2, 0, 1)
    assert (t * s).images == (1, 2, 0)


def test_from_cycles_and_back():
    p = Perm.from_cycles(5, [(0, 2, 4), (1, 3)])
    assert p(0) == 2 and p(2) == 4 and p(4) == 0
    assert p.cycles() == ((0, 2, 4), (1, 3))
    assert format_cycles(p) == "(0 2 4)(1 3)"
    assert format_cycles(Perm.identity(4)) == "()"


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Perm.from_images([0, 0, 1])
    with pytest.raises(ValueError):
        Perm.from_images([0, 2])


@given(perms(), perms())
def test_product_requires_equal_degree(p, q):
    if p.degree == q.degree:
        assert (p * q).degree == p.degree
    else:
        with pytest.raises(ValueError):
            p * q


@given(st.data())
def test_group_laws(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    p = Perm.from_images(data.draw(st.permutations(range(n))))
    q = Perm.from_images(data.draw(st.permutations(range(n))))
    r = Perm.from_images(data.draw(st.permutations(range(n))))
    e = Perm.identity(n)
    assert (p * q) * r == p * (q * r)
    assert p * e == e * p == p
    assert p * p.inverse() == e
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perms())
def test_cycle_type_partitions_degree(p):
    ct = p.cycle_type()
    assert sum(ct) == p.degree
    assert list(ct) == sorted(ct, reverse=True)


@given(perms())
def test_cycles_of_walks_every_cycle_from_its_least_point(p):
    cycles = cycles_of(p.images)
    assert sorted(x for c in cycles for x in c) == list(range(p.degree))
    assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
    for c in cycles:
        assert all(p(x) == c[(i + 1) % len(c)] for i, x in enumerate(c))
    assert p.cycles() == tuple(c for c in cycles if len(c) > 1)
    assert tuple(sorted(map(len, cycles), reverse=True)) == p.cycle_type()


def test_generate_small_groups():
    s3 = generate([Perm.transposition(3, 0, 1), Perm.from_cycles(3, [(0, 1, 2)])])
    assert len(s3) == 6
    a4 = generated_order([Perm.from_cycles(4, [(0, 1, 2)]), Perm.from_cycles(4, [(1, 2, 3)])])
    assert a4 == 12
    c6 = generated_order([Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert c6 == 6


def test_generate_cap():
    gens = [Perm.from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)]), Perm.transposition(8, 0, 1)]
    with pytest.raises(CapExceeded):
        generate(gens, cap=100)
    assert generated_order(gens) == 40320


def _block_images(rng: np.random.Generator, n: int) -> list[tuple[int, ...]]:
    """1-3 permutations of degree n that each shuffle some blocks of one
    random partition of the points into at most three blocks, so the group
    may be intransitive or trivial."""
    ncuts = min(n - 1, int(rng.integers(0, 3)))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=ncuts, replace=False))
    blocks = np.split(rng.permutation(n), cuts)
    out = []
    for _ in range(int(rng.integers(1, 4))):
        img = list(range(n))
        for blk in blocks:
            if rng.uniform() < 0.7:
                img_blk = rng.permutation(blk)
                for x, y in zip(blk, img_blk):
                    img[x] = int(y)
        out.append(tuple(img))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_generated_order_matches_the_closure_by_breadth_first_search(seed):
    rng = np.random.default_rng([seed, 2005])
    cap = 5000
    for _ in range(60):
        n = int(rng.integers(1, 10))
        images = _block_images(rng, n)
        want = closure(images, cap)
        gens = [Perm(t) for t in images]
        if want is None:
            assert generated_order(gens) > cap
        else:
            assert generated_order(gens) == len(want)


def _cycles1(n, *cycles):
    """The permutation of degree n with the given 1-based cycles."""
    return Perm.from_cycles(n, [[x - 1 for x in c] for c in cycles])


_M11 = [_cycles1(11, range(1, 12)), _cycles1(11, (3, 7, 11, 8), (4, 10, 5, 6))]

LARGE_GROUPS = {
    "M11": (_M11, 7920),
    "M12": (
        [Perm(g.images + (11,)) for g in _M11]
        + [_cycles1(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))],
        95040,
    ),
    "S4 wr S3": (
        [
            _cycles1(12, (1, 2)),
            _cycles1(12, (1, 2, 3, 4)),
            _cycles1(12, (1, 5, 9), (2, 6, 10), (3, 7, 11), (4, 8, 12)),
            _cycles1(12, (1, 5), (2, 6), (3, 7), (4, 8)),
        ],
        82944,
    ),
    "S3 x S4 x S5": (
        [
            _cycles1(12, (1, 2)),
            _cycles1(12, (1, 2, 3)),
            _cycles1(12, (4, 5)),
            _cycles1(12, (4, 5, 6, 7)),
            _cycles1(12, (8, 9)),
            _cycles1(12, (8, 9, 10, 11, 12)),
        ],
        17280,
    ),
    "S10": ([Perm.transposition(10, i, i + 1) for i in range(9)], 3628800),
    "A10": (
        [Perm.from_cycles(10, [c]) for c in itertools.permutations(range(10), 3) if c[0] == min(c)],
        1814400,
    ),
}


@pytest.mark.parametrize("name", sorted(LARGE_GROUPS))
def test_generated_order_is_exact_above_the_closure_cap(name):
    """Orders beyond the breadth-first oracle's reach, from the literature:
    the Mathieu groups, a wreath product, an intransitive direct product, S10
    from its adjacent transpositions and A10 from its 3-cycles.  The order
    does not depend on the generators' order, an identity or a repeat."""
    gens, order = LARGE_GROUPS[name]
    n = gens[0].degree
    assert generated_order(gens) == order
    assert generated_order(gens[::-1]) == order
    assert generated_order([Perm.identity(n), *gens, gens[0]]) == order


def test_generated_order_cap_boundary():
    def cyc(n, *cycles):
        return Perm.from_cycles(n, cycles)

    groups = [
        [cyc(3, (0, 1)), cyc(3, (0, 1, 2))],  # S3
        [cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))],  # A4
        [cyc(6, (0, 1, 2, 3, 4, 5))],  # C6
        [cyc(7, (0, 1)), cyc(7, (2, 3, 4)), cyc(7, (5, 6))],  # C2 x C3 x C2, intransitive
        [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))],  # S5
        [cyc(8, (0, 1, 2, 3), (4, 5, 6, 7)), cyc(8, (0, 4), (1, 7), (2, 6), (3, 5))],  # D4, regular on 8 points
    ]
    for gens in groups:
        order = len(closure([g.images for g in gens], 10**6))
        assert generated_order(gens) == len(generate(gens, cap=order)) == order
        with pytest.raises(CapExceeded, match=f"^group closure exceeded cap {order - 1}$"):
            generate(gens, cap=order - 1)
    # the trivial group never exceeds a cap
    ident = [Perm.identity(4)]
    assert generated_order(ident) == len(generate(ident, cap=0)) == 1
    assert generated_order([]) == len(generate([])) == 0


def test_fixed_points():
    t = Perm.transposition(4, 1, 3)
    assert [x for x in range(4) if t(x) == x] == [0, 2]
