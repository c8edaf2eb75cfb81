from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverext import cosets
from coverext.cosets import Presentation, StabilizerData, schreier_generators, todd_coxeter
from coverext.errors import CapExceeded, SurjectivityError
from coverext.extension import Inclusion, weak_extend
from coverext.perms import Perm
from coverext.reps import PermRep
from coverext.scenarios import run_bundled
from coverext.words import Word, format_word, parse_word

from oracles import (
    breadth_first_tree,
    chase,
    coset_table_closes,
    coxeter_presentation,
    orbit_order,
    orbit_size,
    random_transitive_images,
    standard_coset_table_by_permutations,
)

S3 = Presentation(
    ("x", "y"),
    (parse_word("x^2"), parse_word("y^2"), parse_word("x y x y x y")),
)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"))
    with pytest.raises(ValueError):
        Presentation(("a",), (parse_word("b"),))
    assert Presentation.free(["a", "b"]).relators == ()


def test_s3_over_x_frozen_table():
    table = todd_coxeter(S3, [parse_word("x")])
    assert table.index == 3
    assert table.rows == ((0, 0, 1, 1), (2, 2, 0, 0), (1, 1, 2, 2))
    assert [format_word(w) for w in table.rep_words] == ["", "y", "y x"]
    assert table.coset_action("x") == Perm.from_images([0, 2, 1])
    assert table.coset_action("y") == Perm.from_images([1, 0, 2])
    with pytest.raises(ValueError, match="'z'"):
        table.coset_action("z")
    rep = table.to_rep()
    assert rep.is_transitive()
    # acting by a representative word takes coset 0 to that coset
    for c, w in enumerate(table.rep_words):
        assert table.act(0, w) == c


def test_s3_format_table_golden():
    table = todd_coxeter(S3, [parse_word("x")])
    assert table.format_table() == (
        "coset\tx\tx^-1\ty\ty^-1\n"
        "0\t0\t0\t1\t1\n"
        "1\t2\t2\t0\t0\n"
        "2\t1\t1\t2\t2"
    )


def test_full_group_enumerations():
    c6 = Presentation(("a",), (parse_word("a^6"),))
    assert todd_coxeter(c6, []).index == 6
    q8 = Presentation(
        ("a", "b"),
        (parse_word("a^4"), parse_word("a^2 b^-2"), parse_word("b^-1 a b a")),
    )
    assert todd_coxeter(q8, []).index == 8
    collapse = Presentation(("a", "b"), (parse_word("a"), parse_word("b")))
    assert todd_coxeter(collapse, []).index == 1
    gcd = Presentation(("a",), (parse_word("a^2"), parse_word("a^3")))
    assert todd_coxeter(gcd, []).index == 1


def test_coxeter_s4():
    s4 = Presentation(
        ("a", "b", "c"),
        (
            parse_word("a^2"),
            parse_word("b^2"),
            parse_word("c^2"),
            parse_word("a b a b a b"),
            parse_word("b c b c b c"),
            parse_word("a c a c"),
        ),
    )
    assert todd_coxeter(s4, []).index == 24
    assert todd_coxeter(s4, [parse_word("a"), parse_word("b")]).index == 4


def test_free_group_enumeration_hits_cap():
    free = Presentation.free(["a"])
    with pytest.raises(CapExceeded):
        todd_coxeter(free, [], cap=50)


def test_schreier_counts_and_stabilization():
    rng = np.random.default_rng(7)
    for _ in range(20):
        degree = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        images = random_transitive_images(rng, degree, k)
        names = [f"g{i}" for i in range(k)]
        rep = PermRep(degree, {n: Perm.from_images(t) for n, t in zip(names, images)})
        stab = schreier_generators(rep)
        assert len(stab.transversal) == degree
        assert len(stab.generators) == degree * (k - 1) + 1
        for s, t in enumerate(stab.transversal):
            assert rep.act_word(t)(0) == s
        for w in stab.generators:
            assert rep.act_word(w)(0) == 0


def test_stabilizer_words_push_the_source_once(monkeypatch):
    pushes = []
    real = StabilizerData.__dict__["_source"].func

    def counted(self):
        pushes.append(self)
        return real(self)

    source = cached_property(counted)
    source.__set_name__(StabilizerData, "_source")
    monkeypatch.setattr(StabilizerData, "_source", source)
    rep = PermRep(3, {"a": Perm.from_images([1, 2, 0]), "b": Perm.from_images([1, 0, 2])})
    stab = schreier_generators(rep)
    assert len(stab.transversal) == 3 and len(stab.generators) == 4
    assert len(stab.transversal) == 3
    assert len(pushes) == 1
    pushes.clear()
    # the extension runner spells the words once; the inclusion pushes the
    # stabilizer's graph into the enumerator, not its words
    assert run_bundled("two_sheet_extension").status == "ok"
    assert len(pushes) == 1


def test_schreier_requires_transitive():
    rep = PermRep(4, {"g": Perm.from_cycles(4, [(0, 1)])})
    with pytest.raises(ValueError):
        schreier_generators(rep)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_index_matches_orbit_oracle(data):
    degree = data.draw(st.integers(min_value=1, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    images = random_transitive_images(rng, degree, k)
    names = [f"g{i}" for i in range(k)]
    rep = PermRep(degree, {n: Perm.from_images(t) for n, t in zip(names, images)})
    stab = schreier_generators(rep)
    table = todd_coxeter(Presentation.free(names), stab.generators)
    assert table.index == orbit_size(images, 0) == degree
    # the enumerated action is the original one up to the coset labelling
    relabel = {table.act(0, t): s for s, t in enumerate(stab.transversal)}
    for n in names:
        for c in range(table.index):
            assert relabel[table.coset_action(n)(c)] == rep.images[n](relabel[c])


def test_subgroup_words_extra_members_keep_index():
    rep = PermRep(
        3,
        {"x": Perm.from_images([0, 2, 1]), "y": Perm.from_images([1, 0, 2])},
    )
    stab = schreier_generators(rep, gen_order=("x", "y"))
    extra = [stab.generators[0] * stab.generators[1], stab.generators[1] ** 2]
    table = todd_coxeter(Presentation.free(["x", "y"]), list(stab.generators) + extra)
    assert table.index == 3


def test_act_runs_words_left_to_right():
    table = todd_coxeter(S3, [parse_word("x")])
    w = parse_word("y x")
    c = table.act(0, w)
    assert c == table.act(table.act(0, parse_word("y")), parse_word("x"))
    assert table.act(c, Word.identity()) == c


def _random_images(rng: np.random.Generator, degree: int, k: int, blocks: int) -> list[tuple[int, ...]]:
    """k random permutations, each preserving the same split into ``blocks``
    runs of points (so the action is intransitive when ``blocks > 1``)."""
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, degree), size=blocks - 1, replace=False))
    bounds = list(zip([0] + cuts, cuts + [degree]))
    images = []
    for _ in range(k):
        img = list(range(degree))
        for lo, hi in bounds:
            img[lo:hi] = (int(x) + lo for x in rng.permutation(hi - lo))
        images.append(tuple(img))
    return images


def test_orbit_matches_raw_bfs_in_discovery_order():
    rng = np.random.default_rng(11)
    for trial in range(60):
        degree = int(rng.integers(2, 501))
        k = int(rng.integers(1, 5))
        blocks = 1 if trial % 2 else min(degree, int(rng.integers(2, 4)))
        images = _random_images(rng, degree, k, blocks)
        rep = PermRep(degree, {f"g{i}": Perm.from_images(t) for i, t in enumerate(images)})
        for point in (0, int(rng.integers(0, degree)), degree - 1):
            assert list(rep.orbit(point)) == orbit_order(images, point)
        assert rep.is_transitive() == (len(orbit_order(images, 0)) == degree)
        if blocks > 1:
            assert not rep.is_transitive()


def test_act_word_matches_raw_chase():
    rng = np.random.default_rng(12)
    for _ in range(40):
        degree = int(rng.integers(1, 60))
        k = int(rng.integers(1, 4))
        names = [f"g{i}" for i in range(k)]
        images = {n: tuple(int(x) for x in rng.permutation(degree)) for n in names}
        rep = PermRep(degree, {n: Perm.from_images(t) for n, t in images.items()})
        w = Word(tuple((names[int(rng.integers(0, k))], int(rng.integers(-3, 4))) for _ in range(8)))
        assert rep.act_word(w).images == tuple(chase(images, w, x) for x in range(degree))


def test_schreier_generators_chase_to_the_base_point():
    rng = np.random.default_rng(13)
    for _ in range(30):
        degree = int(rng.integers(1, 501))
        k = int(rng.integers(1, 5))
        names = [f"g{i}" for i in range(k)]
        images = dict(zip(names, random_transitive_images(rng, degree, k)))
        rep = PermRep(degree, {n: Perm.from_images(t) for n, t in images.items()})
        order = [names[i] for i in rng.permutation(k)]
        stab = schreier_generators(rep, gen_order=order)
        assert len(stab.generators) == degree * (k - 1) + 1
        for s, t in enumerate(stab.transversal):
            assert chase(images, t, 0) == s
        for w in stab.generators:
            assert not w.is_identity()
            assert chase(images, w, 0) == 0


def test_coset_table_rejects_unknown_generator():
    table = todd_coxeter(S3, [parse_word("x")])
    with pytest.raises(ValueError):
        table.act(0, parse_word("z"))


def _order(images: tuple[int, ...]) -> int:
    power, k = images, 1
    while power != tuple(range(len(images))):
        power, k = tuple(images[x] for x in power), k + 1
    return k


def coxeter_cases():
    """(presentation, subgroup, cap, index): S3-S6 over random <s_i s_j>."""
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        pres = coxeter_presentation(n)
        for _ in range(4):
            i, j = (int(x) for x in rng.integers(1, n, size=2))
            s_i, s_j = list(range(n)), list(range(n))
            s_i[i - 1], s_i[i] = s_i[i], s_i[i - 1]
            s_j[j - 1], s_j[j] = s_j[j], s_j[j - 1]
            index = math.factorial(n) // _order(tuple(s_j[x] for x in s_i))
            for cap in (10**6, 200, 60):
                yield pres, [parse_word(f"s{i} s{j}")], cap, index


def _random_word(rng: np.random.Generator, names: tuple[str, ...]) -> Word:
    """One to three syllables, exponents in -3..5 without 0."""
    exps = [-3, -2, -1, 1, 2, 3, 4, 5]
    return Word(tuple((names[int(rng.integers(0, len(names)))], exps[int(rng.integers(0, len(exps)))])
                      for _ in range(int(rng.integers(1, 4)))))


# Presentations of the trivial group on which the sweep defines cosets that
# later merge back into coset 0; an enumerator that loses deductions in a
# coincidence keeps defining and merging them and never finishes.
COLLAPSING = [
    (("a^2 b^2", "b^-3", "a^5"), ()),
    (("b^-2 a^-1 b", "b^2 a^-1", "a^4"), ("a^2",)),
    (("b^2 a^2 b^2", "a^-1 b^-3", "b^5"), ()),
    (("b^5 a b^2", "a^6"), ("b^4 a^-1",)),
]


def two_generator_cases():
    """(presentation, subgroup, cap, index or None): the collapsing inputs
    (index 1), then random relators plus one power relator, random subgroups."""
    names = ("a", "b")
    cases = [(tuple(map(parse_word, rels)), list(map(parse_word, sub)), 1) for rels, sub in COLLAPSING]
    rng = np.random.default_rng(2005)
    for _ in range(150):
        rels = tuple(_random_word(rng, names) for _ in range(int(rng.integers(1, 3))))
        power = Word.gen(names[int(rng.integers(0, 2))], int(rng.integers(2, 7)))
        sub = [_random_word(rng, names) for _ in range(int(rng.integers(0, 3)))]
        cases.append((rels + (power,), sub, None))
    for rels, sub, index in cases:
        for cap in (2000, 100, 40):
            yield Presentation(names, rels), sub, cap, index


@pytest.mark.parametrize("cases", [coxeter_cases, two_generator_cases])
def test_enumeration_closes_or_hits_the_cap(cases):
    for pres, sub, cap, index in cases():
        try:
            table = todd_coxeter(pres, sub, cap=cap)
        except CapExceeded:
            assert index != 1 and cap < 10**6, "one coset, or the default cap, must suffice"
            continue
        assert coset_table_closes(table, pres.relators, sub)
        for c, w in enumerate(table.rep_words):
            assert table.act(0, w) == c
        if index is not None:
            assert table.index == index


def _assert_standard(table):
    """The table is in standard form, and each representative word is the
    path to its coset in the breadth-first tree."""
    order, paths = breadth_first_tree(table.rows)
    assert order == list(range(table.index))
    for c, cols in enumerate(paths):
        want = Word(tuple((table.gen_names[col // 2], -1 if col % 2 else 1) for col in cols))
        assert table.rep_words[c] == want, (c, table.rep_words[c], want)


@pytest.mark.parametrize("cases", [coxeter_cases, two_generator_cases])
def test_tables_are_standard_with_breadth_first_rep_words(cases):
    for pres, sub, cap, _ in cases():
        try:
            table = todd_coxeter(pres, sub, cap=cap)
        except CapExceeded:
            continue
        _assert_standard(table)


def test_weak_extend_tables_are_standard():
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(40):
        degree = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        names = tuple(f"a{i}" for i in range(k))
        rho0 = PermRep(degree, {n: Perm.from_images(t) for n, t in zip(names, random_transitive_images(rng, degree, k))})
        m = int(rng.integers(2, 7))
        targets = [
            Inclusion(names, {n: Word.gen(n) for n in names}, Presentation.free(names)),
            Inclusion(names, {n: Word.gen("g", int(rng.integers(1, m))) for n in names},
                      Presentation(("g",), (Word.gen("g", m),))),
            Inclusion(names, {n: _random_word(rng, ("x", "y")) for n in names}, S3),
        ]
        for inc in targets:
            try:
                res = weak_extend(rho0, inc, surjectivity_assumed=False)
            except SurjectivityError:  # a random map into S3 need not be onto
                continue
            _assert_standard(res.table)
            checked += 1
    assert checked >= 80


def _perm_of(word: Word, n: int) -> tuple[int, ...]:
    """The permutation of a word in s1..s{n-1}, letters applied left to right."""
    x = tuple(range(n))
    for name, _ in word.letters():
        i = int(name[1:])
        s = list(range(n))
        s[i - 1], s[i] = i, i - 1
        x = tuple(s[y] for y in x)
    return x


def test_todd_coxeter_gives_the_standard_table_of_the_cosets():
    rng = np.random.default_rng(1991)
    for n in (4, 5, 6):
        pres = coxeter_presentation(n)
        names = pres.generators
        for _ in range(6):
            sub = [
                Word(tuple((names[int(rng.integers(0, n - 1))], int(rng.choice([-1, 1])))
                           for _ in range(int(rng.integers(1, 7)))))
                for _ in range(int(rng.integers(0, 3)))
            ]
            table = todd_coxeter(pres, sub)
            assert table.rows == standard_coset_table_by_permutations(n, [_perm_of(w, n) for w in sub])


def test_s7_makes_half_the_definitions_on_involution_columns(monkeypatch):
    defined = 0
    real = cosets._Enumerator._define

    def counting(self, a, k):
        nonlocal defined
        defined += 1
        real(self, a, k)

    monkeypatch.setattr(cosets._Enumerator, "_define", counting)
    assert todd_coxeter(coxeter_presentation(7)).index == 5040
    # HLT with a column and an inverse column per generator needs 12,642
    assert defined == 6032


def test_s7_hlt_trajectory_is_pinned(monkeypatch):
    """HLT on S7 over the trivial subgroup makes the definitions and
    coincidences that README and ROADMAP quote, so the one-pass relator
    sweep left the strategy as it was."""
    calls = {"_define": 0, "_coincide": 0}
    for name in calls:
        real = getattr(cosets._Enumerator, name)

        def counting(self, a, b, name=name, real=real):
            calls[name] += 1
            real(self, a, b)

        monkeypatch.setattr(cosets._Enumerator, name, counting)
    assert todd_coxeter(coxeter_presentation(7)).index == 5040
    assert calls == {"_define": 6032, "_coincide": 983}


CAP_CASES = [
    # a 6-cycle into C4 with a -> g^3: index 2, the tree defines 3 cosets per sheet
    (PermRep(6, {"a": Perm.from_images([1, 2, 3, 4, 5, 0])}),
     Inclusion(("a",), {"a": Word.gen("g", 3)}, Presentation(("g",), (Word.gen("g", 4),)))),
    # a 4-sheet cover onto S4: index 4
    (PermRep(4, {"a": Perm.from_images([1, 2, 3, 0]), "b": Perm.from_images([3, 1, 2, 0])}),
     Inclusion(("a", "b"), {"a": parse_word("s2^-1 s3 s1^-1"), "b": parse_word("s3^-1 s2 s3^-1")},
               coxeter_presentation(4))),
]


def test_a_cap_hit_in_the_graph_phase_restarts_to_the_same_answer(monkeypatch):
    """A cap below the graph phase's own peak stops the enumerator there; the
    lookahead, the compaction and a second push of the graph must give the
    uncapped rows, fiber map and action."""
    seen = {"peak": 0, "hits": 0}
    in_graph = False
    real_push, real_define = cosets._Enumerator._push_subgroup, cosets._Enumerator._define

    def push(self):
        nonlocal in_graph
        in_graph = True
        try:
            real_push(self)
        finally:
            in_graph = False

    def define(self, a, k):
        try:
            real_define(self, a, k)
        except cosets._CapHit:
            seen["hits"] += in_graph
            raise
        if in_graph:
            seen["peak"] = max(seen["peak"], self.alive)

    monkeypatch.setattr(cosets._Enumerator, "_push_subgroup", push)
    monkeypatch.setattr(cosets._Enumerator, "_define", define)
    for rho0, inc in CAP_CASES:
        seen.update(peak=0, hits=0)
        free = weak_extend(rho0, inc)
        peak = seen["peak"]
        assert seen["hits"] == 0 and peak > free.b1 + 2, (free.b1, peak)
        for cap in range((free.b1 + peak) // 2, peak):
            seen["hits"] = 0
            capped = weak_extend(rho0, inc, cap=cap)
            assert seen["hits"] >= 1, cap
            assert capped.table.rows == free.table.rows
            assert capped.fiber_map == free.fiber_map
            assert capped.rho1 == free.rho1
