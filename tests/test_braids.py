from __future__ import annotations

import gc
import itertools
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverext import braids
from coverext.braids import (
    braid_generator_names,
    braid_presentation,
    hom_search,
    minimal_extension_degree,
    relator_holds_pointwise,
    standard_rep,
)
from coverext.errors import CapExceeded
from coverext.perms import Perm, inverse_images
from coverext.reps import PermRep, _spell

from oracles import _braid_relations, braid_homs_by_chase, chase, minimal_extension_by_product, orbit_size


def test_generator_names_and_relator_count():
    assert braid_generator_names(4) == ("s1", "s2", "s3")
    for m in range(2, 8):
        pres = braid_presentation(m)
        k = m - 1
        assert len(pres.generators) == k
        assert len(pres.relators) == k * (k - 1) // 2  # one per generator pair


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7))
def test_standard_rep_satisfies_relators(m):
    rep = standard_rep(m)
    assert rep.degree == m
    assert rep.images["s1"] == Perm.transposition(m, 0, 1)
    for r in braid_presentation(m).relators:
        assert rep.act_word(r).is_identity()
    assert rep.is_transitive()


def test_pointwise_evaluator_matches_perm_composition():
    rng = np.random.default_rng(3)
    pres = braid_presentation(5)
    names = braid_generator_names(5)
    for _ in range(40):
        degree = int(rng.integers(2, 6))
        tuples = {n: tuple(int(x) for x in rng.permutation(degree)) for n in names}
        perms = {n: Perm.from_images(t) for n, t in tuples.items()}
        for rel in pres.relators:
            via_tuples = relator_holds_pointwise(tuples, rel, degree)
            via_perms = perms_relator_check(perms, rel, degree)
            assert via_tuples == via_perms


def test_relators_are_the_braid_relations_in_order():
    for m in range(1, 11):
        relators = braid_presentation(m).relators
        want = {lhs * rhs.inverse() for lhs, rhs in _braid_relations(m)}
        assert len(relators) == len(set(relators)) == len(want) and set(relators) == want
        braid = [(i, i + 1) for i in range(1, m - 1)]
        far = [(i, j) for i in range(1, m - 1) for j in range(i + 2, m)]
        pairs = [tuple(sorted(int(n[1:]) for n in r.generators())) for r in relators]
        assert pairs == braid + far
        assert all(r.length() == 6 for r in relators[: len(braid)])


def test_point_chasing_reads_only_the_generator_columns():
    rng = np.random.default_rng(21)
    names = braid_generator_names(5)
    relators = braids._braid_relators(5)
    verdicts = set()
    for _ in range(60):
        degree = int(rng.integers(2, 6))
        images = {n: tuple(int(x) for x in rng.permutation(degree)) for n in names}
        even = {2 * g: images[n] for g, n in enumerate(names)}  # no inverse column at all
        words = relators + [tuple(int(c) for c in rng.integers(0, 8, size=int(rng.integers(1, 9))))]
        for cols, word in zip(words, _spell(words, names)):
            holds = braids._fixes_every_point(even, cols, degree)
            assert holds == all(chase(images, word, x) == x for x in range(degree))
            verdicts.add(holds)
    assert verdicts == {True, False}


def perms_relator_check(perms, rel, degree):
    acc = Perm.identity(degree)
    for name, step in rel.letters():
        acc = acc * (perms[name] if step > 0 else perms[name].inverse())
    return acc.is_identity()


def test_hom_search_3_to_2_all_solutions():
    sols = hom_search(3, 2)
    assert len(sols) == 2
    assert sols[0] == {"s1": Perm.identity(2), "s2": Perm.identity(2)}
    assert sols[1] == {"s1": Perm.from_images([1, 0]), "s2": Perm.from_images([1, 0])}


def test_hom_search_3_to_3_matches_brute_force():
    sols = hom_search(3, 3)
    brute = []
    for a, b in itertools.product(itertools.permutations(range(3)), repeat=2):
        pa, pb = Perm.from_images(a), Perm.from_images(b)
        if pa * pb * pa == pb * pa * pb:
            brute.append({"s1": pa, "s2": pb})
    assert len(sols) == len(brute) == 12
    key = lambda sol: tuple(sol[n].images for n in ("s1", "s2"))
    assert sorted(map(key, sols)) == sorted(map(key, brute))


def test_hom_search_pinned_4_to_3():
    pinned = {"s1": Perm.from_images([1, 0, 2]), "s2": Perm.from_images([0, 2, 1])}
    sols = hom_search(4, 3, pinned)
    assert len(sols) == 1
    assert sols[0]["s1"] == pinned["s1"]
    assert sols[0]["s2"] == pinned["s2"]
    assert sols[0]["s3"] == Perm.from_images([1, 0, 2])
    # every returned assignment satisfies the full relator set
    pres = braid_presentation(4)
    rep = PermRep(3, sols[0])
    for r in pres.relators:
        assert rep.act_word(r).is_identity()


def test_hom_search_cap():
    with pytest.raises(CapExceeded):
        hom_search(6, 5, cap=1000)


def test_minimal_extension_of_standard_three_strand():
    res = minimal_extension_degree(standard_rep(3), 4)
    assert res.degree == 3
    assert res.images["s1"] == Perm.from_images([1, 0, 2])
    assert res.images["s2"] == Perm.from_images([0, 2, 1])
    assert res.images["s3"] == Perm.from_images([1, 0, 2])
    assert list(res.images) == ["s1", "s2", "s3"]
    rep = PermRep(3, dict(res.images))
    assert rep.is_transitive()
    for r in braid_presentation(4).relators:
        assert rep.act_word(r).is_identity()


def test_minimal_extension_two_strand():
    res = minimal_extension_degree(standard_rep(2), 3)
    assert res.degree == 2
    assert res.images["s1"] == res.images["s2"] == Perm.from_images([1, 0])
    assert list(res.images) == ["s1", "s2"]


def test_minimal_extension_cap():
    with pytest.raises(CapExceeded):
        minimal_extension_degree(standard_rep(3), 4, cap_degree=2)


def test_minimal_extension_input_validation():
    rep = PermRep(3, {"t1": Perm.from_images([1, 0, 2]), "t2": Perm.from_images([0, 2, 1])})
    with pytest.raises(ValueError):
        minimal_extension_degree(rep, 4)  # wrong generator names
    intransitive = PermRep(3, {"s1": Perm.identity(3), "s2": Perm.identity(3)})
    with pytest.raises(ValueError):
        minimal_extension_degree(intransitive, 4)


_PINS = np.random.default_rng(9)  # seeded pins for the degree-4 cases below


def _braid_homs_brute(m, degree, pinned):
    """Every assignment checked against all relators by Perm arithmetic."""
    names = [f"s{i}" for i in range(1, m)]
    sym = [Perm(p) for p in itertools.permutations(range(degree))]
    choices = [[pinned[n]] if n in pinned else sym for n in names]
    out = set()
    for combo in itertools.product(*choices):
        assignment = dict(zip(names, combo))
        if all(perms_relator_check(assignment, r, degree) for r in braid_presentation(m).relators):
            out.add(tuple(p.images for p in combo))
    return out


@pytest.mark.parametrize(
    "m, degree, pinned",
    [
        (4, 3, {}),
        (4, 3, {"s2": Perm.from_images([2, 1, 0])}),
        (4, 3, {"s1": Perm.from_images([1, 0, 2]), "s3": Perm.from_images([0, 2, 1])}),
        (3, 3, {"s1": Perm.from_images([1, 0, 2]), "s2": Perm.from_images([0, 2, 1])}),
        (3, 3, {"s1": Perm.from_images([1, 0, 2]), "s2": Perm.from_images([1, 0, 2])}),
        (3, 4, {}),
        (4, 4, {"s2": Perm.from_images(_PINS.permutation(4))}),
        (4, 4, {"s1": Perm.from_images(_PINS.permutation(4)), "s3": Perm.from_images(_PINS.permutation(4))}),
        (4, 4, {"s1": Perm.from_images([1, 0, 2, 3]), "s3": Perm.from_images([0, 1, 3, 2])}),
        (3, 5, {}),
    ],
)
def test_hom_search_matches_brute_force_with_pins(m, degree, pinned):
    sols = hom_search(m, degree, pinned)
    got = {tuple(sol[f"s{i}"].images for i in range(1, m)) for sol in sols}
    assert len(got) == len(sols)
    assert got == _braid_homs_brute(m, degree, pinned)


def _named(columns):
    """The generator images among evaluator columns: column ``2g`` is ``s{g + 1}``."""
    return {f"s{c // 2 + 1}": img for c, img in columns.items() if c % 2 == 0}


def test_hom_search_judges_each_candidate_once(monkeypatch):
    calls = []
    real = braids._check_both_ways

    def counting(columns, letters, degree):
        calls.append((tuple(sorted(columns.items())), tuple(letters)))
        return real(columns, letters, degree)

    monkeypatch.setattr(braids, "_check_both_ways", counting)
    sols = hom_search(3, 3)
    assert len(sols) == 12
    # one braid relator, judged once for each s2 in the class of s1, with s1
    # only on the first member of its class: classes of sizes 1, 3 and 2 give
    # 1 + 3 + 2; the other solutions are relabelled copies, not judged again
    assert len(calls) == len(set(calls)) == 6
    firsts = {members[0] for members in braids._conjugacy_classes(3).values()}
    assert {dict(columns)[0] for columns, _ in calls} == firsts
    calls.clear()
    # a pinned-only relator that fails is judged once and ends the search
    pinned = {"s1": Perm.from_images([1, 0, 2]), "s3": Perm.from_images([0, 2, 1])}
    assert hom_search(4, 3, pinned) == ()
    assert len(calls) == 1


def test_hom_search_raises_when_the_evaluators_disagree(monkeypatch):
    real = braids._composes_to_identity
    # a genuine solution with s1 on the first transposition, the one the
    # search judges; the solutions relabelled from it are never judged
    odd = {"s1": (0, 2, 1), "s2": (1, 0, 2)}

    def flipped(columns, letters, degree):
        holds = real(columns, letters, degree)
        return not holds if _named(columns) == odd else holds

    monkeypatch.setattr(braids, "_composes_to_identity", flipped)
    with pytest.raises(RuntimeError, match="disagree"):
        hom_search(3, 3)


@pytest.mark.parametrize("m, degree", [(2, 4), (3, 3), (3, 4), (4, 4), (3, 5)])
def test_unpinned_hom_search_lists_the_chase_oracle_in_sorted_order(m, degree):
    sols = hom_search(m, degree)
    assert all(list(sol) == list(braid_generator_names(m)) for sol in sols)
    got = tuple(tuple(sol[f"s{i}"].images for i in range(1, m)) for sol in sols)
    assert got == tuple(sorted(braid_homs_by_chase(m, degree)))


def test_relabelling_conjugates_the_class_representative_onto_each_member():
    for degree in range(6):
        for members in braids._conjugacy_classes(degree).values():
            r = members[0]
            for x in members:
                h = braids._relabelling(braids._cycle_sequence(r), braids._cycle_sequence(x))
                assert sorted(h) == list(range(degree))
                assert all(x[h[p]] == h[r[p]] for p in range(degree))


def test_unpinned_hom_search_3_to_6_is_complete_and_fast():
    t0 = perf_counter()
    sols = hom_search(3, 6)
    elapsed = perf_counter() - t0
    tuples = [(sol["s1"].images, sol["s2"].images) for sol in sols]
    assert len(tuples) == len(set(tuples)) == 6480
    assert tuples == sorted(tuples)
    for s1, s2 in tuples:
        columns = {0: s1, 1: inverse_images(s1), 2: s2, 3: inverse_images(s2)}
        assert all(braids._check_both_ways(columns, r, 6) for r in braids._braid_relators(3))
    # judging every s2 for every s1 took 0.54-0.62 s on a 2-vCPU Xeon
    assert elapsed < 0.3


@pytest.mark.parametrize("name", ["s0", "s3", "s01", "t1", "s", "s1 "])
def test_hom_search_rejects_unknown_pinned_names(name):
    with pytest.raises(ValueError, match="not one of"):
        hom_search(3, 2, {name: Perm.identity(2)})


def test_hom_search_cap_is_checked_before_any_building():
    t0 = perf_counter()
    for m, degree in ((3000, 2), (10**6, 3), (3, 10**6)):
        with pytest.raises(CapExceeded):
            hom_search(m, degree)
    assert perf_counter() - t0 < 1.0


def test_hom_search_with_every_generator_pinned_checks_only_relators():
    t0 = perf_counter()
    sol = hom_search(2, 9, {"s1": Perm.identity(9)})
    assert sol == ({"s1": Perm.identity(9)},)
    good = {f"s{i}": Perm.transposition(12, i - 1, i) for i in (1, 2, 3)}
    assert hom_search(4, 12, good) == (good,)
    bad = dict(good, s3=Perm.transposition(12, 1, 2))  # now s1 and s3 do not commute
    assert hom_search(4, 12, bad) == ()
    assert perf_counter() - t0 < 1.0


def test_trivial_targets_match_brute_force():
    # S_0 and S_1 are trivial: one homomorphism, every relator holds
    for m in range(1, 41):
        for degree in (0, 1):
            pinned = {"s2": Perm.identity(degree)} if m > 2 else {}
            for pins in ({}, pinned):
                sols = hom_search(m, degree, pins)
                got = {tuple(sol[f"s{i}"].images for i in range(1, m)) for sol in sols}
                assert len(sols) == 1 and sorted(sols[0]) == sorted(braid_generator_names(m))
                assert got == braid_homs_by_chase(m, degree)


def test_trivial_targets_answer_without_the_presentation(monkeypatch):
    def refuse(m):
        raise AssertionError(f"braid_presentation({m}) built for a trivial target")

    monkeypatch.setattr(braids, "braid_presentation", refuse)
    names = braid_generator_names(2000)
    t0 = perf_counter()
    for degree in (0, 1):
        assert hom_search(2000, degree) == (dict.fromkeys(names, Perm.identity(degree)),)
    assert hom_search(2000, 1, {"s1999": Perm.identity(1)}) == (dict.fromkeys(names, Perm.identity(1)),)
    with pytest.raises(ValueError, match="not one of"):
        hom_search(2000, 1, {"s2000": Perm.identity(1)})
    with pytest.raises(ValueError, match="degree"):
        hom_search(2000, 1, {"s1": Perm.identity(2)})
    one_sheet = PermRep(1, {"s1": Perm.identity(1), "s2": Perm.identity(1)})
    res = minimal_extension_degree(one_sheet, 2000)
    assert res.degree == 1 and res.images == dict.fromkeys(names, Perm.identity(1))
    assert perf_counter() - t0 < 1.0


def test_searches_build_no_presentation(monkeypatch):
    def refuse(m):
        raise AssertionError(f"braid_presentation({m}) built by a search")

    monkeypatch.setattr(braids, "braid_presentation", refuse)
    assert len(hom_search(4, 4)) == 144
    t0 = perf_counter()
    res = minimal_extension_degree(standard_rep(2), 400)
    assert perf_counter() - t0 < 1.5
    assert res.degree == 2 and list(res.images) == list(braid_generator_names(400))
    assert set(res.images.values()) == {Perm.transposition(2, 0, 1)}


def test_hom_search_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="non-negative"):
        hom_search(3, -3)


def _with_pins(brute, pinned):
    """The brute-force solutions that agree with every pin, in sorted order."""
    return sorted(t for t in brute if all(t[int(n[1:]) - 1] == p.images for n, p in pinned.items()))


def test_hom_search_matches_the_chase_oracle_under_random_pins():
    rng = np.random.default_rng(13)
    for m in (2, 3, 4):
        names = list(braid_generator_names(m))
        for degree in (1, 2, 3, 4):
            brute = braid_homs_by_chase(m, degree)
            sym = list(itertools.permutations(range(degree)))
            pin_sets = [{}]
            for _ in range(6):  # random images on a random set of generators
                chosen = rng.choice(names, size=int(rng.integers(1, m)), replace=False)
                pin_sets.append({str(n): Perm(sym[rng.integers(len(sym))]) for n in chosen})
            for _ in range(4):  # part of a genuine solution, so some survive
                sol = sorted(brute)[rng.integers(len(brute))]
                chosen = rng.choice(names, size=int(rng.integers(1, m)), replace=False)
                pin_sets.append({str(n): Perm(sol[int(n[1:]) - 1]) for n in chosen})
            if m > 2 and degree > 1:  # two pins of different cycle types: no solution
                a, b = (str(n) for n in rng.choice(names, size=2, replace=False))
                pin_sets.append({a: Perm.identity(degree), b: Perm.transposition(degree, 0, 1)})
                assert hom_search(m, degree, pin_sets[-1]) == ()
            for pinned in pin_sets:
                sols = hom_search(m, degree, pinned)
                want = _with_pins(brute, pinned)
                assert [tuple(sol[n].images for n in names) for sol in sols] == want
                free = [n for n in names if n not in pinned]
                assert all(list(sol) == list(pinned) + free for sol in sols)


def test_minimal_extension_matches_the_product_oracle():
    rng = np.random.default_rng(17)
    cases = 0
    for m_small, m_big, b0, cap_degree, draws in (
        (2, 3, 2, 4, 4),
        (2, 3, 3, 5, 4),
        (3, 4, 3, 5, 4),
        (3, 4, 4, 5, 4),
        (2, 4, 3, 4, 4),
        (3, 5, 3, 5, 1),  # no extension on 3 or 4 sheets
    ):
        names = list(braid_generator_names(m_small))
        actions = sorted(t for t in braid_homs_by_chase(m_small, b0) if orbit_size(list(t), 0) == b0)
        for i in rng.choice(len(actions), size=min(draws, len(actions)), replace=False):
            images = dict(zip(names, actions[i]))
            want = minimal_extension_by_product(images, b0, m_big, cap_degree)
            rho0 = PermRep(b0, {n: Perm(img) for n, img in images.items()})
            if want is None:
                with pytest.raises(CapExceeded):
                    minimal_extension_degree(rho0, m_big, cap_degree=cap_degree)
                continue
            res = minimal_extension_degree(rho0, m_big, cap_degree=cap_degree)
            assert (res.degree, [(n, p.images) for n, p in res.images.items()]) == (want[0], list(want[1].items()))
            cases += 1
    assert cases >= 10


def test_minimal_extension_judges_new_generators_in_the_class_of_s1(monkeypatch):
    calls = []
    real = braids._check_both_ways

    def recording(columns, letters, degree):
        calls.append(_named(columns))
        return real(columns, letters, degree)

    monkeypatch.setattr(braids, "_check_both_ways", recording)
    rho0 = PermRep(4, {"s1": Perm((0, 2, 3, 1)), "s2": Perm((1, 3, 2, 0))})
    with pytest.raises(CapExceeded, match="degree cap 6"):
        minimal_extension_degree(rho0, 5, cap_degree=6)
    # on 6 sheets s1 lifts with both tails, and each lift keeps its own class
    assert {c["s1"][4:] for c in calls if len(c["s1"]) == 6} == {(4, 5), (5, 4)}
    for c in calls:
        assert {Perm(c[n]).cycle_type() for n in ("s3", "s4") if n in c} <= {Perm(c["s1"]).cycle_type()}


def test_minimal_extension_refuses_to_list_a_huge_symmetric_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("S_11 listed")

    monkeypatch.setattr(braids, "_conjugacy_classes", refuse)
    cycle = PermRep(11, {"s1": Perm(tuple(range(1, 11)) + (0,))})
    t0 = perf_counter()
    with pytest.raises(CapExceeded, match="degree 11"):
        minimal_extension_degree(cycle, 3, cap_degree=12)
    assert perf_counter() - t0 < 1.0


def test_searches_leave_no_reference_cycles():
    """The depth-first search frees its filed relators and columns by
    reference count, also when the caller stops at the first hit, so no later
    call pays for collecting them."""
    gc.collect()
    gc.disable()
    try:
        assert minimal_extension_degree(standard_rep(2), 400).degree == 2
        after_extension = gc.collect()
        everything = list(itertools.permutations(range(3)))
        search = braids._assignments(3, braids._braid_relators(5), {}, [(g, everything) for g in range(4)])
        next(search)
        del search
        after_early_stop = gc.collect()
    finally:
        gc.enable()
    assert after_extension < 1000
    assert after_early_stop < 1000
