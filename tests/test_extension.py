from __future__ import annotations

import itertools
import tracemalloc
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverext.cosets import Presentation, schreier_generators, todd_coxeter
from coverext.errors import CapExceeded, SurjectivityError
from coverext.extension import (
    Inclusion,
    abelianized_surjective,
    maximality_check,
    two_sheet_unique,
    weak_extend,
)
from coverext.perms import Perm
from coverext.reps import PermRep
from coverext.scenarios import run_payload
from coverext.words import Word, format_word, parse_word

from oracles import (
    coxeter_presentation,
    maximality_by_bfs,
    random_transitive_images,
    schreier_words,
    substitute_iterated,
)


def example3_input():
    rho0 = PermRep(
        3,
        {"alpha1": Perm.from_images([0, 2, 1]), "alpha2": Perm.from_images([1, 0, 2])},
    )
    inc = Inclusion(
        ("alpha1", "alpha2"),
        {"alpha1": parse_word("gamma"), "alpha2": parse_word("gamma^-1")},
        Presentation.free(["gamma"]),
    )
    return rho0, inc


def two_sheet_input():
    flip = Perm.from_images([1, 0])
    rho0 = PermRep(2, {"alpha1": flip, "alpha2": flip})
    inc = Inclusion(
        ("alpha1", "alpha2"),
        {"alpha1": parse_word("gamma"), "alpha2": parse_word("gamma^-1")},
        Presentation.free(["gamma"]),
    )
    return rho0, inc


def test_three_sheet_cover_collapses_to_one():
    rho0, inc = example3_input()
    res = weak_extend(rho0, inc)
    assert res.b0 == 3 and res.b1 == 1
    assert not res.strong
    assert res.fiber_map == (0, 0, 0)
    assert res.abelianization_surjective is True
    assert [format_word(w) for w in res.stabilizer.transversal] == ["", "alpha2", "alpha2 alpha1"]
    assert [format_word(w) for w in res.stabilizer.generators] == [
        "alpha1",
        "alpha2^2",
        "alpha2 alpha1^2 alpha2^-1",
        "alpha2 alpha1 alpha2 alpha1^-1 alpha2^-1",
    ]
    assert res.path_classes_equivalent(parse_word(""), parse_word("gamma"))


def test_two_sheet_cover_extends_strongly():
    rho0, inc = two_sheet_input()
    res = weak_extend(rho0, inc)
    assert res.b0 == res.b1 == 2
    assert res.strong
    assert res.fiber_map == (0, 1)
    assert res.sheet_of_path(parse_word("")) == 0
    assert res.sheet_of_path(parse_word("gamma")) == 1
    assert not res.path_classes_equivalent(parse_word(""), parse_word("gamma"))
    assert res.path_classes_equivalent(parse_word("gamma^2"), parse_word(""))
    assert res.rho1.images["gamma"] == Perm.from_images([1, 0])


def test_alphabet_and_transitivity_guards():
    rho0, inc = two_sheet_input()
    bad = PermRep(2, {"alpha1": Perm.from_images([1, 0])})
    with pytest.raises(ValueError):
        weak_extend(bad, inc)
    intransitive = PermRep(
        2, {"alpha1": Perm.identity(2), "alpha2": Perm.identity(2)}
    )
    with pytest.raises(ValueError):
        weak_extend(intransitive, inc)


def test_abelianization_check():
    _, inc = two_sheet_input()
    assert abelianized_surjective(inc)
    rho0 = PermRep(
        2,
        {"alpha1": Perm.from_images([1, 0]), "alpha2": Perm.from_images([1, 0])},
    )
    klein = Presentation(
        ("gamma", "delta"),
        (
            parse_word("gamma^2"),
            parse_word("delta^2"),
            parse_word("gamma delta gamma^-1 delta^-1"),
        ),
    )
    partial = Inclusion(
        ("alpha1", "alpha2"),
        {"alpha1": parse_word("gamma"), "alpha2": parse_word("gamma")},
        klein,
    )
    assert not abelianized_surjective(partial)
    with pytest.raises(SurjectivityError):
        weak_extend(rho0, partial, surjectivity_assumed=True)
    # without the assumption, enumeration still runs and the fiber map
    # genuinely misses the sheets over the unreached generator
    with pytest.raises(SurjectivityError, match="misses"):
        weak_extend(rho0, partial, surjectivity_assumed=False)
    # a non-transitive cover is refused as such before the abelianization test
    intransitive = PermRep(2, {"alpha1": Perm.identity(2), "alpha2": Perm.identity(2)})
    with pytest.raises(ValueError, match="transitive"):
        weak_extend(intransitive, partial)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_identity_inclusion_reproduces_cover(data):
    degree = data.draw(st.integers(min_value=1, max_value=6))
    k = data.draw(st.integers(min_value=1, max_value=3))
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    images = random_transitive_images(rng, degree, k)
    names = tuple(f"g{i}" for i in range(k))
    rho0 = PermRep(degree, {n: Perm.from_images(t) for n, t in zip(names, images)})
    inc = Inclusion(
        names,
        {n: parse_word(n) for n in names},
        Presentation.free(names),
    )
    res = weak_extend(rho0, inc)
    assert res.b1 == res.b0 == degree
    assert res.strong
    assert sorted(res.fiber_map) == list(range(degree))
    # extended action is the original one relabelled by the fiber map
    for n in names:
        for s in range(degree):
            assert res.fiber_map[rho0.images[n](s)] == res.rho1.images[n](res.fiber_map[s])


def test_weak_extend_10k_sheets_within_budget():
    # The group layers are linear in the sheet count; a quadratic loop over
    # sheets would take minutes here.
    rng = np.random.default_rng(10_000)
    names = ("a1", "a2")
    images = random_transitive_images(rng, 10_000, 2)
    rho0 = PermRep(10_000, {n: Perm.from_images(t) for n, t in zip(names, images)})
    inc = Inclusion(names, {n: parse_word(n) for n in names}, Presentation.free(names))
    t0 = perf_counter()
    res = weak_extend(rho0, inc)
    dt = perf_counter() - t0
    assert res.b1 == res.b0 == 10_000 and res.strong
    assert sorted(res.fiber_map) == list(range(10_000))
    assert len(res.stabilizer.generators) == 10_001
    assert dt < 10.0, f"weak_extend on 10k sheets took {dt:.1f}s"


def test_weak_extend_of_a_deep_tree_is_linear_in_time_and_memory():
    # A single 8000-cycle has a breadth-first tree 4000 deep.  Pushing every
    # transversal word through the inclusion would hold words of that length
    # for each sheet, about 270 MB.
    n = 8000
    rho0 = PermRep(n, {"a": Perm.from_images([(i + 1) % n for i in range(n)])})
    inc = Inclusion(("a",), {"a": parse_word("a")}, Presentation.free(["a"]))
    t0 = perf_counter()
    res = weak_extend(rho0, inc)
    dt = perf_counter() - t0
    assert res.b1 == n and res.strong
    assert dt < 0.5, f"weak_extend of an {n}-cycle took {dt:.2f}s"
    tracemalloc.start()
    try:
        weak_extend(rho0, inc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"weak_extend of an {n}-cycle peaked at {peak / 1e6:.0f} MB"


def _two_sheet_survivors_by_brute_force(k):
    """Every assignment of S_2 to k generators with no generator trivial
    whose group moves point 0."""
    swap, identity = (1, 0), (0, 1)
    return sum(
        identity not in a and any(t[0] == 1 for t in a)
        for a in itertools.product((identity, swap), repeat=k)
    )


def test_two_sheet_uniqueness_matches_brute_force():
    for k in range(1, 11):
        assert two_sheet_unique(k) == (_two_sheet_survivors_by_brute_force(k) == 1)


def _uniqueness_payload(k):
    """A two-sheet extension scenario that also checks uniqueness up to k generators."""
    return {
        "kind": "extension",
        "rho0": {"degree": 2, "images": {"alpha1": [1, 0], "alpha2": [1, 0]}},
        "inclusion": {
            "images": {"alpha1": "gamma", "alpha2": "gamma^-1"},
            "target": {"generators": ["gamma"], "relators": []},
        },
        "check_two_sheet_uniqueness_up_to": k,
    }


def test_two_sheet_uniqueness_to_64_generators_within_budget():
    t0 = perf_counter()
    report = run_payload(_uniqueness_payload(64))
    dt = perf_counter() - t0
    assert report.results["two_sheet_unique_up_to"] == {"k_max": 64, "all_unique": True}
    assert dt < 1.0, f"two-sheet uniqueness up to 64 generators took {dt:.2f}s"


def test_two_sheet_uniqueness_to_100000_generators_within_budget():
    t0 = perf_counter()
    report = run_payload(_uniqueness_payload(100000))
    dt = perf_counter() - t0
    assert report.results["two_sheet_unique_up_to"] == {"k_max": 100000, "all_unique": True}
    assert dt < 1.0, f"two-sheet uniqueness up to 100000 generators took {dt:.2f}s"


def test_two_sheet_uniqueness_range():
    assert all(two_sheet_unique(k) for k in range(1, 9))
    with pytest.raises(ValueError):
        two_sheet_unique(0)


def test_maximality_verdicts():
    rho0, inc = two_sheet_input()
    res = weak_extend(rho0, inc)

    same = maximality_check(res, res.rho1)
    assert same.is_extension and same.equivalent
    assert same.conjugator is not None

    trivial = maximality_check(res, PermRep(1, {"gamma": Perm.identity(1)}))
    assert trivial.is_extension and not trivial.equivalent
    assert trivial.quotient_map == (0, 0)

    bigger = maximality_check(res, PermRep(3, {"gamma": Perm.from_cycles(3, [(0, 1, 2)])}))
    assert not bigger.is_extension and not bigger.degree_ok

    with pytest.raises(CapExceeded):
        maximality_check(res, PermRep(9, {"gamma": Perm.identity(9)}))

    with pytest.raises(ValueError):
        maximality_check(res, PermRep(2, {"wrong": Perm.identity(2)}))


def test_maximality_respects_relators():
    rho0 = PermRep(2, {"alpha1": Perm.from_images([1, 0]), "alpha2": Perm.from_images([1, 0])})
    target = Presentation(("gamma",), (parse_word("gamma^2"),))
    inc = Inclusion(
        ("alpha1", "alpha2"),
        {"alpha1": parse_word("gamma"), "alpha2": parse_word("gamma^-1")},
        target,
    )
    res = weak_extend(rho0, inc)
    assert res.b1 == 2
    relator_violator = PermRep(3, {"gamma": Perm.from_cycles(3, [(0, 1, 2)])})
    assert not maximality_check(res, relator_violator).is_extension
    # identity satisfies gamma^2, but an equivariant image of the transitive
    # coset action would be constant, hence never onto two sheets
    constant_image = PermRep(2, {"gamma": Perm.identity(2)})
    assert not maximality_check(res, constant_image).is_extension


def _random_word(rng, names, length):
    letters = [(names[int(rng.integers(0, len(names)))], int(rng.choice([-1, 1]))) for _ in range(length)]
    return Word(tuple(letters))


def _random_perm(rng, degree):
    return Perm.from_images([int(x) for x in rng.permutation(degree)])


def _relabelled(rep, rng):
    """The same action on sheets renamed by a random permutation."""
    sigma = _random_perm(rng, rep.degree)
    return PermRep(rep.degree, {n: sigma.inverse() * p * sigma for n, p in rep.images.items()})


def _coset_action(target, subgroup, rng):
    """The target's action on the cosets of ``subgroup``, relabelled, or None
    when the enumeration needs more than 50 live cosets."""
    try:
        return _relabelled(todd_coxeter(target, subgroup, cap=50).to_rep(), rng)
    except CapExceeded:
        return None


def _maximality_cases():
    """(result, candidate) pairs.  Each target, F2, S4 = <a, b | a^4, b^3,
    (ab)^2> (a of order 4, so its inverse column differs from its image) or
    S3 = <a, b | a^3, b^2, (ab)^2>, acts on up to eight sheets, randomly or
    on the cosets of a random subgroup; a cover on x, y, z extends through
    x -> a, y -> b, z -> w, with z acting as w does or, one time in four, at
    random.  Candidates: the extension relabelled, the coset actions of its
    stabilizer with a random word added (quotients) and of random subgroups,
    the extension with one image twisted, and a random action."""
    rng = np.random.default_rng(1205)
    names = ("a", "b")
    targets = [
        Presentation.free(names),
        Presentation(names, (parse_word("a^4"), parse_word("b^3"), parse_word("a b a b"))),
        Presentation(names, (parse_word("a^3"), parse_word("b^2"), parse_word("a b a b"))),
    ]
    source = ("x", "y", "z")
    for trial in range(90):
        target = targets[trial % 3]
        if target.relators:
            action = _coset_action(target, [_random_word(rng, names, int(rng.integers(1, 4)))], rng)
            if action is None or action.degree > 8:
                continue
        else:
            degree = int(rng.integers(1, 9))
            images = random_transitive_images(rng, degree, 2)
            action = PermRep(degree, dict(zip(names, map(Perm.from_images, images))))
        w = _random_word(rng, names, int(rng.integers(0, 4)))
        z = action.act_word(w) if rng.random() < 0.75 else _random_perm(rng, action.degree)
        rho0 = PermRep(action.degree, {"x": action.images["a"], "y": action.images["b"], "z": z})
        res = weak_extend(rho0, Inclusion(source, {"x": Word.gen("a"), "y": Word.gen("b"), "z": w}, target))
        rho1 = res.rho1
        stabilizer = list(schreier_generators(rho1).generators)
        candidates = [
            _relabelled(rho1, rng),
            _coset_action(target, stabilizer + [_random_word(rng, names, int(rng.integers(1, 4)))], rng),
            _coset_action(target, [_random_word(rng, names, 3) for _ in range(2)], rng),
        ]
        if rho1.degree > 1:
            i = int(rng.integers(0, rho1.degree))
            twist = Perm.transposition(rho1.degree, i, (i + 1) % rho1.degree)
            candidates.append(PermRep(rho1.degree, {**rho1.images, "a": rho1.images["a"] * twist}))
        d = int(rng.integers(1, 9))
        candidates.append(PermRep(d, {n: _random_perm(rng, d) for n in names}))
        for cand in candidates:
            if cand is not None and cand.degree <= 8:
                yield res, cand


def test_maximality_check_matches_the_breadth_first_reference():
    """All five verdict fields equal the reference search's, on extensions
    and non-extensions whose relators hold."""
    seen = {"equivalent": 0, "quotient": 0, "not-onto-or-not-equivariant": 0}
    for res, cand in _maximality_cases():
        v = maximality_check(res, cand)
        conjugator = v.conjugator and v.conjugator.images
        assert (v.is_extension, v.degree_ok, v.equivalent, v.quotient_map, conjugator) == maximality_by_bfs(res, cand)
        seen["quotient"] += v.is_extension and not v.equivalent
        seen["equivalent"] += v.equivalent
        relators_hold = all(cand.act_word(r).is_identity() for r in res.inclusion.target.relators)
        seen["not-onto-or-not-equivariant"] += relators_hold and not v.is_extension
    assert min(seen.values()) >= 20, seen


def _parity_cases():
    """(rho0, inclusion): seeded transitive covers into a free group (images
    moved by random Nielsen moves, so the map is onto), a cyclic group
    <gamma | gamma^m> with random exponents, and S4 (Coxeter presentation)
    with random short word images."""
    rng = np.random.default_rng(2005)
    s4 = coxeter_presentation(4)
    for trial in range(90):
        degree = int(rng.integers(1, 31))
        k = int(rng.integers(1, 4))
        names = tuple(f"a{i + 1}" for i in range(k))
        images = random_transitive_images(rng, degree, k)
        rho0 = PermRep(degree, {n: Perm.from_images(t) for n, t in zip(names, images)})
        if trial % 3 == 0:
            target = Presentation.free([f"x{i}" for i in range(k)])
            words = [Word.gen(f"x{i}") for i in range(k)]
            for _ in range(int(rng.integers(0, 6))):
                i, j = (int(x) for x in rng.integers(0, k, size=2))
                if i != j:
                    words[i] = words[i] * words[j] ** int(rng.choice([-1, 1]))
        elif trial % 3 == 1:
            target = Presentation(("gamma",), (Word.gen("gamma", int(rng.integers(2, 8))),))
            words = [Word.gen("gamma", int(rng.integers(-4, 5))) for _ in names]
        else:
            target = s4
            words = [
                Word(tuple((f"s{int(rng.integers(1, 4))}", int(rng.choice([-2, -1, 1, 2])))
                           for _ in range(int(rng.integers(0, 4)))))
                for _ in names
            ]
        yield rho0, Inclusion(names, dict(zip(names, words)), target)


def test_weak_extend_matches_the_word_pipeline():
    """Stabilizer words, pushed images, enumeration and fiber map built one
    Word at a time (no columns) give the same table, fiber map and action."""
    checked = missed = 0
    for rho0, inc in _parity_cases():
        names = inc.source_generators
        images = {n: rho0.images[n].images for n in names}
        transversal, generators = schreier_words(images, names)
        table = todd_coxeter(inc.target, [substitute_iterated(w, dict(inc.images)) for w in generators])
        fiber_map = tuple(table.act(0, substitute_iterated(t, dict(inc.images))) for t in transversal)
        if set(fiber_map) != set(range(table.index)):
            missed += 1
            with pytest.raises(SurjectivityError, match="misses"):
                weak_extend(rho0, inc, surjectivity_assumed=False)
            continue
        res = weak_extend(rho0, inc, surjectivity_assumed=False)
        checked += 1
        assert res.table.rows == table.rows
        assert res.table.rep_words == table.rep_words
        assert res.fiber_map == fiber_map
        assert res.rho1 == table.to_rep()
        assert list(res.stabilizer.transversal) == transversal
        assert list(res.stabilizer.generators) == generators
    assert checked >= 45 and missed >= 5, (checked, missed)


def test_weak_extend_builds_no_word_per_sheet(monkeypatch):
    built = 0
    real = Word.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        real(self)

    def refuse(self, mapping):
        raise AssertionError("weak_extend called Word.substitute")

    names = ("a1", "a2")
    inc = Inclusion(names, {n: parse_word(n) for n in names}, Presentation.free(names))
    rng = np.random.default_rng(250)
    reps = [
        PermRep(b, {n: Perm.from_images(t) for n, t in zip(names, random_transitive_images(rng, b, 2))})
        for b in (250, 1000)
    ]
    monkeypatch.setattr(Word, "__post_init__", counting)
    monkeypatch.setattr(Word, "substitute", refuse)
    counts = []
    for rho0 in reps:
        before = built
        res = weak_extend(rho0, inc)
        counts.append(built - before)
    assert counts[0] == counts[1], counts
    # the stabilizer words are spelled once they are read
    before = built
    assert len(res.stabilizer.generators) == 1001
    assert built - before >= 1001
