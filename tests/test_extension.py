from __future__ import annotations

import itertools
import tracemalloc
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coverext.cosets import Presentation, todd_coxeter
from coverext.errors import SurjectivityError
from coverext.extension import (
    Inclusion,
    abelianized_surjective,
    two_sheet_unique,
    weak_extend,
)
from coverext.perms import Perm
from coverext.reps import PermRep
from coverext.scenarios import run_payload
from coverext.words import Word, format_word, parse_word

from oracles import (
    coxeter_presentation,
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
