"""Extending a branched cover across a larger base.

The cover is a transitive permutation representation ``rho0`` of the free
group on the small base's loop alphabet.  An inclusion of bases induces a
homomorphism ``iota`` into the big base's deck group, given by a word image
per source generator plus a presentation of the target group.  The extension
is computed combinatorially:

1. stabilizer generators of the base sheet (Schreier generators, read off a
   breadth-first spanning tree of ``rho0``),
2. their images under ``iota`` generate the pushed subgroup,
3. coset enumeration over the target presentation yields the extended sheet
   count ``b1``, the extended action ``rho1``, and the sheet-to-coset fiber
   map (base sheet ``s`` goes to the coset of ``iota(transversal word of s)``).

Steps 2 and 3 run on integer coset-table columns
(``cosets.pushed_coset_table``): each image is compiled once, and the
stabilizer's spanning tree and other edges, labelled by the images, go into
the coset enumerator as a graph, so no pushed generator word is built and
the memory stays linear in the sheet count.  The fiber map walks the tree
edges' images through the finished table.  The stabilizer words of
``ExtensionResult.stabilizer`` are spelled only when a caller reads them.

The extension is *strong* exactly when the fiber map is injective, i.e.
``b1 == b0``; it always satisfies ``b1 <= b0`` when the fiber map is onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .cosets import CosetTable, Presentation, StabilizerData, pushed_coset_table, schreier_generators
from .errors import SurjectivityError
from .reps import PermRep
from .words import Word


@dataclass(frozen=True)
class Inclusion:
    """Generator-wise homomorphism from the source free group to a presented group."""

    source_generators: tuple[str, ...]
    images: Mapping[str, Word]
    target: Presentation

    def __post_init__(self) -> None:
        if set(self.images) != set(self.source_generators):
            raise ValueError("inclusion must give exactly one image per source generator")
        target_gens = set(self.target.generators)
        for name, w in self.images.items():
            for g in w.generators():
                if g not in target_gens:
                    raise ValueError(f"image of {name!r} uses unknown target generator {g!r}")


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of extending a cover; coset 0 is the pushed stabilizer."""

    b0: int
    b1: int
    rho1: PermRep
    fiber_map: tuple[int, ...]
    strong: bool
    table: CosetTable
    stabilizer: StabilizerData
    abelianization_surjective: bool | None

    def sheet_of_path(self, word: Word) -> int:
        """Extended sheet determined by a path class (word in target generators)."""
        return self.table.act(0, word)

    def path_classes_equivalent(self, w1: Word, w2: Word) -> bool:
        """Whether two path classes label the same extended sheet."""
        return self.sheet_of_path(w1) == self.sheet_of_path(w2)


def _exponent_vector(word: Word, names: Sequence[str]) -> list[int]:
    idx = {n: i for i, n in enumerate(names)}
    v = [0] * len(names)
    for name, exp in word.syllables:
        v[idx[name]] += exp
    return v


def _spans_full_lattice(columns: Sequence[Sequence[int]], m: int) -> bool:
    """Whether integer vectors span all of Z^m (unimodular column elimination)."""
    if m == 0:
        return True
    cols = [list(c) for c in columns if any(c)]
    p = 0
    for row in range(m):
        while True:
            nz = [k for k in range(p, len(cols)) if cols[k][row] != 0]
            if not nz:
                return False
            if len(nz) == 1:
                k = nz[0]
                break
            nz.sort(key=lambda k: abs(cols[k][row]))
            a, b = nz[0], nz[1]
            q = cols[b][row] // cols[a][row]
            for r in range(m):
                cols[b][r] -= q * cols[a][r]
        cols[p], cols[k] = cols[k], cols[p]
        if abs(cols[p][row]) != 1:
            return False
        p += 1
    return True


def abelianized_surjective(inclusion: Inclusion) -> bool:
    """Necessary condition for surjectivity: onto after abelianizing both sides.

    The target abelianization is Z^m modulo the relator exponent vectors, so
    the induced map is onto iff the image exponent vectors together with the
    relator vectors span Z^m.
    """
    names = inclusion.target.generators
    cols = [_exponent_vector(inclusion.images[g], names) for g in inclusion.source_generators]
    cols += [_exponent_vector(r, names) for r in inclusion.target.relators]
    return _spans_full_lattice(cols, len(names))


def weak_extend(
    rho0: PermRep,
    inclusion: Inclusion,
    surjectivity_assumed: bool = True,
    cap: int = 1_000_000,
) -> ExtensionResult:
    """Extend the cover ``rho0`` across the inclusion of bases.

    Raises :class:`SurjectivityError` if the computed fiber map is not onto
    (the returned object's invariants would fail), or if
    ``surjectivity_assumed`` is set and the abelianized surjectivity test
    refutes the assumption.  With ``surjectivity_assumed=False`` the test
    result is recorded on the result instead of raising, and maximality of
    the construction is not guaranteed.
    """
    if sorted(inclusion.source_generators) != sorted(rho0.images):
        raise ValueError("inclusion source alphabet must match the representation's generators")
    # raises ValueError on a non-transitive rho0, before any SurjectivityError
    stab = schreier_generators(rho0, gen_order=inclusion.source_generators)

    ab_onto = abelianized_surjective(inclusion)
    if surjectivity_assumed and not ab_onto:
        raise SurjectivityError(
            "inclusion-induced map is not surjective (fails already on abelianizations); "
            "rerun with surjectivity_assumed=False to record this instead"
        )

    table, fiber_map = pushed_coset_table(stab, inclusion.images, inclusion.target, cap)
    b0, b1 = rho0.degree, table.index
    rho1 = table.to_rep()
    missed = sorted(set(range(b1)) - set(fiber_map))
    if missed:
        raise SurjectivityError(
            f"fiber map misses extended sheets {missed}: the inclusion-induced map "
            f"cannot be surjective"
        )
    for name, p in rho0.images.items():
        q = rho1.act_word(inclusion.images[name]).images
        if any(fiber_map[t] != q[fiber_map[s]] for s, t in enumerate(p.images)):
            raise RuntimeError("internal error: fiber map is not equivariant")

    return ExtensionResult(
        b0=b0,
        b1=b1,
        rho1=rho1,
        fiber_map=fiber_map,
        strong=b1 == b0,
        table=table,
        stabilizer=stab,
        abelianization_surjective=ab_onto,
    )


def two_sheet_unique(k: int) -> bool:
    """Uniqueness of the 2-sheet cover with every loop acting nontrivially.

    Every one of the k loop generators must go to a non-identity element of
    the 2-point symmetric group, and the swap is the only one, so there is
    exactly one candidate assignment.  It is transitive, since the swap
    alone moves sheet 0 to sheet 1, so the answer is True for every k >= 1.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    return True
