"""Freely reduced words over named generators, with parsing and substitution.

Words are stored as syllables ``(generator, exponent)`` with nonzero integer
exponents and no two adjacent syllables sharing a generator, so every value is
already in normal form for the free group on its alphabet.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _normalize(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Merge adjacent syllables and drop zero exponents (full free reduction).

    A syllable that does not merge with a neighbour is kept as the given
    tuple object, so words built from other words share their syllables.
    """
    stack: list[tuple[str, int]] = []
    for pair in pairs:
        name, exp = pair
        if exp == 0:
            continue
        if stack and stack[-1][0] == name:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((name, merged))
        else:
            stack.append(pair if type(pair) is tuple else (name, exp))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; multiply with ``*``, invert with ``.inverse()``."""

    syllables: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", _normalize(self.syllables))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Word":
        if not _NAME_RE.match(name):
            raise ValueError(f"bad generator name: {name!r}")
        return Word(((name, exp),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.syllables * k)

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Reduced word length (sum of absolute exponents)."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield single letters ``(name, +1 | -1)`` left to right."""
        for name, exp in self.syllables:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield name, step

    def generators(self) -> tuple[str, ...]:
        """Generator names appearing in the word, in order of first use."""
        seen: list[str] = []
        for name, _ in self.syllables:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def substitute(self, mapping: Mapping[str, "Word"]) -> "Word":
        """Apply the homomorphism sending each generator to ``mapping[name]``.

        The images' syllables are concatenated and reduced once; free
        reduction is confluent, so this is the product of the images.
        """
        pairs: list[tuple[str, int]] = []
        for name, exp in self.syllables:
            if name not in mapping:
                raise ValueError(f"no image given for generator {name!r}")
            img = mapping[name] if exp > 0 else mapping[name].inverse()
            pairs.extend(img.syllables * abs(exp))
        return Word(tuple(pairs))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def format_word(word: Word) -> str:
    """Serialize to the wire syntax, e.g. ``alpha1 alpha2^-1`` ('' = identity)."""
    parts = []
    for name, exp in word.syllables:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def parse_word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Parse the wire syntax; optionally restrict to a known alphabet."""
    allowed = set(alphabet) if alphabet is not None else None
    pairs: list[tuple[str, int]] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad word token: {token!r}")
        name, exp_s = m.group(1), m.group(2)
        exp = int(exp_s) if exp_s is not None else 1
        if allowed is not None and name not in allowed:
            raise ValueError(f"unknown generator {name!r} (alphabet: {sorted(allowed)})")
        pairs.append((name, exp))
    return Word(tuple(pairs))
