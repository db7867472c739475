"""Words, codes, and the Hamming metric over the alphabet {0, ..., q-1}.

Symbols are plain residues mod q; no field structure is assumed, so any
integer alphabet size q >= 2 is accepted.  All values are immutable and
every operation is pure, so everything here is safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Word:
    """A fixed-length word whose symbols are integers in [0, q)."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if not self.symbols:
            raise ValueError("a word needs at least one symbol")
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise ValueError(f"symbol {s} outside [0, {self.q})")

    @classmethod
    def parse(cls, text: str, q: int) -> Word:
        """Inverse of str(): digit string for q <= 10, whitespace-separated integers above."""
        text = text.strip()
        if q <= 10:
            if not text or any(ch not in "0123456789" for ch in text):
                raise ValueError(f"not a digit-string word: {text!r}")
            symbols = tuple(int(ch) for ch in text)
        else:
            parts = text.split()
            if not parts:
                raise ValueError("empty word text")
            symbols = tuple(int(p) for p in parts)
        return cls(symbols, q)

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        if self.q <= 10:
            return "".join(str(s) for s in self.symbols)
        return " ".join(str(s) for s in self.symbols)


@dataclass(frozen=True)
class CodeParams:
    """Parameters (q, n, k, d) of a target systematic code."""

    q: int
    n: int
    k: int
    d: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if self.n < 1:
            raise ValueError(f"length must be at least 1, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"message length {self.k} outside [1, n={self.n}]")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"distance {self.d} outside [1, n={self.n}]")


@dataclass(frozen=True)
class Code:
    """An immutable collection of distinct equal-length words over one alphabet.

    Words are kept in lexicographic order so that iteration, equality,
    hashing and printed output are deterministic regardless of
    construction order.
    """

    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.words, key=lambda w: w.symbols))
        object.__setattr__(self, "words", ordered)
        if not ordered:
            raise ValueError("a code needs at least one word")
        q, length = ordered[0].q, ordered[0].length
        for w in ordered:
            if w.q != q:
                raise ValueError(f"words of one code must share the alphabet: {w.q} != {q}")
            if w.length != length:
                raise ValueError(f"words of one code must share the length: {w.length} != {length}")
        for a, b in zip(ordered, ordered[1:]):
            if a.symbols == b.symbols:
                raise ValueError(f"duplicate word {a}")

    @property
    def q(self) -> int:
        return self.words[0].q

    @property
    def length(self) -> int:
        return self.words[0].length

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, item: object) -> bool:
        return item in self.words


def distance(a: Word, b: Word) -> int:
    """Hamming distance: the number of positions where a and b differ."""
    if a.length != b.length:
        raise ValueError(f"incomparable words: lengths {a.length} and {b.length} differ")
    if a.q != b.q:
        raise ValueError(f"incomparable words: alphabets {a.q} and {b.q} differ")
    return sum(1 for x, y in zip(a.symbols, b.symbols) if x != y)


def min_distance(code: Code) -> int:
    """Smallest pairwise distance over all distinct word pairs."""
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two words")
    words = code.words
    best = code.length
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            dist = distance(words[i], words[j])
            if dist < best:
                best = dist
                if best == 1:
                    return 1
    return best


def is_systematic(code: Code, k: int) -> bool:
    """True iff the code has q**k words with pairwise-distinct length-k prefixes."""
    if not 1 <= k <= code.length:
        raise ValueError(f"prefix length {k} outside [1, {code.length}]")
    if len(code) != code.q**k:
        return False
    prefixes = {w.symbols[:k] for w in code}
    return len(prefixes) == len(code)
