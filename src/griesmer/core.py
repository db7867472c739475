"""Words, codes, and the Hamming metric over the alphabet {0, ..., q-1}.

Symbols are plain residues mod q; no field structure is assumed, so any
integer alphabet size q >= 2 is accepted.  All values are immutable and
every operation is pure, so everything here is safe to share between
threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class Record:
    """Base of the records that validate their fields.

    A subclass names its fields in __slots__ and stores them, once
    validated, with _set.  Records compare equal when their classes and
    fields are equal, hash and print by their fields, and reject
    assignment to a field.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Word(Record):
    """A fixed-length word whose symbols are integers in [0, q)."""

    __slots__ = ("symbols", "q")
    symbols: tuple[int, ...]
    q: int

    def __init__(self, symbols: Iterable[int], q: int) -> None:
        symbols = tuple(symbols)
        if q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {q}")
        if not symbols:
            raise ValueError("a word needs at least one symbol")
        for s in symbols:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} outside [0, {q})")
        self._set(symbols, q)

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
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise ValueError(f"not a word of decimal symbols: {text!r}")
            symbols = tuple(int(p) for p in parts)
        return cls(symbols, q)

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        if self.q <= 10:
            return "".join(str(s) for s in self.symbols)
        return " ".join(str(s) for s in self.symbols)


class CodeParams(Record):
    """Parameters (q, n, k, d) of a target systematic code."""

    __slots__ = ("q", "n", "k", "d")
    q: int
    n: int
    k: int
    d: int

    def __init__(self, q: int, n: int, k: int, d: int) -> None:
        if q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {q}")
        if n < 1:
            raise ValueError(f"length must be at least 1, got {n}")
        if not 1 <= k <= n:
            raise ValueError(f"message length {k} outside [1, n={n}]")
        if not 1 <= d <= n:
            raise ValueError(f"distance {d} outside [1, n={n}]")
        self._set(q, n, k, d)


class Code(Record):
    """An immutable collection of distinct equal-length words over one alphabet.

    Words are kept in lexicographic order so that iteration, equality,
    hashing and printed output are deterministic regardless of
    construction order.
    """

    __slots__ = ("words",)
    words: tuple[Word, ...]

    def __init__(self, words: Iterable[Word]) -> None:
        ordered = tuple(sorted(words, key=lambda w: w.symbols))
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
        self._set(ordered)

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


def distance(a: Word, b: Word) -> int:
    """Hamming distance: the number of positions where a and b differ."""
    if a.length != b.length:
        raise ValueError(f"incomparable words: lengths {a.length} and {b.length} differ")
    if a.q != b.q:
        raise ValueError(f"incomparable words: alphabets {a.q} and {b.q} differ")
    return sum(1 for x, y in zip(a.symbols, b.symbols) if x != y)


def one_hot(rows: Sequence[Sequence[int]], q: int) -> list[int]:
    """Equal-length rows as bits: bit c * w + t, with w = min(q, len(rows)),
    is set where position c holds the t-th distinct symbol down it, unless
    no two rows agree there.  Two such rows of length n agree exactly where
    they share a bit, so their Hamming distance is n - popcount(a & b), and
    each takes at most n * w bits however large q is, none where all differ.
    """
    width = min(q, len(rows))
    bits = [0] * len(rows)
    for c, column in enumerate(zip(*rows)):
        number = {s: c * width + t for t, s in enumerate(dict.fromkeys(column))}
        if len(number) < len(column):
            for j, s in enumerate(column):
                bits[j] |= 1 << number[s]
    return bits


def min_distance(code: Code) -> int:
    """Smallest pairwise distance over all distinct word pairs."""
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two words")
    n = code.length
    # a word with no bit agrees with no other; most is the largest agreement of two, at most n - 1
    bits = [b for b in one_hot([w.symbols for w in code], code.q) if b]
    most = 0
    for i, a in enumerate(bits[:-1]):
        most = max(most, max(map(int.bit_count, map(a.__and__, bits[i + 1 :]))))
        if most == n - 1:
            break
    return n - most


def is_systematic(code: Code, k: int) -> bool:
    """True iff the code has q**k words with pairwise-distinct length-k prefixes."""
    if not 1 <= k <= code.length:
        raise ValueError(f"prefix length {k} outside [1, {code.length}]")
    if len(code) != code.q**k:
        return False
    prefixes = {w.symbols[:k] for w in code}
    return len(prefixes) == len(code)
