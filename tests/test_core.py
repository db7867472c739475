"""Words, codes, and the Hamming metric."""

import random

import pytest

from griesmer.core import Code, CodeParams, Word, distance, is_systematic, min_distance, one_hot


def _random_word(rng: random.Random, length: int, q: int) -> Word:
    return Word(tuple(rng.randrange(q) for _ in range(length)), q)


def _random_code(rng: random.Random, size: int, length: int, q: int) -> Code:
    size = min(size, q**length)
    pool = set()
    while len(pool) < size:
        pool.add(tuple(rng.randrange(q) for _ in range(length)))
    return Code(Word(t, q) for t in pool)


def _translate(code: Code, t: Word) -> Code:
    """Subtract t from every word, component-wise mod q."""
    return Code(Word(tuple((a - b) % t.q for a, b in zip(w.symbols, t.symbols)), t.q) for w in code)


def _pad(code: Code, extra: int) -> Code:
    """Append extra zero columns to every word."""
    return Code(Word(w.symbols + (0,) * extra, w.q) for w in code)


def test_word_construction_and_accessors():
    w = Word((0, 1, 1, 1, 1, 1), 2)
    assert w.length == 6
    assert w.symbols == (0, 1, 1, 1, 1, 1)
    assert str(w) == "011111"


def test_word_coerces_symbol_sequences():
    assert Word([1, 0], 2).symbols == (1, 0)
    assert type(Word([0, 1], 2).symbols) is tuple
    assert type(Word(iter([0, 1]), 2).symbols) is tuple
    assert Word([0, 1], 2) == Word((0, 1), 2)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 1), 1)
    with pytest.raises(ValueError):
        Word((), 2)
    with pytest.raises(ValueError):
        Word((0, 2), 2)
    with pytest.raises(ValueError):
        Word((-1,), 2)


def test_word_parse_digits():
    assert Word.parse("0210", 3) == Word((0, 2, 1, 0), 3)
    assert Word.parse(" 011 \n", 2) == Word((0, 1, 1), 2)
    with pytest.raises(ValueError):
        Word.parse("01x", 2)
    with pytest.raises(ValueError):
        Word.parse("", 2)
    with pytest.raises(ValueError):
        Word.parse("02", 2)  # symbol out of range


def test_word_parse_wide_alphabet():
    w = Word.parse("0 11 3", 16)
    assert w.symbols == (0, 11, 3)
    assert str(w) == "0 11 3"
    assert Word.parse(str(w), 16) == w


def test_word_parse_wide_alphabet_reads_ascii_decimals_only():
    # int() reads each of these too, but a wide-alphabet symbol is a plain
    # run of the digits 0 to 9, as the digit-string form is for q <= 10
    for text in ("1_0", "+2 3", "\u0661\u0662 3", "0 -1", "0 0x1"):
        with pytest.raises(ValueError, match="^not a word of decimal symbols: "):
            Word.parse(text, 20)
    assert Word.parse(" 012  3 ", 20) == Word((12, 3), 20)


def test_str_parse_roundtrip_randomized():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice((2, 3, 7, 10, 11, 64))
        w = _random_word(rng, rng.randint(1, 9), q)
        assert Word.parse(str(w), q) == w


def test_code_params_validation():
    CodeParams(q=2, n=5, k=2, d=3)
    with pytest.raises(ValueError):
        CodeParams(q=1, n=5, k=2, d=3)
    with pytest.raises(ValueError):
        CodeParams(q=2, n=0, k=1, d=1)
    with pytest.raises(ValueError):
        CodeParams(q=2, n=5, k=6, d=3)
    with pytest.raises(ValueError):
        CodeParams(q=2, n=5, k=2, d=6)
    with pytest.raises(ValueError):
        CodeParams(q=2, n=5, k=2, d=0)


def test_code_sorts_words_and_rejects_duplicates():
    a = Word((1, 0), 2)
    b = Word((0, 1), 2)
    code = Code([a, b])
    assert [str(w) for w in code] == ["01", "10"]
    assert len(code) == 2
    assert a in code and b in code
    assert Word((1, 1), 2) not in code
    assert Code([b, a]) == code
    assert hash(Code([b, a])) == hash(code)
    with pytest.raises(ValueError):
        Code([a, a])
    with pytest.raises(ValueError):
        Code([])
    with pytest.raises(ValueError):
        Code([a, Word((0, 1, 1), 2)])
    with pytest.raises(ValueError):
        Code([a, Word((0, 1), 3)])


def test_weight_and_distance_known_values():
    zero = Word.parse("000000", 2)
    assert distance(Word.parse("011111", 2), zero) == 5
    assert distance(zero, zero) == 0
    assert distance(Word.parse("011111", 2), Word.parse("111000", 2)) == 4
    assert distance(Word.parse("0011111", 2), Word.parse("1111001", 2)) == 4
    assert distance(Word.parse("0210", 3), Word.parse("0210", 3)) == 0


def test_distance_rejects_incomparable_words():
    with pytest.raises(ValueError):
        distance(Word((0, 1), 2), Word((0, 1, 1), 2))
    with pytest.raises(ValueError):
        distance(Word((0, 1), 2), Word((0, 1), 3))


def test_weight_is_distance_to_zero():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        w = _random_word(rng, rng.randint(1, 8), q)
        assert sum(1 for s in w.symbols if s) == distance(w, Word((0,) * w.length, q))


def test_min_distance_five_word_layout():
    # prefixes 000..101 with the tails that realize pairwise distance 4
    code = Code(
        Word.parse(t, 2)
        for t in (
            "000000000",
            "001011111",
            "011111000",
            "010100111",
            "101100011",
        )
    )
    assert min_distance(code) == 4
    assert distance(Word.parse("010100111", 2), Word.parse("101100011", 2)) == 4


def test_one_hot_gives_no_bit_where_no_two_rows_agree():
    # positions 1 and 3 hold distinct symbols in every row, so no pair agrees
    # there and they get no bit; the popcounts still give the zip distances
    rows = [(0, 5, 1, 9), (0, 6, 2, 8), (1, 7, 1, 7)]
    bits = one_hot(rows, 10)
    width = 3
    for c in (1, 3):
        assert not any(b >> c * width & 0b111 for b in bits)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        agree = (bits[i] & bits[j]).bit_count()
        assert 4 - agree == sum(s != t for s, t in zip(rows[i], rows[j]))
    # 4,096 words over a large alphabet that differ everywhere: no bit at all
    assert one_hot([(s, s) for s in range(4096)], 10**9) == [0] * 4096


def test_min_distance_needs_two_words():
    with pytest.raises(ValueError):
        min_distance(Code([Word((0, 0), 2)]))


def test_is_systematic():
    repetition = Code([Word((0, 0, 0), 2), Word((1, 1, 1), 2)])
    assert is_systematic(repetition, 1)
    assert not is_systematic(repetition, 2)  # 2 words, need 4
    full = Code(
        Word.parse(t, 2) for t in ("00000", "01110", "10011", "11101")
    )
    assert is_systematic(full, 2)
    shared_prefix = Code(Word.parse(t, 2) for t in ("000", "001", "110", "111"))
    assert not is_systematic(shared_prefix, 2)
    with pytest.raises(ValueError):
        is_systematic(repetition, 0)
    with pytest.raises(ValueError):
        is_systematic(repetition, 4)


def test_translate_by_codeword_contains_zero():
    code = Code(Word.parse(t, 3) for t in ("012", "120", "201"))
    moved = _translate(code, Word.parse("120", 3))
    assert Word.parse("000", 3) in moved
    assert len(moved) == len(code)


def test_translate_preserves_distance_multiset_randomized():
    rng = random.Random(23)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        length = rng.randint(2, 7)
        code = _random_code(rng, rng.randint(2, 5), length, q)
        t = _random_word(rng, length, q)
        moved = _translate(code, t)
        assert sorted(
            distance(a, b) for i, a in enumerate(code.words) for b in code.words[i + 1 :]
        ) == sorted(
            distance(a, b) for i, a in enumerate(moved.words) for b in moved.words[i + 1 :]
        )


def test_pad_preserves_min_distance_and_systematicity_randomized():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.choice((2, 3))
        k = rng.randint(1, 2)
        length = k + rng.randint(0, 3)
        code = _random_code(rng, min(q**k, 4), length, q)
        extra = rng.randint(1, 3)
        padded = _pad(code, extra)
        if len(code) >= 2:
            assert min_distance(padded) == min_distance(code)
        assert is_systematic(padded, k) == is_systematic(code, k)


def test_triangle_inequality_randomized():
    rng = random.Random(47)
    for _ in range(300):
        q = rng.choice((2, 3, 4))
        length = rng.randint(1, 8)
        a, b, c = (_random_word(rng, length, q) for _ in range(3))
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert distance(a, b) == distance(b, a)
        assert (distance(a, b) == 0) == (a == b)
