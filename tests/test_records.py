"""Value semantics of the package's seven records."""

import json
import pickle

import pytest

from griesmer.bounds import BoundReport, bound_report
from griesmer.core import Code, CodeParams, Word
from griesmer.search import SearchOutcome, WitnessSet, full_search, parse_witness_set, tail_search
from griesmer.theorems import Verdict, verify


def _code(texts):
    return Code(Word.parse(t, 2) for t in texts)


# one maker per record; each call builds a fresh, equal record
_MAKERS = {
    "Word": lambda: Word([0, 1, 1], 2),
    "CodeParams": lambda: CodeParams(q=2, n=5, k=2, d=3),
    "Code": lambda: _code(["011", "000", "101"]),
    "WitnessSet": lambda: WitnessSet.from_strings(2, ["00", "01", "10"]),
    "SearchOutcome": lambda: SearchOutcome(_code(["000", "011"]), 12, True),
    "BoundReport": lambda: bound_report(2, 3, 5),
    "Verdict": lambda: verify("d56_k3", 2, 5, 3),
}
_OTHERS = {
    "Word": Word([0, 1, 0], 2),
    "CodeParams": CodeParams(q=2, n=5, k=2, d=2),
    "Code": _code(["011", "000"]),
    "WitnessSet": WitnessSet.from_strings(2, ["00", "01"]),
    "SearchOutcome": SearchOutcome(_code(["000", "011"]), 12, False),
    "BoundReport": bound_report(2, 3, 6),
    "Verdict": verify("d56_k3", 2, 6, 3),
}
_FIELDS = {
    "Word": ("symbols", "q"),
    "CodeParams": ("q", "n", "k", "d"),
    "Code": ("words",),
    "WitnessSet": ("prefixes",),
    "SearchOutcome": ("witness", "nodes_explored", "exhausted"),
    "BoundReport": ("q", "k", "d", "griesmer", "singleton", "terms"),
    "Verdict": ("theorem_id", "params", "outcome"),
}


@pytest.mark.parametrize("name", list(_MAKERS))
def test_equal_fields_mean_equal_records(name):
    a, b = _MAKERS[name](), _MAKERS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != _OTHERS[name]
    assert len({a, b, _OTHERS[name]}) == 2


@pytest.mark.parametrize("name", list(_MAKERS))
def test_fields_cannot_be_assigned(name):
    record = _MAKERS[name]()
    for field in _FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", list(_MAKERS))
def test_records_survive_pickling(name):
    record = _MAKERS[name]()
    assert pickle.loads(pickle.dumps(record)) == record


def test_validating_records_differ_from_tuples_of_their_fields():
    assert CodeParams(2, 5, 2, 3) != (2, 5, 2, 3)
    assert Word((0, 1), 2) != ((0, 1), 2)


def test_reprs_name_every_field():
    assert repr(Word((0, 1), 2)) == "Word(symbols=(0, 1), q=2)"
    assert repr(CodeParams(2, 5, 2, 3)) == "CodeParams(q=2, n=5, k=2, d=3)"
    assert repr(_code(["11", "01"])) == (
        "Code(words=(Word(symbols=(0, 1), q=2), Word(symbols=(1, 1), q=2)))"
    )
    assert repr(WitnessSet.from_strings(2, ["00", "01"])) == (
        "WitnessSet(prefixes=(Word(symbols=(0, 0), q=2), Word(symbols=(0, 1), q=2)))"
    )
    assert repr(bound_report(2, 3, 5)) == (
        "BoundReport(q=2, k=3, d=5, griesmer=10, singleton=7, terms=(5, 3, 2))"
    )
    assert repr(verify("d56_k3", 2, 5, 3)) == (
        "Verdict(theorem_id='d56_k3', params=CodeParams(q=2, n=9, k=3, d=5), "
        "outcome=SearchOutcome(witness=None, nodes_explored=0, exhausted=True))"
    )


def test_words_are_set_members():
    words = {Word((0, 1), 2), Word([0, 1], 2), Word((0, 1), 3), Word((1, 0), 2)}
    assert len(words) == 3
    assert Word([1, 0], 2) in words
    assert Word((0, 1), 2) in _code(["01", "10"])


def test_tuple_records_unpack_and_convert():
    witness, nodes, exhausted = tail_search(WitnessSet.from_strings(2, ["00", "01"]), 1, 3)
    assert (witness, nodes, exhausted) == (None, 0, True)
    assert bound_report(2, 3, 5)._asdict()["terms"] == (5, 3, 2)
    assert verify("d56_k3", 2, 5, 3)[0] == "d56_k3"
    assert isinstance(bound_report(2, 3, 5), BoundReport)
    assert isinstance(verify("d56_k3", 2, 5, 3), Verdict)


_WS3 = WitnessSet.from_strings(2, ["00", "01", "10"])


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: bound_report(2, 3, 5), '{"q":2,"k":3,"d":5,"griesmer":10,"singleton":7,"terms":[5,3,2]}'),
        (lambda: bound_report(3, 1, 1), '{"q":3,"k":1,"d":1,"griesmer":1,"singleton":1,"terms":[1]}'),
        (
            lambda: tail_search(_WS3, 3, 3),
            '{"feasible":true,"exhausted":true,"nodes_explored":12,'
            '"witness":["00000","01110","10011"]}',
        ),
        (lambda: tail_search(_WS3, 2, 3), '{"feasible":false,"exhausted":true,"nodes_explored":0}'),
        (
            lambda: tail_search(_WS3, 3, 3, node_limit=2),
            '{"feasible":false,"exhausted":false,"nodes_explored":2}',
        ),
        (
            lambda: full_search(CodeParams(3, 4, 2, 3)),
            '{"feasible":true,"exhausted":true,"nodes_explored":31,"witness":'
            '["0000","0111","0222","1012","1120","1201","2021","2102","2210"]}',
        ),
        (
            lambda: verify("d56_k3", 2, 5, 3),
            '{"id":"d56_k3","q":2,"k":3,"d":5,"griesmer":10,"critical_n":9,'
            '"confirmed":true,"nodes_explored":0}',
        ),
        (
            lambda: verify("d34", 3, 4, 5),
            '{"id":"d34","q":3,"k":5,"d":4,"griesmer":9,"critical_n":8,'
            '"confirmed":true,"nodes_explored":0}',
        ),
    ],
    ids=[
        "bound", "bound-k1", "tail-feasible", "tail-refuted", "tail-aborted", "full-feasible",
        "verdict-d56_k3", "verdict-d34",
    ],
)
def test_to_dict_bytes_are_pinned(make, text):
    assert json.dumps(make().to_dict(), separators=(",", ":")) == text


def _w(symbols, q=2):
    return Word(symbols, q)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Word((0, 1), 1), "alphabet size must be at least 2, got 1"),
        (lambda: Word((), 2), "a word needs at least one symbol"),
        (lambda: Word([], 3), "a word needs at least one symbol"),
        (lambda: Word((0, 2), 2), "symbol 2 outside [0, 2)"),
        (lambda: Word((-1,), 2), "symbol -1 outside [0, 2)"),
        (lambda: Word.parse(" \t", 11), "empty word text"),
        (lambda: CodeParams(1, 5, 2, 3), "alphabet size must be at least 2, got 1"),
        (lambda: CodeParams(2, 0, 2, 3), "length must be at least 1, got 0"),
        (lambda: CodeParams(2, 5, 0, 3), "message length 0 outside [1, n=5]"),
        (lambda: CodeParams(2, 5, 6, 3), "message length 6 outside [1, n=5]"),
        (lambda: CodeParams(2, 5, 2, 0), "distance 0 outside [1, n=5]"),
        (lambda: CodeParams(2, 5, 2, 6), "distance 6 outside [1, n=5]"),
        (lambda: Code([]), "a code needs at least one word"),
        (
            lambda: Code([_w((0, 1)), _w((0, 1), 3)]),
            "words of one code must share the alphabet: 3 != 2",
        ),
        (lambda: Code([_w((0, 1)), _w((0, 1, 1))]), "words of one code must share the length: 3 != 2"),
        (lambda: Code([_w((1, 0)), _w((0, 1)), _w((1, 0))]), "duplicate word 10"),
        (lambda: WitnessSet([]), "a code needs at least one word"),
        (lambda: WitnessSet([_w((0, 1)), _w((0, 0))]), "the first prefix must be the zero word, got 01"),
        (lambda: WitnessSet([_w((0, 0)), _w((0, 0))]), "duplicate word 00"),
        (
            lambda: parse_witness_set("2 3\n00\n01\n"),
            "the first content line gives k=3, but the prefixes have length 2",
        ),
    ],
    ids=[
        "word-q", "word-empty", "word-empty-list", "word-symbol-high", "word-symbol-negative",
        "word-parse-blank",
        "params-q", "params-n", "params-k-low", "params-k-high", "params-d-low", "params-d-high",
        "code-empty", "code-alphabets", "code-lengths", "code-duplicate",
        "ws-empty", "ws-first-nonzero", "ws-duplicate", "ws-header-k",
    ],
)
def test_validation_messages_are_pinned(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message
