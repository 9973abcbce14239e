"""The report writer against json.dumps(doc, sort_keys=True, indent=2), byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loewner.cli as cli
from loewner.cli import main, report_text
from loewner.herglotz import matrix_to_json
from loewner.jets import PolyJet

from conftest import counterexample_field, demo_field


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _koenigs_family_doc():
    step = PolyJet.from_terms(1, 3, {(0, (1,)): 0.5, (0, (2,)): 0.1})
    return {"linear_part": matrix_to_json(np.array([[0.5]], dtype=complex)),
            "steps": [step.to_json_dict() for _ in range(2)]}


# (label, command, input, expected exit code); a str input is the report of
# an earlier command, "corrupted" that of the resonance-free chain with one
# coefficient moved by 1e-3
COMMANDS = [
    ("analyze", "analyze", demo_field().to_json_dict(), 0),
    ("normalform-linearizable", "normalform", _koenigs_family_doc(), 0),
    ("normalform-resonant", "normalform", counterexample_field().to_json_dict(), 0),
    ("chain-resonance-free", "chain", demo_field().to_json_dict(), 0),
    ("chain-planted", "chain", counterexample_field().to_json_dict(), 0),
    ("verify-pass", "verify", "chain-resonance-free", 0),
    ("verify-fail", "verify", "corrupted", 1),
]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """label -> (the document each command handed to the writer, the file)."""
    tmp = tmp_path_factory.mktemp("reports")
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        dump = cli._dump
        mp.setattr(cli, "_dump", lambda doc, path: (handed.append(doc), dump(doc, path)))
        out = {}
        for label, command, source, code in COMMANDS:
            if source == "corrupted":
                doc = json.loads(out["chain-resonance-free"][1])
                doc["jets"][1]["terms"][1]["re"] += 1e-3
                source = doc
            elif isinstance(source, str):
                source = json.loads(out[source][1])
            inp = tmp / f"{label}.input.json"
            inp.write_text(json.dumps(source))
            report = tmp / f"{label}.json"
            assert main([command, "--input", str(inp), "--output", str(report)]) == code
            out[label] = (handed.pop(), report.read_text())
    return out


@pytest.mark.parametrize("label", [c[0] for c in COMMANDS])
def test_every_report_type_is_written_as_json_dumps(reports, label):
    doc, written = reports[label]
    assert written == _reference(doc)
    assert report_text(doc) == written
    # what a reader loads back is written the same way
    assert report_text(json.loads(written)) == written


def test_report_cases_cover_what_they_name(reports):
    def load(label):
        return json.loads(reports[label][1])
    assert load("normalform-linearizable")["certificate"] == "linearizable"
    assert load("normalform-resonant")["certificate"] == "resonant-normal-form"
    assert load("chain-resonance-free")["certificate"] is not None
    assert load("chain-planted")["certificate"] is None
    assert load("verify-pass")["passed"] is True
    assert load("verify-fail")["passed"] is False


_TERM = {"component": 2, "index": [2, 0], "re": 0.25, "im": -0.0}

EDGE = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               -5e-324, 1e308, 0.1, 1e16, 1e-7, 2.5, -123456789.125],
    "ints": [0, -1, 2 ** 70, -(2 ** 64)],
    "empty": [[], {}, [[]], {"a": {}}, [{}]],
    "constants": [None, True, False],
    "strings": ["", "plain", "é ü ß", "日本語", "😀", "  ", "tab\there",
                "new\nline", 'quote " and \\ back', "\x00\x1f\x7f", "/"],
    "terms": [_TERM, {**_TERM, "index": []}, {**_TERM, "re": float("nan")}],
    "deeper": [[[_TERM, _TERM]], {"t": _TERM}],
    "near misses": [
        {**_TERM, "extra": 1},
        {**_TERM, "component": True},
        {**_TERM, "index": (2, 0)},
        {**_TERM, "index": [True, 0]},
        {**_TERM, "index": [2.0, 0]},
        {**_TERM, "re": 1},
        {**_TERM, "im": np.float64(0.5)},
    ],
    "fallback": [np.float64(0.1), np.float64("nan"), np.float64(-0.0),
                 (1, [2.5, {"b": 1, "a": (3, None)}]), (), {2: "int keys", 1: [1]}],
    "é": 1, "Z": 2, "a": 3, "": 4, "\x01": 5,
}


def test_edge_document_is_written_as_json_dumps():
    assert report_text(EDGE) == _reference(EDGE)
    for value in EDGE.values():
        assert report_text(value) == _reference(value)


_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.floats().map(np.float64))
_terms = st.fixed_dictionaries({
    "component": st.integers() | st.booleans(),
    "im": st.floats(),
    "index": st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    "re": st.floats() | st.integers(),
})
_trees = st.recursive(
    _scalars | _terms,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)
                      | st.tuples(children, children)),
    max_leaves=40)


@given(_trees)
def test_generated_trees_are_written_as_json_dumps(doc):
    assert report_text(doc) == _reference(doc)


_circular: list = []
_circular.append(_circular)


@pytest.mark.parametrize("doc", [
    object(),
    {"a": [1, {"b": object()}]},
    {"a": {1, 2}},
    {"a": 1, 2: "b"},
    {"a": [np.int64(3)]},
    {"a": _circular},
], ids=["object", "nested-object", "set", "mixed-keys", "numpy-int", "circular"])
def test_unwritable_documents_fail_as_json_dumps_does(doc):
    with pytest.raises((TypeError, ValueError)) as want:
        _reference(doc)
    with pytest.raises(want.type) as got:
        report_text(doc)
    assert str(got.value) == str(want.value)
