"""The report writer against json.dumps(doc, sort_keys=True, indent=2), byte for byte."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loewner.cli as cli
from loewner.cli import _family_from_doc, main, report_text
from loewner.herglotz import (HerglotzFieldSpec, LoewnerChain, TimeCoefficient,
                              matrix_to_json)
from loewner.jets import PolyJet
from loewner.spectral import ResonanceReport

from conftest import counterexample_field, demo_field


def _jet_or_refuse(x):
    # a jet is written as its document; anything else is refused in json's words
    if isinstance(x, PolyJet):
        return x.to_json_dict()
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_jet_or_refuse) + "\n"


def _koenigs_family_doc():
    step = PolyJet.from_terms(1, 3, {(0, (1,)): 0.5, (0, (2,)): 0.1})
    return {"linear_part": matrix_to_json(np.array([[0.5]], dtype=complex)),
            "steps": [step.to_json_dict() for _ in range(2)]}


def _three_component_family_doc():
    """q = 3, resonance free, with nonlinear terms in every component."""
    lam = (0.6, 0.5, 0.45)
    terms = {(0, (0, 1, 1)): 0.2, (1, (2, 0, 0)): -0.3j, (2, (1, 1, 0)): 0.25,
             (2, (0, 0, 3)): 0.05}
    terms.update({(j, tuple(int(k == j) for k in range(3))): v for j, v in enumerate(lam)})
    step = PolyJet.from_terms(3, 3, terms)
    return {"linear_part": matrix_to_json(np.diag(lam).astype(complex)),
            "steps": [step.to_json_dict() for _ in range(2)]}


# (label, command, input, expected exit code); a str input is the report of
# an earlier command, "corrupted" that of the resonance-free chain with one
# coefficient moved by 1e-3
COMMANDS = [
    ("analyze", "analyze", demo_field().to_json_dict(), 0),
    ("normalform-linearizable", "normalform", _koenigs_family_doc(), 0),
    ("normalform-resonant", "normalform", counterexample_field().to_json_dict(), 0),
    ("normalform-three-components", "normalform", _three_component_family_doc(), 0),
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
    assert {t["component"] for k in load("normalform-three-components")["normalizers"]
            for t in k["terms"] if sum(t["index"]) > 1} == {1, 2, 3}
    assert load("chain-resonance-free")["certificate"] is not None
    assert load("chain-planted")["certificate"] is None
    assert load("verify-pass")["passed"] is True
    assert load("verify-fail")["passed"] is False


@pytest.mark.parametrize("label", [c[0] for c in COMMANDS if c[1] == "normalform"])
def test_normalform_jets_load_back_bit_for_bit(reports, label):
    doc, written = reports[label]
    back = json.loads(written)
    for key in ("normalizers", "triangular"):
        assert len(back[key]) == len(doc[key])
        for loaded, built in zip(back[key], doc[key]):
            assert PolyJet.from_json_dict(loaded).coeffs.tobytes() == built.coeffs.tobytes()


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


# ---------------------------------------------------------------------- #
# field and chain documents: read back from the text they are written as


# finite floats, with signed zeros and subnormals drawn on purpose
_edges = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310])
_parts = st.floats(allow_nan=False, allow_infinity=False) | _edges
# moderate magnitudes where the field's own arithmetic must stay finite
_moderate = st.floats(-1e6, 1e6) | _edges
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _values(n):
    return st.lists(st.builds(complex, _moderate, _moderate), min_size=n, max_size=n)


def _schedules(kind):
    if kind == "constant":
        return _values(1).map(lambda v: TimeCoefficient.constant(v[0]))
    times = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4, unique=True).map(sorted)
    return times.flatmap(lambda ts: _values(len(ts)).map(
        lambda vs: TimeCoefficient(kind, tuple(ts), tuple(vs))))


@st.composite
def _fields(draw, kind):
    q = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    # upper triangular, so the spectrum is the diagonal, in the left half plane
    L = np.zeros((q, q), dtype=complex)
    for i in range(q):
        L[i, i] = complex(draw(st.floats(-4.0, -1e-3)), draw(_moderate))
        for k in range(i + 1, q):
            L[i, k] = complex(draw(st.floats(-10.0, 10.0) | _edges),
                              draw(st.floats(-10.0, 10.0) | _edges))
    indices = [I for I in PolyJet.zero(q, order).tables.indices if sum(I) >= 2]
    terms = draw(st.lists(st.tuples(st.integers(0, q - 1), st.sampled_from(indices),
                                    _schedules(kind)), max_size=4)) if indices else []
    return HerglotzFieldSpec(L, order, tuple(terms), draw(st.floats(1e-3, 1e3)))


def _field_times(field):
    nodes = field.breakpoints()
    mids = [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]
    return [0.0, field.horizon, *nodes, *mids]


@pytest.mark.parametrize("kind", ["constant", "piecewise", "sampled"])
@given(data=st.data())
def test_field_document_round_trip_keeps_every_bit(kind, data):
    field = data.draw(_fields(kind))
    text = report_text(field.to_json_dict())
    back = HerglotzFieldSpec.from_json_dict(json.loads(text))
    assert report_text(back.to_json_dict()) == text
    assert back.Lambda.tobytes() == field.Lambda.tobytes()
    for t in _field_times(field):
        assert back.jet(t).coeffs.tobytes() == field.jet(t).coeffs.tobytes()


def _unwritten_zeros(coeffs):
    """A coefficient zero in both parts is not written and comes back as +0."""
    return np.where(coeffs == 0, 0j, coeffs)


@st.composite
def _jets(draw, q, order):
    count = PolyJet.zero(q, order).tables.count
    c = np.zeros((q, count), dtype=complex)
    for j, r, re, im in draw(st.lists(st.tuples(
            st.integers(0, q - 1), st.integers(1, count - 1), _parts, _parts),
            max_size=12)):
        c[j, r] = complex(re, im)
    return PolyJet(q, order, c)


@st.composite
def _nested_jets(draw):
    """A sparse jet, alone or 1 to 3 lists and dicts deep, with siblings."""
    doc = draw(st.integers(1, 4).flatmap(
        lambda q: st.integers(1, 6).flatmap(lambda order: _jets(q, order))))
    for _ in range(draw(st.integers(0, 3))):
        sibling = draw(st.none() | st.floats() | st.text(max_size=3))
        if draw(st.booleans()):
            doc = draw(st.permutations([doc, sibling]))
        else:
            doc = {draw(st.text(max_size=3)): doc, "terms": sibling}
    return doc


@given(_nested_jets())
def test_jets_are_written_as_their_documents(doc):
    assert report_text(doc) == _reference(doc)


@st.composite
def _chains(draw):
    # a chain made directly from its parts, as a document may hold any jets
    field = draw(_fields(draw(st.sampled_from(["constant", "piecewise", "sampled"]))))
    q = field.q
    order = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 3))
    resonances = draw(st.lists(st.tuples(
        st.integers(0, q - 1), st.sampled_from(PolyJet.zero(q, order).tables.indices[1:])),
        max_size=2, unique=True))
    return LoewnerChain(
        field=field,
        horizon=horizon,
        radius=draw(_positive),
        chain_jets=tuple(draw(_jets(q, order)) for _ in range(horizon + 1)),
        resonances=ResonanceReport(
            mode=draw(st.sampled_from(["multiplicative", "additive"])),
            tolerance=draw(_positive), p=draw(st.integers(2, 9)),
            resonances=tuple(resonances)),
        certificate=draw(st.none() | _positive),
        certificate_step=draw(st.floats(0.5, 1.0)),
    )


@given(_chains())
def test_chain_document_round_trip_keeps_every_bit(chain):
    text = report_text(chain.to_json_dict())
    back = LoewnerChain.from_json_dict(json.loads(text))
    assert report_text(back.to_json_dict()) == text
    for a, b in zip(back.chain_jets, chain.chain_jets):
        assert a.coeffs.tobytes() == _unwritten_zeros(b.coeffs).tobytes()


_nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def _resonance_reports(draw):
    q = draw(st.integers(1, 3))
    order = draw(st.integers(2, 5))
    return ResonanceReport(
        mode=draw(st.sampled_from(["multiplicative", "additive"])),
        tolerance=draw(_nonnegative | _edges.map(abs)), p=draw(st.integers(2, 512)),
        resonances=tuple(draw(st.lists(st.tuples(
            st.integers(0, q - 1), st.sampled_from(PolyJet.zero(q, order).tables.indices[1:])),
            max_size=4, unique=True))))


@given(_resonance_reports())
def test_resonance_report_round_trip(report):
    text = report_text(report.to_json_dict())
    back = ResonanceReport.from_json_dict(json.loads(text))
    assert back == report
    assert report_text(back.to_json_dict()) == text


@st.composite
def _family_docs(draw):
    q = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(st.builds(complex, _parts, _parts),
                               min_size=q * q, max_size=q * q))).reshape(q, q)
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(_jets(q, order)).coeffs.copy()
        c[:, 1:1 + q] = A                # every step shares the linear part
        steps.append(PolyJet(q, order, c))
    tail = draw(st.sampled_from(["constant", "zero"]))
    return A, steps, tail


@given(_family_docs())
def test_family_document_round_trip_keeps_every_bit(parts):
    A, steps, tail = parts
    doc = {"linear_part": matrix_to_json(A),
           "steps": [s.to_json_dict() for s in steps], "tail": tail}
    back = _family_from_doc(json.loads(report_text(doc)))
    assert back.linear_part.tobytes() == A.tobytes()
    assert back.tail == tail and len(back.steps) == len(steps)
    for a, b in zip(back.steps, steps):
        assert a.coeffs.tobytes() == _unwritten_zeros(b.coeffs).tobytes()
