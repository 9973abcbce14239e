"""Every report is the text of json.dumps(doc, sort_keys=True, indent=2), and
what it holds loads back bit for bit."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loewner.cli as cli
import loewner.herglotz as herglotz
from loewner.cli import _family_from_doc, main, report_text
from loewner.herglotz import (HerglotzFieldSpec, LoewnerChain, TimeCoefficient,
                              matrix_to_json)
from loewner.jets import PolyJet
from loewner.spectral import ResonanceReport

from conftest import counterexample_field, demo_field, random_optimal_family


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
    """label -> (the document each command handed to the writer, the file,
    the ConjugacyResult a normalform command built or None)."""
    tmp = tmp_path_factory.mktemp("reports")
    handed, built = [], []
    dump, build = cli._dump, cli.build_normal_form

    def build_and_keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_dump", lambda doc, path: (handed.append(doc), dump(doc, path)))
        # a family document is normalized in cli, a field in herglotz
        mp.setattr(cli, "build_normal_form", build_and_keep)
        mp.setattr(herglotz, "build_normal_form", build_and_keep)
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
            out[label] = (handed.pop(), report.read_text(),
                          built[-1] if command == "normalform" else None)
            built.clear()
    return out


@pytest.mark.parametrize("label", [c[0] for c in COMMANDS])
def test_every_report_type_is_written_as_json_dumps(reports, label):
    doc, written, _ = reports[label]
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
    # the report states the normal form through order over the window
    # 0 .. horizon, and writes k_n for exactly that; T_n as built
    _, written, result = reports[label]
    back = json.loads(written)
    assert len(back["normalizers"]) == result.horizon + 1
    for n, loaded in enumerate(back["normalizers"]):
        want = result.normalizers[n].truncated(result.order)
        assert PolyJet.from_json_dict(loaded).coeffs.tobytes() == want.coeffs.tobytes()
    assert len(back["triangular"]) == len(result.triangular.steps)
    for loaded, built in zip(back["triangular"], result.triangular.steps):
        assert PolyJet.from_json_dict(loaded).coeffs.tobytes() == built.coeffs.tobytes()


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
    # a family document may state its constant tail or leave it implied
    tail = draw(st.sampled_from([{}, {"tail": "constant"}]))
    return A, steps, tail


@given(_family_docs())
def test_family_document_round_trip_keeps_every_bit(parts):
    A, steps, tail = parts
    doc = {"linear_part": matrix_to_json(A),
           "steps": [s.to_json_dict() for s in steps], **tail}
    back = _family_from_doc(json.loads(report_text(doc)))
    assert back.linear_part.tobytes() == A.tobytes()
    assert len(back.steps) == len(steps)
    for a, b in zip(back.steps, steps):
        assert a.coeffs.tobytes() == _unwritten_zeros(b.coeffs).tobytes()


# ---------------------------------------------------------------------- #
# the writer itself: json.dumps' text for every tree it is handed


class _Int(int):
    """An int whose repr json must not use."""
    def __repr__(self):
        return "_Int"


_strings = st.text(max_size=6) | st.sampled_from(
    ["", "\u00e9t\u00e9", "\x00\x1f\x7f\n\t", "\u2028\ud800", "\U0001f600", '"\\/'])
_floats = st.floats() | _edges | st.sampled_from([math.nan, math.inf, -math.inf])
_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2**300, 2**300)
           | st.integers().map(_Int) | _floats | _floats.map(np.float64) | _strings)
# what turns a term into a near miss, which only the generic path may write
_MISSES = {
    "extra key": lambda t: {**t, "q": 2},
    "float component": lambda t: {**t, "component": float(t["component"])},
    "bool component": lambda t: {**t, "component": True},
    "bool in index": lambda t: {**t, "index": [*t["index"], True]},
    "float in index": lambda t: {**t, "index": [*t["index"], 1.0]},
    "tuple index": lambda t: {**t, "index": tuple(t["index"])},
    "int re": lambda t: {**t, "re": 1},
    "np.float64 im": lambda t: {**t, "im": np.float64(t["im"])},
    "no im": lambda t: {k: v for k, v in t.items() if k != "im"},
}


@st.composite
def _terms(draw):
    term = {"component": draw(st.integers(-2, 5)),
            "index": draw(st.lists(st.integers(0, 3), max_size=3)),
            "re": draw(_floats), "im": draw(_floats)}
    miss = draw(st.none() | st.sampled_from(sorted(_MISSES)))
    return term if miss is None else _MISSES[miss](term)


def _containers(children):
    items = st.lists(children, max_size=4)
    return items | items.map(tuple) | st.dictionaries(_strings, children, max_size=4)


_trees = st.recursive(_leaves | _terms(), _containers, max_leaves=24)


@settings(max_examples=200)
@given(_trees)
def test_writer_is_json_dumps_on_any_tree(tree):
    assert report_text(tree) == _reference(tree)


@pytest.mark.parametrize("miss", sorted(_MISSES))
def test_near_miss_next_to_its_term_is_written_as_json_does(miss):
    # the near miss has the term's component and index, so a frame the term
    # left behind would fit it if the writer keyed frames by value alone; the
    # last tree has the term at two indentations, which need two frames
    term = {"component": 1, "index": [1, 0], "re": 0.5, "im": -0.0}
    trees = [[term, _MISSES[miss](term)], {"jets": [[term], [_MISSES[miss](term)]]},
             [[term], _MISSES[miss](term), term]]
    for tree in trees:
        assert report_text(tree) == _reference(tree)


@pytest.mark.parametrize("tree", [object(), [1, {"a": 2j}], np.int64(3), {"a": {1, 2}},
                                  np.array([1.0])])
def test_writer_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError) as ours:
        report_text(tree)
    with pytest.raises(TypeError) as theirs:
        _reference(tree)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": {None: 0}}, [{2.5: 1.0}], {"a": 1, 2: "b"}])
def test_writer_refuses_keys_that_are_not_str(tree):
    # json.dumps would write these keys as strings; no report has them
    with pytest.raises(TypeError):
        report_text(tree)


def test_writer_leaves_no_reference_cycle(reports):
    # a cycle would keep every written piece alive until the collector ran,
    # which raised the peak memory of later commands
    doc = reports["normalform-three-components"][0]
    gc.collect()
    gc.disable()
    try:
        report_text(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reports_never_reach_json_pure_python_encoder(tmp_path):
    fam = random_optimal_family(np.random.default_rng(5), 4, 3, horizon=2)
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"linear_part": matrix_to_json(fam.linear_part),
                                  "steps": [s.to_json_dict() for s in fam.steps]}))
    field = tmp_path / "field.json"
    field.write_text(json.dumps(demo_field().to_json_dict()))

    def refuse(*args, **kwargs):
        raise AssertionError("a report went through json's pure-Python encoder")

    written = {}
    with pytest.MonkeyPatch.context() as mp:
        # json.dumps calls this for every indented text before Python 3.13
        mp.setattr(json.encoder, "_make_iterencode", refuse)
        for command, source in [("normalform", family), ("chain", field)]:
            out = tmp_path / f"{command}.out.json"
            assert main([command, "--input", str(source), "--output", str(out)]) == 0
            written[command] = out.read_text()
    assert json.loads(written["normalform"])["q"] == 4
    for text in written.values():
        assert text == _reference(json.loads(text))
