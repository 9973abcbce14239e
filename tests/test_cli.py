"""End-to-end command line behavior, driven in process through main()."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loewner
from loewner import HerglotzFieldSpec, TimeCoefficient, cli, herglotz, normal_form
from loewner.cli import _build_parser, main, report_text
from loewner.herglotz import matrix_to_json
from loewner.jets import PolyJet

from conftest import counterexample_field, demo_field


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _koenigs_family_doc():
    step = PolyJet.from_terms(1, 3, {(0, (1,)): 0.5, (0, (2,)): 0.1})
    return {
        "linear_part": matrix_to_json(np.array([[0.5]], dtype=complex)),
        "steps": [step.to_json_dict() for _ in range(2)],
    }


@pytest.fixture(scope="module")
def chain_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chain")
    field = _write(tmp / "field.json", demo_field().to_json_dict())
    out = tmp / "chain.json"
    assert main(["chain", "--input", field, "--output", str(out)]) == 0
    return json.loads(out.read_text())


# ---------------------------------------------------------------------- #
# analyze


def test_analyze_reports_planted_resonance(tmp_path, capsys):
    inp = _write(tmp_path / "field.json", counterexample_field().to_json_dict())
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    found = [(e["component"], tuple(e["index"]))
             for e in doc["resonances"]["resonances"]]
    assert found == [(2, (2, 0))]
    printed = capsys.readouterr().out
    assert "component 2, index (2, 0)" in printed


def test_analyze_clean_spectrum(tmp_path):
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["resonances"]["resonances"] == []
    assert doc["q"] == 2 and doc["constants"]["ell"] >= 2


def test_analyze_is_deterministic(tmp_path):
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--input", inp, "--output", str(a)]) == 0
    assert main(["analyze", "--input", inp, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------- #
# input handling


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["analyze", "--input", str(bad)]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_missing_lambda_exits_2(tmp_path):
    inp = _write(tmp_path / "nofield.json", {"order": 3})
    assert main(["analyze", "--input", inp]) == 2


@pytest.mark.parametrize("command", ["normalform", "chain"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command):
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    target = tmp_path / "no-such-dir" / "report.json"
    assert main([command, "--input", inp, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(target) in captured.err
    assert not target.exists()


def test_unstable_spectrum_exits_3(tmp_path, capsys):
    doc = demo_field().to_json_dict()
    doc["Lambda"] = matrix_to_json(np.diag([-1.0, 0.25]).astype(complex))
    inp = _write(tmp_path / "field.json", doc)
    assert main(["analyze", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "0.25" in err


@pytest.mark.parametrize("command", ["analyze", "chain", "normalform"])
def test_spectrum_near_unit_circle_exits_3(tmp_path, capsys, command):
    # exp(-1e-4) needs resonance degree p ~ 5000 and ell far above the cap
    doc = demo_field().to_json_dict()
    doc["Lambda"] = matrix_to_json(np.diag([-1e-4, -0.5]).astype(complex))
    inp = _write(tmp_path / "field.json", doc)
    start = time.perf_counter()
    assert main([command, "--input", inp]) == 3
    assert time.perf_counter() - start < 20.0
    err = capsys.readouterr().err
    assert "precondition violated" in err and "degree cap 512" in err


@pytest.mark.parametrize("command", ["chain", "normalform"])
def test_chain_beyond_the_working_order_cap_exits_3_before_integrating(
        tmp_path, capsys, monkeypatch, command):
    # this spectrum asks for working order 264, whose multiplication table
    # alone takes minutes to build
    calls = _counting_integrate_jet(monkeypatch)
    doc = demo_field().to_json_dict()
    doc["Lambda"] = matrix_to_json(np.diag([-100.0, -1.0]).astype(complex))
    assert main([command, "--input", _write(tmp_path / "field.json", doc)]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "working order 264" in err
    assert f"limit {normal_form.MAX_WORK_ORDER}" in err
    assert calls == []


def _counting_integrate_jet(monkeypatch):
    calls = []
    integrate_jet = herglotz.integrate_jet

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_jet(*args, **kwargs)

    monkeypatch.setattr(herglotz, "integrate_jet", counted)
    return calls


@pytest.mark.parametrize("command", ["analyze", "normalform", "chain"])
def test_order_flag_beyond_the_cap_exits_3_before_integrating(
        tmp_path, capsys, monkeypatch, command):
    # the demo field's own order is 3; --order alone asks for too much
    calls = _counting_integrate_jet(monkeypatch)
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    assert main([command, "--input", inp, "--order", "40"]) == 3
    err = capsys.readouterr().err
    assert "working order 40 above the limit 18; --order sets it" in err
    assert "spectrum" not in err
    assert calls == []


@pytest.mark.parametrize("command", ["analyze", "normalform", "chain"])
def test_field_order_beyond_the_cap_exits_3_before_integrating(
        tmp_path, capsys, monkeypatch, command):
    calls = _counting_integrate_jet(monkeypatch)
    doc = demo_field().to_json_dict()
    doc["order"] = 19
    assert main([command, "--input", _write(tmp_path / "field.json", doc)]) == 3
    assert "working order 19 above the limit 18; the field's order sets it" \
        in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["normalform", "chain"])
def test_spread_spectrum_beyond_the_cap_names_the_spectrum(tmp_path, capsys, command):
    doc = demo_field().to_json_dict()
    doc["Lambda"] = matrix_to_json(np.diag([-100.0, -1.0]).astype(complex))
    assert main([command, "--input", _write(tmp_path / "field.json", doc)]) == 3
    err = capsys.readouterr().err
    assert "working order 264 above the limit 18; the spectrum is too spread out" in err
    assert "--order" not in err


def test_verify_rebuild_beyond_the_working_order_cap_exits_3(tmp_path, capsys, chain_doc):
    # the checks run on the document's jets; the rebuilt normal form of
    # this spectrum needs working order 122, above the cap
    doc = json.loads(json.dumps(chain_doc))
    doc["field"]["Lambda"] = matrix_to_json(np.diag([-0.05, -3.0]).astype(complex))
    inp = _write(tmp_path / "chain.json", doc)
    assert main(["verify", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "working order" in err
    assert "limit 18" in err


def test_verify_range_growth_beyond_the_composed_degree_cap_exits_3(
        tmp_path, capsys, chain_doc, monkeypatch):
    # a normal form the pipeline builds stays within the cap (each resonant
    # monomial matches its component's modulus), so the rebuilt family is
    # given a composed degree above it
    cap = normal_form.MAX_WORK_ORDER
    monkeypatch.setattr(normal_form.TriangularFamily, "composed_degree",
                        property(lambda self: cap + 1))
    inp = _write(tmp_path / "chain.json", chain_doc)
    assert main(["verify", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err
    assert f"composed degree {cap + 1}, above the limit {cap}" in err


def _c(re, im):
    return {"re": re, "im": im}


def _second_component_term(index, value):
    return {"component": 2, "index": index,
            "time": {"kind": "constant", "value": value}}


# Lambda = diag(a, 2a) with a in the planted benchmark band: the exact
# resonance (2, (2, 0)) sits 4e-16 off the unit circle after roundoff
A_2A_FIELD = {
    "Lambda": [[_c(-0.8643156622931031, 0.02149214514609113), _c(0.0, 0.0)],
               [_c(0.0, 0.0), _c(-1.7286313245862062, 0.04298429029218226)]],
    "order": 3,
    "terms": [_second_component_term([2, 0], _c(0.08584352150587873, -0.25226519697531413)),
              _second_component_term([3, 0], _c(0.12430635202772108, 0.13032249480272787)),
              _second_component_term([0, 2], _c(-0.02037803342445035, 0.11831895416632712)),
              _second_component_term([2, 1], _c(0.04958534302837535, -0.037993269368648594))],
    "horizon": 3.0,
}


def test_a_2a_field_reports_its_resonance_and_no_certificate(tmp_path):
    # the log-modulus gap of (2, (2, 0)) is within tau, so p = 3 and the
    # resonance stays in the normal form instead of a spectral block
    inp = _write(tmp_path / "field.json", A_2A_FIELD)
    out = tmp_path / "chain.json"
    assert main(["chain", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["resonances"]["p"] == 3
    assert doc["resonances"]["resonances"] == [{"component": 2, "index": [2, 0]}]
    assert doc["certificate"] is None


def test_near_unit_block_of_the_conjugation_operator_exits_3(tmp_path, capsys):
    # with tau = 0 the gap 4e-16 is no resonance: (2, (2, 0)) is unstable
    # and its |mu|, which rounds to 1 + 2e-16, sits on the unit circle
    inp = _write(tmp_path / "field.json", A_2A_FIELD)
    assert main(["chain", "--input", inp, "--tau", "0"]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "unstable block" in err
    assert "|mu| = 1.0000000000000002" in err


@pytest.mark.parametrize("eps,code", [(1e-6, 3), (3e-4, 0)])
def test_near_unit_family_direction_exits_3_inside_the_gap(tmp_path, capsys, eps, code):
    # 0.25 (1 + eps) / 0.5^2 puts the unstable direction (2, (0, 2, 0)) at
    # log-modulus eps, refused below log(2) / 4096 = 1.7e-4
    A = np.diag([0.7, 0.5, 0.25 * (1 + eps)]).astype(complex)
    step = PolyJet.from_linear(A, 2) + PolyJet.from_terms(
        3, 2, {(0, (1, 1, 0)): 0.1, (2, (0, 1, 1)): 0.05})
    inp = _write(tmp_path / "family.json", {"linear_part": matrix_to_json(A),
                                            "steps": [step.to_json_dict()] * 2})
    assert main(["normalform", "--input", inp,
                 "--output", str(tmp_path / "nf.json")]) == code
    if code == 3:
        err = capsys.readouterr().err
        assert "precondition violated: the unstable block" in err
        assert "at degree 2" in err and "|mu| = 1.0000009999999999" in err


def _field_doc(**change):
    doc = demo_field().to_json_dict()
    doc.update(change)
    return doc


def _lambda_entry(i, k, entry):
    doc = _field_doc()
    doc["Lambda"][i][k] = entry
    return doc


def _schedule(time):
    return _field_doc(terms=[{"component": 1, "index": [0, 2], "time": time}])


@pytest.mark.parametrize("command", ["analyze", "chain"])
@pytest.mark.parametrize("doc", [
    _schedule({"kind": "constant", "value": {"re": float("nan"), "im": 0.0}}),
    _schedule({"kind": "constant", "value": {"re": float("inf"), "im": 0.0}}),
    _field_doc(horizon=float("inf")),
    _schedule({"kind": "sampled", "times": [0.0, float("nan"), 2.0],
               "values": [{"re": 0.2, "im": 0.0}, {"re": 0.1, "im": 0.0},
                          {"re": 0.0, "im": 0.0}]}),
    _lambda_entry(0, 0, {"x": 1}),
    _lambda_entry(0, 1, "0"),
    _lambda_entry(0, 1, {"re": 0.0}),
], ids=["value-nan", "value-inf", "horizon-inf", "sampled-time-nan", "lambda-entry-dict",
        "lambda-entry-string", "lambda-entry-without-im"])
def test_malformed_field_exits_2(tmp_path, capsys, doc, command):
    inp = _write(tmp_path / "field.json", doc)
    assert main([command, "--input", inp]) == 2
    assert "malformed input" in capsys.readouterr().err


def _family_doc(**change):
    A = np.diag([0.5, 0.3]).astype(complex)
    step = PolyJet.from_linear(A, 2) + PolyJet.from_terms(2, 2, {(1, (2, 0)): 0.1})
    doc = {"linear_part": matrix_to_json(A),
           "steps": [step.to_json_dict() for _ in range(2)]}
    doc.update(change)
    return doc


def _high_index_step():
    step = _family_doc()["steps"][0]
    step["terms"].append({"component": 1, "index": [3, 0], "re": 0.1, "im": 0.0})
    return step


def _duplicated_term_step():
    step = _family_doc()["steps"][0]
    step["terms"].append(dict(step["terms"][-1], re=0.2))
    return step


_TAIL_MESSAGE = "a family has the constant tail, its steps past the window repeat the last one"


@pytest.mark.parametrize("doc,message", [
    (_family_doc(steps=[_high_index_step()]), "bad multi-index [3, 0]"),
    (_family_doc(steps=[PolyJet.identity(3, 2).to_json_dict()]), "dimension"),
    (_family_doc(tail="bogus"), _TAIL_MESSAGE),
    (_family_doc(tail="zero"), _TAIL_MESSAGE),
    (_family_doc(steps=[]), "at least one step"),
    (_family_doc(steps=[_family_doc()["steps"][0], PolyJet.from_linear(
        np.diag([0.6, 0.3]).astype(complex), 2).to_json_dict()]), "linear part off"),
    (_family_doc(steps=[_duplicated_term_step()]),
     "term (component 2, index [2, 0]) is listed twice"),
], ids=["index-above-order", "q3-step", "bogus-tail", "zero-tail", "no-steps",
        "drifting-linear-part", "duplicated-term"])
def test_malformed_family_exits_2(tmp_path, capsys, doc, message):
    inp = _write(tmp_path / "family.json", doc)
    assert main(["normalform", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and message in err


def test_family_tail_may_be_stated_or_left_out(tmp_path):
    reports = []
    for name, doc in [("implied", _family_doc()), ("stated", _family_doc(tail="constant"))]:
        out = tmp_path / f"{name}.json"
        assert main(["normalform", "--input", _write(tmp_path / f"{name}-in.json", doc),
                     "--output", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1] and '"tail": "constant"' in reports[0]


@pytest.mark.parametrize("linear", [
    np.diag([0.3, 0.5]),
    np.array([[0.5, 0.1], [0.0, 0.3]]),
    np.diag([1.2, 0.5]),
    np.diag([0.5, 0.0]),
], ids=["increasing-moduli", "upper-triangular", "expanding", "singular"])
def test_family_linear_part_outside_optimal_form_exits_3(tmp_path, capsys, linear):
    A = linear.astype(complex)
    step = PolyJet.from_linear(A, 2) + PolyJet.from_terms(2, 2, {(1, (2, 0)): 0.1})
    inp = _write(tmp_path / "family.json", {"linear_part": matrix_to_json(A),
                                            "steps": [step.to_json_dict()] * 2})
    assert main(["normalform", "--input", inp]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ")
    if np.all(np.diagonal(A)):
        assert "the linear part must be in optimal form" in err
    else:
        assert "eigenvalue 0j has modulus outside (0, 1)" in err


def _lower_order_jet(doc):
    lower = PolyJet.from_json_dict(doc["jets"][2]).truncated(doc["order"] - 1)
    return {"jets": doc["jets"][:2] + [lower.to_json_dict()] + doc["jets"][3:]}


_MISSING = object()  # a change that drops its key from the document


@pytest.mark.parametrize("change", [
    lambda doc: {"certificate_step": _MISSING},
    lambda doc: {"certificate_step": 0},
    lambda doc: {"certificate_step": -0.5},
    # a step above 1 skips chain jets; one far below the half-step grid
    # asks for thousands of transition integrations
    lambda doc: {"certificate_step": 3},
    lambda doc: {"certificate_step": 1e-4},
    lambda doc: {"certificate_step": float("nan")},
    lambda doc: {"radius": float("nan")},
    lambda doc: {"radius": float("inf")},
    lambda doc: {"radius": -1},
    lambda doc: {"horizon": 0, "jets": doc["jets"][:1]},
    lambda doc: {"certificate": float("nan")},
    lambda doc: {"resonances": {**doc["resonances"], "tolerance": float("nan")}},
    lambda doc: {"resonances": {**doc["resonances"], "tolerance": -1}},
    lambda doc: {"jets": [PolyJet.identity(3, doc["order"]).to_json_dict()
                          for _ in doc["jets"]]},
    _lower_order_jet,
], ids=["certificate-step-missing", "certificate-step-zero", "certificate-step-negative",
        "certificate-step-3", "certificate-step-1e-4", "certificate-step-nan", "radius-nan",
        "radius-inf", "radius-negative", "horizon-zero", "certificate-nan", "tolerance-nan",
        "tolerance-negative", "q3-jets", "lower-order-jet"])
def test_out_of_range_chain_exits_2(tmp_path, capsys, chain_doc, change):
    doc = {**chain_doc, **change(chain_doc)}
    dropped = [key for key, value in doc.items() if value is _MISSING]
    inp = _write(tmp_path / "chain.json",
                 {key: value for key, value in doc.items() if value is not _MISSING})
    # main returns instead of raising: no traceback reaches the user
    assert main(["verify", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err
    assert all(key in err for key in dropped)


def test_chain_document_with_a_duplicated_jet_term_exits_2(tmp_path, capsys, chain_doc):
    jet = json.loads(json.dumps(chain_doc["jets"][1]))
    jet["terms"].append(dict(jet["terms"][0], re=jet["terms"][0]["re"] + 1.0))
    term = jet["terms"][0]
    doc = {**chain_doc, "jets": [chain_doc["jets"][0], jet, *chain_doc["jets"][2:]]}
    assert main(["verify", "--input", _write(tmp_path / "chain.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err
    assert (f"term (component {term['component']}, index {term['index']}) "
            "is listed twice") in err


def test_old_chain_document_with_basis_change_verifies(tmp_path, chain_doc):
    # earlier versions wrote a basis_change and constants that nothing read;
    # the loader ignores them, whatever they hold
    doc = {**chain_doc, "basis_change": [[{"re": 1.0, "im": 0.0}]],
           "constants": {"s": 1e6, "C": -5.0}}
    assert "basis_change" not in chain_doc and "constants" not in chain_doc
    assert main(["verify", "--input", _write(tmp_path / "chain.json", doc)]) == 0


@pytest.fixture(scope="module")
def chain_verify_report(tmp_path_factory, chain_doc):
    tmp = tmp_path_factory.mktemp("verify")
    out = tmp / "report.json"
    assert main(["verify", "--input", _write(tmp / "chain.json", chain_doc),
                 "--output", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("step_tol", [1e-10, -1, 1e-30],
                         ids=["step-tol-1e-10", "step-tol-negative", "step-tol-1e-30"])
def test_old_chain_document_with_step_tol_verifies(tmp_path, chain_doc, chain_verify_report,
                                                   step_tol):
    # earlier versions wrote the step tolerance of the transition jets, which
    # now always run to roundoff; the loader ignores the key, whatever it holds
    assert "step_tol" not in chain_doc
    out = tmp_path / "report.json"
    inp = _write(tmp_path / "chain.json", {**chain_doc, "step_tol": step_tol})
    assert main(["verify", "--input", inp, "--output", str(out)]) == 0
    assert out.read_text() == chain_verify_report


# top-level mutations that leave a well-formed document: a chain may declare
# no certificate, as a resonant one does; on these resonance-free chains the
# resonances gate fails it (exit 1, MUTATIONS)
GATED_MUTATIONS = {("certificate", "null")}
REPLACEMENTS = {"null": None, "string": "text", "list": [1], "dict": {"x": 1},
                "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
                "negative": -1}


@given(data=st.data())
@settings(max_examples=60)
def test_chain_document_fuzz_exits_2_or_3(tmp_path_factory, chain_doc, data):
    key = data.draw(st.sampled_from(sorted(chain_doc)), label="key")
    numeric = type(chain_doc[key]) in (int, float)
    kinds = ["drop", "null", "string", "list", "dict"] + (
        ["nan", "inf", "-inf", "negative"] if numeric else [])
    kind = data.draw(st.sampled_from(
        [k for k in kinds if (key, k) not in GATED_MUTATIONS]), label="mutation")
    doc = {k: v for k, v in chain_doc.items() if k != key}
    if kind != "drop":
        doc[key] = REPLACEMENTS[kind]
    inp = _write(tmp_path_factory.mktemp("fuzz") / "chain.json", doc)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--input", inp]) in (2, 3)


# mutations that leave a document that verifies: chains without a certificate
# used to write constants null, and the loader ignores that key
VALID_MUTATIONS = {("constants", "null")}


@pytest.mark.parametrize("key, kind", sorted(VALID_MUTATIONS))
def test_chain_document_valid_mutations_verify(tmp_path, chain_doc, key, kind):
    doc = {**chain_doc, key: REPLACEMENTS[kind]}
    assert main(["verify", "--input", _write(tmp_path / "chain.json", doc)]) == 0


@pytest.fixture(scope="module")
def resonant_chain_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("resonant")
    field = _write(tmp / "field.json", counterexample_field().to_json_dict())
    out = tmp / "chain.json"
    assert main(["chain", "--input", field, "--output", str(out)]) == 0
    return json.loads(out.read_text())


def _nested_entries(doc):
    """Each nested entry of a chain document the nested fuzz mutates, as
    {target: [(container, key), ...]}."""
    lam, res = doc["field"]["Lambda"], doc["resonances"]
    jet_terms = [term for jet in doc["jets"] for term in jet["terms"]]
    entries = {"Lambda entry": [(row, k) for row in lam for k in range(len(row))],
               "resonance entry": [(res["resonances"], k)
                                   for k in range(len(res["resonances"]))]}
    for part in ("re", "im"):
        entries[f"Lambda {part}"] = [(entry, part) for row in lam for entry in row]
    for key in ("component", "index", "time"):
        entries[f"field term {key}"] = [(term, key) for term in doc["field"]["terms"]]
    for key in ("component", "index", "re", "im"):
        entries[f"jet term {key}"] = [(term, key) for term in jet_terms]
    for key in ("p", "mode", "tolerance"):
        entries[key] = [(res, key)]
    return {target: found for target, found in entries.items() if found}


# the nested mutations that leave a valid document are those that write the
# value the entry already holds, such as -1 into the re of the demo field's
# Lambda[1][1]: the document is then unchanged and must verify
@given(data=st.data())
@settings(max_examples=60)
def test_nested_chain_document_fuzz_exits_1_2_or_3(tmp_path_factory, chain_doc,
                                                   resonant_chain_doc, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from([chain_doc, resonant_chain_doc]),
                                          label="chain")))
    entries = _nested_entries(doc)
    target = data.draw(st.sampled_from(sorted(entries)), label="target")
    container, key = data.draw(st.sampled_from(entries[target]), label="entry")
    numeric = type(container[key]) in (int, float)
    kinds = ["drop", "null", "string", "list", "dict"] + (
        ["nan", "inf", "-inf", "negative"] if numeric else [])
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    unchanged = kind != "drop" and container[key] == REPLACEMENTS[kind]
    if kind == "drop":
        del container[key]
    else:
        container[key] = REPLACEMENTS[kind]
    inp = _write(tmp_path_factory.mktemp("fuzz") / "chain.json", doc)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--input", inp])
    assert (code == 0) if unchanged else (code in (1, 2, 3))


def test_empty_sample_budget_exits_3(tmp_path, chain_doc):
    inp = _write(tmp_path / "chain.json", chain_doc)
    assert main(["verify", "--input", inp, "--samples", "0"]) == 3


# ---------------------------------------------------------------------- #
# normalform


def test_normalform_koenigs_family(tmp_path, capsys):
    inp = _write(tmp_path / "family.json", _koenigs_family_doc())
    out = tmp_path / "nf.json"
    assert main(["normalform", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"] == "linearizable"
    k0 = {tuple(t["index"]): complex(t["re"], t["im"])
          for t in doc["normalizers"][0]["terms"]}
    assert abs(k0[(2,)] - 0.4) < 1e-10
    assert "no resonances" in capsys.readouterr().out


def test_normalform_cluster_whose_inverse_pivots(tmp_path):
    # |0.5| > |0.3| makes the block inversion of the linear part swap rows;
    # the normal form must still see an exactly lower-triangular inverse
    A = np.array([[0.3, 0.0], [0.5, 0.3 * np.exp(0.7j)]])
    step = PolyJet.from_linear(A, 3) + PolyJet.from_terms(
        2, 3, {(0, (1, 1)): 0.1, (1, (2, 0)): 0.05, (1, (0, 3)): 0.02j})
    inp = _write(tmp_path / "family.json", {"linear_part": matrix_to_json(A),
                                            "steps": [step.to_json_dict()] * 2})
    out = tmp_path / "nf.json"
    assert main(["normalform", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["certificate"] == "linearizable"


def test_normalform_field_input(tmp_path, capsys):
    inp = _write(tmp_path / "field.json", counterexample_field().to_json_dict())
    out = tmp_path / "nf.json"
    assert main(["normalform", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"] == "resonant-normal-form"
    assert "component 2, index (2, 0)" in capsys.readouterr().out


def test_normalform_of_a_field_states_its_flows_normal_form(tmp_path, monkeypatch):
    # the demo field has order 3 and works at order 4: the family is the
    # flow integrated at order 4, not order 3 jets padded with zeros
    field = demo_field()
    want = normal_form.build_normal_form(
        herglotz.discretize(herglotz.ContinuousEvolution(field, 4), 3), order=3, horizon=3)
    assert want.work_order == 4
    inp = _write(tmp_path / "field.json", field.to_json_dict())
    out = tmp_path / "nf.json"
    assert main(["normalform", "--input", inp, "--output", str(out)]) == 0
    assert out.read_text() == report_text(
        {"schema": "loewner-normalform/1", **want.to_json_dict()})

    # the optimal form of exp(Lambda) is the field's, made once per command
    calls = []
    to_optimal_form = herglotz.to_optimal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return to_optimal_form(*args, **kwargs)

    monkeypatch.setattr(herglotz, "to_optimal_form", counted)
    assert main(["chain", "--input", inp, "--output", str(tmp_path / "chain.json")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------- #
# chain + verify round trip


def test_chain_report_shape(chain_doc):
    assert chain_doc["schema"] == "loewner-chain/1"
    assert chain_doc["certificate"] is not None
    assert len(chain_doc["jets"]) == chain_doc["horizon"] + 1


def test_verify_passes_good_chain(tmp_path, chain_doc, capsys):
    inp = _write(tmp_path / "chain.json", chain_doc)
    out = tmp_path / "verdict.json"
    assert main(["verify", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["failures"] == []
    assert sorted(doc["checks"]) == [
        "attraction", "linear-part", "normalization-bound", "range-growth",
        "resonances", "transition-containment", "transition-field-match", "univalence"]
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_flags_corrupted_coefficient(tmp_path, chain_doc, capsys):
    doc = json.loads(json.dumps(chain_doc))
    term = doc["jets"][1]["terms"][1]
    term["re"] += 1e-3
    inp = _write(tmp_path / "chain.json", doc)
    assert main(["verify", "--input", inp]) == 1
    assert "verify: FAIL" in capsys.readouterr().err


# horizon 3, q = 2, one piecewise and one sampled coefficient, with
# interior breakpoints off the half-step grid
TIMEVARYING_FIELD = {
    "Lambda": [[_c(-0.7, 0.0), _c(0.0, 0.0)], [_c(0.0, 0.0), _c(-1.1, 0.0)]],
    "order": 3,
    "terms": [
        {"component": 1, "index": [0, 2],
         "time": {"kind": "piecewise", "times": [0.0, 1.3, 2.2],
                  "values": [_c(0.2, 0.0), _c(-0.1, 0.05), _c(0.15, 0.0)]}},
        {"component": 2, "index": [1, 1],
         "time": {"kind": "sampled", "times": [0.4, 1.7, 2.6],
                  "values": [_c(0.1, -0.05), _c(0.0, 0.1), _c(-0.1, 0.0)]}},
    ],
    "horizon": 3.0,
}


@pytest.fixture(scope="module")
def timevarying_chain_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("timevarying")
    field = _write(tmp / "field.json", TIMEVARYING_FIELD)
    out = tmp / "chain.json"
    assert main(["chain", "--input", field, "--output", str(out)]) == 0
    return json.loads(out.read_text())


def _nonlinear_term(doc, n):
    return next(term for term in doc["jets"][n]["terms"] if sum(term["index"]) >= 2)


def _first_field_coefficient(doc):
    time = doc["field"]["terms"][0]["time"]
    return time["value"] if time["kind"] == "constant" else time["values"][0]


def _shift_real_part(entry):
    entry["re"] += 1e-3


def _scale_every_jet_coefficient(doc):
    for jet in doc["jets"]:
        for term in jet["terms"]:
            term["re"] *= 1.001
            term["im"] *= 1.001


# each mutation of a chain document, and a gate that must catch it
MUTATIONS = {
    "f1-term": (lambda doc: _shift_real_part(_nonlinear_term(doc, 1)),
                "transition-field-match"),
    "f3-term": (lambda doc: _shift_real_part(_nonlinear_term(doc, 3)),
                "transition-field-match"),
    "field-coefficient": (lambda doc: _shift_real_part(_first_field_coefficient(doc)),
                          "transition-field-match"),
    "lambda-11": (lambda doc: _shift_real_part(doc["field"]["Lambda"][0][0]), "linear-part"),
    "jets-scaled": (_scale_every_jet_coefficient, "linear-part"),
    "radius-1.5": (lambda doc: doc.update(radius=1.5 * doc["radius"]),
                   "normalization-bound"),
    "certificate-halved": (lambda doc: doc.update(certificate=0.5 * doc["certificate"]),
                           "normalization-bound"),
    "radius-1e6": (lambda doc: doc.update(radius=1e6 * doc["radius"]),
                   "transition-containment"),
    "certificate-null": (lambda doc: doc.update(certificate=None), "resonances"),
    "resonance-bogus": (lambda doc: doc["resonances"].update(
        p=7, resonances=[{"component": 2, "index": [2, 0]}]), "resonances"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("chain", ["chain_doc", "timevarying_chain_doc"])
def test_verify_mutation_matrix(tmp_path, request, chain, mutation):
    doc = json.loads(json.dumps(request.getfixturevalue(chain)))
    mutate, gate = MUTATIONS[mutation]
    mutate(doc)
    inp = _write(tmp_path / "chain.json", doc)
    out = tmp_path / "verdict.json"
    assert main(["verify", "--input", inp, "--output", str(out)]) == 1
    verdict = json.loads(out.read_text())
    assert verdict["passed"] is False and gate in verdict["failures"]


def test_verify_rejects_non_chain_documents(tmp_path):
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    assert main(["verify", "--input", inp]) == 2


# the optional flags each cmd_* reads from args, with a value to pass
READ_FLAGS = {
    "analyze": {"order": 3, "tau": 1e-8},
    "normalform": {"order": 3, "tau": 1e-8, "horizon": 2},
    "chain": {"order": 3, "tau": 1e-8, "horizon": 2},
    "verify": {"tol": 1e-5, "samples": 5, "seed": 1},
}


# values outside each numeric flag's range
OUT_OF_RANGE = {
    "tau": ["nan", "inf", "-1e-12"],
    "tol": ["nan", "inf", "0", "-1"],
    "order": ["0", "-3"],
    "horizon": ["0", "-1"],
    "seed": ["-1", "-2"],
}


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command in sorted(READ_FLAGS)
    for flag, values in OUT_OF_RANGE.items() if flag in READ_FLAGS[command]
    for value in values])
def test_out_of_range_flag_exits_2_and_names_the_flag(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", "x.json", f"--{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument --{flag}: must be" in capsys.readouterr().err


# --tol is verify's attraction ball; the transition jets, which the other
# field commands integrate, run to roundoff and take no tolerance
@pytest.mark.parametrize("argv", [["chain", "--samples", "5"], ["verify", "--order", "4"]] + [
    pytest.param([command, f"--tol={value}"], id=f"{command}-tol-{value}")
    for command in ("analyze", "chain", "normalform")
    for value in ["1e-10", "1e-30"] + OUT_OF_RANGE["tol"]])
def test_parser_rejects_flags_a_command_ignores(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv + ["--input", "x.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_parser_accepts_every_flag_a_command_reads(command):
    flags = READ_FLAGS[command]
    argv = [command, "--input", "x.json"]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    args = _build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in flags} == flags


def test_one_parser_serves_a_command_rebound_after_first_use(monkeypatch, tmp_path):
    # the parser is built once per process, but main looks the command up
    # when it runs: a cmd_* rebound after the first call (as a tracer
    # rebinds it) serves the next one
    parsers = []

    def recorded_parser(_build=cli._build_parser):
        parsers.append(_build())
        return parsers[-1]

    monkeypatch.setattr(cli, "_build_parser", recorded_parser)
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    assert main(["analyze", "--input", inp, "--output", str(tmp_path / "a.json")]) == 0
    seen = []

    def recorder(args):
        seen.append(args.command)
        return 0

    monkeypatch.setattr(cli, "cmd_chain", recorder)
    assert main(["chain", "--input", inp]) == 0
    assert seen == ["chain"]
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def _env_with_package():
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(loewner.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s and 15 MB per process; the package
    # needs none of it
    env = _env_with_package()
    code = ("import loewner.cli, sys; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


README_FIELD = {
    "Lambda": [[{"re": -0.6, "im": 0.0}, {"re": 0.0, "im": 0.0}],
               [{"re": 0.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]],
    "order": 3,
    "terms": [{"component": 1, "index": [0, 2],
               "time": {"kind": "constant", "value": {"re": 0.2, "im": 0.0}}}],
    "horizon": 3.0,
}


def test_cli_chain_leaves_scipy_sparse_unloaded(tmp_path):
    # the jet products scatter with numpy alone; scipy.sparse would add
    # its import time to every chain command
    env = _env_with_package()
    inp = _write(tmp_path / "field.json", README_FIELD)
    code = ("import sys; from loewner.cli import main; "
            "rc = main(sys.argv[1:]); "
            "sys.exit(rc or 10 * ('scipy.sparse' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, "chain", "--input", inp,
                           "--output", str(tmp_path / "chain.json")], env=env)
    assert proc.returncode == 0


def _unsorted_diagonal_field():
    """q = 3, diagonal Lambda whose exp has moduli out of order: to_optimal_form
    sorts them by a Schur form and decouples three clusters."""
    Lam = np.diag([-1.0, -0.35, -0.55]).astype(complex)
    return HerglotzFieldSpec(Lam, 3, ((0, (0, 2, 0), TimeCoefficient.constant(0.1)),
                                      (2, (1, 1, 0), TimeCoefficient.constant(0.05j))),
                             horizon=2.0)


def test_commands_on_diagonal_documents_load_no_scipy(tmp_path):
    # scipy.linalg alone costs a process about 0.25 s and 15 MB; a diagonal
    # Lambda or A reaches none of it, nor scipy.special, sparse or optimize
    field = _unsorted_diagonal_field()
    assert field.optimal.cluster_sizes == (1, 1, 1)
    assert not np.array_equal(field.optimal.basis_change, np.eye(3))
    A = np.diag([0.5, 0.3]).astype(complex)
    step = PolyJet.from_linear(A, 3) + PolyJet.from_terms(
        2, 3, {(0, (1, 1)): 0.1, (1, (2, 0)): 0.05})
    family = _write(tmp_path / "family.json", {"linear_part": matrix_to_json(A),
                                               "steps": [step.to_json_dict()] * 2})
    chain = str(tmp_path / "chain.json")
    steps = [
        ["chain", "--input", _write(tmp_path / "field.json", field.to_json_dict()),
         "--output", chain],
        ["verify", "--input", chain],
        ["normalform", "--input", family],
    ]
    code = ("import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import loewner.cli\n"
            "seen = [('import', 0, loaded())]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append((argv[0], loewner.cli.main(argv), loaded()))\n"
            "print(json.dumps(seen))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(steps)],
                          env=_env_with_package(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # at each point: exit code 0 and no scipy module loaded
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [point, 0, []] for point in ("import", "chain", "verify", "normalform")]


def test_chain_report_script_saves_a_verifiable_chain(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = _env_with_package()
    doc = tmp_path / "chain.json"
    report = subprocess.run([sys.executable, str(root / "scripts" / "chain_report.py"),
                             "--save", str(doc)], env=env, capture_output=True, text=True)
    assert report.returncode == 0, report.stderr
    assert "range growth:" in report.stdout
    # one row per half-step interval of the demo chain's grid [0, 3]
    lines = report.stdout.splitlines()
    first = lines.index("  interval      pieces  terms") + 1
    rows = [line.split("]")[1].split() for line in lines[first:first + 6]]
    # each half series runs at least one piece
    assert all(int(pieces) >= 2 and int(terms) > int(pieces) for pieces, terms in rows)
    assert lines[first + 6].startswith("pde residual")
    saved = doc.read_text()
    assert saved == report_text(json.loads(saved))
    verify = subprocess.run([sys.executable, "-m", "loewner.cli", "verify", "--input", str(doc),
                             "--output", str(tmp_path / "verify.json")],
                            env=env, capture_output=True, text=True)
    assert verify.returncode == 0, verify.stderr
    assert "verify: PASS" in verify.stdout


def test_report_drift_script_lists_changed_flags_and_drift(tmp_path):
    root = Path(__file__).resolve().parents[1]
    report = {"passed": True, "checks": {"linear-part": {"passed": True, "defect": 1e-12}},
              "certificate": 0.25}
    for name, defect, passed in (("base", 1e-12, True), ("new", 3e-12, False)):
        d = tmp_path / name
        d.mkdir()
        (d / "exits.json").write_text(json.dumps({"fields-q-s11-r0-0.verify": int(not passed)}))
        report["checks"]["linear-part"].update(defect=defect, passed=passed)
        (d / "fields-q-s11-r0-0.verify.json").write_text(report_text(report))
        (d / "fields-q-s11-r0-0.chain.json").write_text(report_text({"certificate": 0.25}))
    run = subprocess.run([sys.executable, str(root / "scripts" / "report_drift.py"), "compare",
                          str(tmp_path / "base"), str(tmp_path / "new")],
                         capture_output=True, text=True)
    assert run.returncode == 1, run.stderr
    out = run.stdout
    assert "exit code changed: fields-q-s11-r0-0.verify: 0 -> 1" in out
    assert "passed changed: fields-q-s11-r0-0.verify.json checks.linear-part: True -> False" in out
    assert "fields-q chain: 1 reports, 1 byte-identical" in out
    assert "checks                       rel 6.67e-01" in out
    assert "verify checks.linear-part.defect: rose 1, fell 0" in out


def test_resonance_cascade_script_withholds_the_certificate():
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "scripts" / "resonance_cascade.py"),
                          "--cs", "0.3"], env=_env_with_package(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "component 2 ~ index (2, 0)" in run.stdout
    assert "withheld" in run.stdout


def test_koenigs_sweep_script_matches_the_iteration_limit():
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "scripts" / "koenigs_sweep.py")],
                         env=_env_with_package(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.split()[-4:] == ["jet", "gap", "ext", "gap"]
    assert len(rows) == 6
    for row in rows:
        jet_gap, ext_gap = (float(v) for v in row.split()[-2:])
        assert jet_gap <= 1e-10 and ext_gap <= 1e-7, row
