"""End-to-end command line behavior, driven in process through main()."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import loewner
from loewner.cli import main
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


@pytest.mark.parametrize("doc", [
    _family_doc(steps=[_high_index_step()]),
    _family_doc(steps=[PolyJet.identity(3, 2).to_json_dict()]),
    _family_doc(tail="bogus"),
    _family_doc(steps=[]),
    _family_doc(steps=[_family_doc()["steps"][0], PolyJet.from_linear(
        np.diag([0.6, 0.3]).astype(complex), 2).to_json_dict()]),
], ids=["index-above-order", "q3-step", "bogus-tail", "no-steps", "drifting-linear-part"])
def test_malformed_family_exits_2(tmp_path, capsys, doc):
    inp = _write(tmp_path / "family.json", doc)
    assert main(["normalform", "--input", inp]) == 2
    assert "malformed input" in capsys.readouterr().err


def _lower_order_jet(doc):
    lower = PolyJet.from_json_dict(doc["jets"][2]).truncated(doc["order"] - 1)
    return {"jets": doc["jets"][:2] + [lower.to_json_dict()] + doc["jets"][3:]}


@pytest.mark.parametrize("change", [
    lambda doc: {"certificate_step": 0},
    lambda doc: {"certificate_step": -0.5},
    lambda doc: {"radius": float("nan")},
    lambda doc: {"radius": float("inf")},
    lambda doc: {"radius": -1},
    lambda doc: {"step_tol": -1},
    lambda doc: {"horizon": 0, "jets": doc["jets"][:1]},
    lambda doc: {"certificate": float("nan")},
    lambda doc: {"basis_change": [[{"re": 1.0, "im": 0.0}]]},
    lambda doc: {"jets": [PolyJet.identity(3, doc["order"]).to_json_dict()
                          for _ in doc["jets"]]},
    _lower_order_jet,
], ids=["certificate-step-zero", "certificate-step-negative", "radius-nan",
        "radius-inf", "radius-negative", "step-tol-negative", "horizon-zero",
        "certificate-nan", "basis-change-1x1", "q3-jets", "lower-order-jet"])
def test_out_of_range_chain_exits_2(tmp_path, capsys, chain_doc, change):
    inp = _write(tmp_path / "chain.json", {**chain_doc, **change(chain_doc)})
    # main returns instead of raising: no traceback reaches the user
    assert main(["verify", "--input", inp]) == 2
    assert "malformed input" in capsys.readouterr().err


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


def test_normalform_field_input(tmp_path, capsys):
    inp = _write(tmp_path / "field.json", counterexample_field().to_json_dict())
    out = tmp_path / "nf.json"
    assert main(["normalform", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"] == "resonant-normal-form"
    assert "component 2, index (2, 0)" in capsys.readouterr().out


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
    assert "verify: PASS" in capsys.readouterr().out


def test_verify_flags_corrupted_coefficient(tmp_path, chain_doc, capsys):
    doc = json.loads(json.dumps(chain_doc))
    term = doc["jets"][1]["terms"][1]
    term["re"] += 1e-3
    inp = _write(tmp_path / "chain.json", doc)
    assert main(["verify", "--input", inp]) == 1
    assert "verify: FAIL" in capsys.readouterr().err


def test_verify_rejects_non_chain_documents(tmp_path):
    inp = _write(tmp_path / "field.json", demo_field().to_json_dict())
    assert main(["verify", "--input", inp]) == 2


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.2 s and 15 MB per process; the package
    # needs none of it (the tests use it as a reference only)
    src = str(Path(loewner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import loewner.cli, sys; "
            "sys.exit('scipy.optimize' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
