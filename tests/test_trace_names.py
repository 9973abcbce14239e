"""The benchmark's tracer patches package functions by name; each name it
lists must still resolve, and each span attribute it computes from a traced
call's arguments must still bind, or a traced run breaks."""

import importlib
import importlib.util
import json
from pathlib import Path

from loewner import cli

from conftest import demo_field

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _resolves(module_name: str, attr: str) -> bool:
    home = importlib.import_module(f"loewner.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(home, attr, None))


def test_traced_names_resolve():
    spans = _spans_module()
    assert spans.TRACED
    missing = [f"{module_name}.{attr}" for module_name, attr, _ in spans.TRACED
               if not _resolves(module_name, attr)]
    assert not missing, missing


def test_traced_chain_binds_every_span_attribute(tmp_path):
    # the tracer binds integrate_jet's arguments by name (field, s, t,
    # order, tol) for its reuse key; a failed bind raises out of the call
    spans = _spans_module()
    inp = tmp_path / "field.json"
    inp.write_text(json.dumps(demo_field().to_json_dict()))
    with spans.Tracer() as tracer:
        assert cli.main(["chain", "--input", str(inp),
                         "--output", str(tmp_path / "chain.json")]) == 0
    flow = [span for span in tracer.spans if span[0] == "herglotz.integrate_jet"]
    assert flow
    # the demo field's coefficients are constant, so every key is computed
    assert all(span[5] is not None for span in flow)


def test_traced_chain_runs_one_defect_per_normal_form_step(tmp_path):
    # a degree's defect is one window-wide call, made inside its stage: the
    # benchmark's normal_form.defect layer counts stages, not steps n
    spans = _spans_module()
    inp = tmp_path / "field.json"
    inp.write_text(json.dumps(demo_field().to_json_dict()))
    with spans.Tracer() as tracer:
        assert cli.main(["chain", "--input", str(inp),
                         "--output", str(tmp_path / "chain.json")]) == 0
    stages = [i for i, span in enumerate(tracer.spans)
              if span[0] == "normal_form.normal_form_step"]
    parents = [span[3] for span in tracer.spans if span[0] == "normal_form.defect"]
    assert stages
    assert sorted(parents) == stages
