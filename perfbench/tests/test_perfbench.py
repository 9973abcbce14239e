"""Tests of the benchmark itself: generators, tracer and job checks.

Run with `python -m pytest perfbench/tests` from the repository root.
"""
import json
import time

import numpy as np
import pytest

import inputs
import spans
import workloads
from loewner import cli, herglotz, jets, normal_form

DEMO_FIELD = {
    "Lambda": [[{"re": -0.6, "im": 0.0}, {"re": 0.0, "im": 0.0}],
               [{"re": 0.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]],
    "order": 3,
    "terms": [
        {"component": 1, "index": [0, 2],
         "time": {"kind": "constant", "value": {"re": 0.2, "im": 0.0}}},
        {"component": 2, "index": [1, 1],
         "time": {"kind": "constant", "value": {"re": 0.1, "im": -0.05}}},
    ],
    "horizon": 3.0,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_for_a_seed(name):
    for i, slot in enumerate(workloads.WORKLOADS[name]):
        a = slot.make(np.random.default_rng([7, i]))
        b = slot.make(np.random.default_rng([7, i]))
        c = slot.make(np.random.default_rng([8, i]))
        assert inputs.dump(a) == inputs.dump(b)
        assert inputs.digest(a) == inputs.digest(b) != inputs.digest(c)


def test_traced_chain_nests_every_call(tmp_path):
    source = tmp_path / "field.json"
    source.write_text(json.dumps(DEMO_FIELD))
    original = jets.compose
    tracer = spans.Tracer()
    tracer.job = 0
    t0 = time.perf_counter()
    with tracer:
        assert herglotz.compose is not original
        assert herglotz.compose.__wrapped__ is original
        code = cli.main(["chain", "--input", str(source),
                         "--output", str(tmp_path / "chain.json")])
    elapsed = time.perf_counter() - t0
    assert code == 0
    # the wrappers' estimated cost is some, but not all, of the traced time
    assert 0.0 < tracer.overhead_s() < elapsed
    names = [s[0] for s in tracer.spans]

    def parents(child):
        return {names[s[3]] for s in tracer.spans if s[0] == child and s[3] >= 0}

    assert "herglotz.discretize" in parents("herglotz.integrate_jet")
    assert "normal_form.normal_form_step" in parents("jets.compose")
    # compose inside the RK stages is reached through herglotz's own binding
    assert "herglotz.integrate_jet" in parents("jets.compose")
    assert names[0] == "cli.chain" and all(s[3] >= 0 for s in tracer.spans[1:])
    # uninstalling restores every binding
    assert herglotz.compose is normal_form.compose is jets.compose is original
    assert not hasattr(herglotz.integrate_jet, "__wrapped__")


def test_planted_family_resonance_is_classified(tmp_path):
    doc = inputs.family_doc(np.random.default_rng(3), 3, 3, (0.8, 0.7, 0.5),
                            resonant=True)
    slot = workloads.Slot("q3-resonant", 3, resonant=True, degree=3,
                          nominal=(0.8, 0.7, 0.5))
    job = workloads.run_job(0, slot, doc, tmp_path, probe=None)
    assert not job.failed, job.failures + job.wrong
    report = json.loads((tmp_path / "job0.nf.json").read_text())
    assert report["certificate"] == "resonant-normal-form"


def test_layer_metrics_from_spans():
    key = (3, 1e-10, 1.0, b"", ())
    # name, start, end, parent, job, attribute
    trace = [
        ["herglotz.build_chain", 0.0, 10.0, -1, 0, None],
        ["herglotz.discretize", 1.0, 5.0, 0, 0, None],
        ["herglotz.integrate_jet", 1.0, 3.0, 1, 0, key],
        ["jets.compose", 1.5, 2.0, 2, 0, True],
        ["herglotz.integrate_jet", 3.0, 5.0, 1, 0, key],
        ["herglotz.integrate_jet", 6.0, 7.0, -1, 1, key],
    ]
    assert spans.self_times(trace) == [6.0, 0.0, 1.5, 0.5, 2.0, 1.0]
    m = spans.layer_metrics(trace, jobs=2)
    assert m["herglotz.integrate_jet.calls"] == 1.5
    assert m["herglotz.integrate_jet.repeat_share"] == pytest.approx(1 / 3)
    assert m["herglotz.integrate_jet.compose_per_call"] == pytest.approx(1 / 3)
    assert m["jets.compose.in_flow.self_s"] == 0.25
    assert m["jets.compose.sparse_share"] == 1.0
    assert m["herglotz.build_chain.passes"] == 1.0
    assert set(m) | {"trace.overhead_frac"} == set(spans.metric_units())
