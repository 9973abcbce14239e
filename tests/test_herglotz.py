"""Continuous-time fields: integration, discretization, chains, checks."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from loewner import (
    ContinuousEvolution,
    DiscreteEvolutionFamily,
    HerglotzFieldSpec,
    LoewnerChain,
    PolyJet,
    PreconditionError,
    ResonanceReport,
    TimeCoefficient,
    attraction_check,
    build_chain,
    compose,
    discretize,
    integrate_jet,
    integrate_points,
    integrate_variational,
    pde_residual,
    verification_samples,
    verify_subordination_chain,
)
from loewner import herglotz
from loewner.herglotz import _difference_stencil, _rk4, _segments
from loewner.normal_form import jacobian_points
from loewner.sampling import complex_ball_points

from conftest import counterexample_field, demo_field


def _linear_field(diag=(-0.5, -0.8), horizon=2.0):
    # -0.8 is safely off the additive resonance 2 * (-0.5)
    return HerglotzFieldSpec(np.diag(diag).astype(complex), 2, (), horizon=horizon)


# ---------------------------------------------------------------------- #
# time coefficients


def test_coefficient_constant():
    c = TimeCoefficient.constant(0.2 - 0.1j)
    assert c(0.0) == c(17.3) == 0.2 - 0.1j
    assert c.bound() == pytest.approx(abs(0.2 - 0.1j))
    assert c.breakpoints() == ()


def test_coefficient_piecewise_right_open_and_clamped():
    c = TimeCoefficient("piecewise", (0.0, 1.0, 2.0), (1.0, 2.0, 3.0))
    assert c(0.0) == 1.0 and c(0.999) == 1.0
    assert c(1.0) == 2.0  # right-open: the new value starts at the breakpoint
    assert c(-5.0) == 1.0 and c(9.0) == 3.0


def test_coefficient_sampled_interpolates():
    c = TimeCoefficient("sampled", (0.0, 2.0), (0.0, 1.0 + 1.0j))
    assert c(1.0) == pytest.approx(0.5 + 0.5j)
    assert c(-1.0) == 0.0 and c(3.0) == 1.0 + 1.0j


def test_coefficient_validation():
    with pytest.raises(ValueError, match="kind"):
        TimeCoefficient("quadratic", (), (1.0,))
    with pytest.raises(ValueError, match="increasing"):
        TimeCoefficient("sampled", (0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="one value"):
        TimeCoefficient("constant", (0.0,), (1.0,))


def test_coefficient_json_round_trip():
    for c in (TimeCoefficient.constant(1.5j),
              TimeCoefficient("piecewise", (0.0, 1.0), (1.0, 2.0 - 1.0j)),
              TimeCoefficient("sampled", (0.0, 0.5, 1.0), (0.0, 1.0, 0.5))):
        back = TimeCoefficient.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
        assert back == c


# ---------------------------------------------------------------------- #
# field data


def test_field_rejects_spectrum_touching_imaginary_axis():
    with pytest.raises(PreconditionError, match="left half plane"):
        HerglotzFieldSpec(np.diag([-1.0, 0.25]).astype(complex), 2, ())


def test_field_rejects_bad_terms():
    L = np.diag([-1.0, -2.0]).astype(complex)
    with pytest.raises(ValueError, match="degree"):
        HerglotzFieldSpec(L, 3, ((0, (1, 0), TimeCoefficient.constant(1.0)),))
    with pytest.raises(ValueError, match="out of range"):
        HerglotzFieldSpec(L, 3, ((2, (2, 0), TimeCoefficient.constant(1.0)),))


def test_field_values_and_jet_agree():
    f = demo_field()
    z = complex_ball_points(2, 0.3, 7)
    direct = f.values(0.7, z)
    assert np.allclose(f.jet(0.7).evaluate_many(z), direct, atol=1e-12)


def test_field_jacobians_match_finite_differences():
    f = demo_field()
    z = complex_ball_points(2, 0.3, 4)
    jac = f.jacobians(0.3, z)
    h = 1e-6
    for i in range(2):
        bump = np.zeros_like(z)
        bump[i] = h
        col = (f.values(0.3, z + bump) - f.values(0.3, z - bump)) / (2 * h)
        assert np.allclose(jac[:, :, i].T, col, atol=1e-7)


def test_field_json_round_trip():
    f = demo_field()
    back = HerglotzFieldSpec.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert np.array_equal(back.Lambda, f.Lambda)
    assert back.terms == f.terms and back.horizon == f.horizon


# ---------------------------------------------------------------------- #
# integration


def test_integrate_linear_field_is_matrix_exponential():
    f = _linear_field()
    jet = integrate_jet(f, 0.0, 1.7)
    assert np.max(np.abs(jet.linear_matrix - expm(1.7 * f.Lambda))) <= 1e-10
    assert (jet - PolyJet.from_linear(jet.linear_matrix, jet.order)).max_coeff <= 1e-12
    z = complex_ball_points(2, 0.4, 6)
    assert np.allclose(integrate_points(f, 0.0, 1.7, z),
                       expm(1.7 * f.Lambda) @ z, atol=1e-10)


def test_integrate_zero_length_is_identity():
    f = demo_field()
    assert integrate_jet(f, 0.8, 0.8) == PolyJet.identity(2, f.order)


def test_integrate_scalar_quadratic_closed_form():
    # dx/dt = a x + c x^2 has jet coefficient c (e^{2at} - e^{at}) / a
    a, c = -0.8, 0.3
    f = HerglotzFieldSpec(np.array([[a]], dtype=complex), 2,
                          ((0, (2,), TimeCoefficient.constant(c)),), horizon=2.0)
    for t in (0.5, 1.0, 2.0):
        jet = integrate_jet(f, 0.0, t)
        want = c * (math.exp(2 * a * t) - math.exp(a * t)) / a
        assert abs(jet.coefficient(0, (2,)) - want) <= 1e-8


def test_integrate_cocycle_across_breakpoint():
    sched = TimeCoefficient("piecewise", (0.0, 1.0), (0.2, -0.1 + 0.05j))
    f = HerglotzFieldSpec(np.diag([-0.6, -1.0]).astype(complex), 3,
                          ((0, (0, 2), sched),), horizon=2.0)
    direct = integrate_jet(f, 0.25, 1.75)
    stitched = compose(integrate_jet(f, 1.0, 1.75), integrate_jet(f, 0.25, 1.0))
    assert (direct - stitched).max_coeff <= 1e-9 * max(1.0, direct.max_coeff)


def test_variational_jacobian_matches_finite_differences():
    f = demo_field()
    z = complex_ball_points(2, 0.3, 3)
    w, Dw = integrate_variational(f, 0.0, 1.5, z)
    assert np.allclose(w, integrate_points(f, 0.0, 1.5, z), atol=1e-10)
    h = 1e-5
    for i in range(2):
        bump = np.zeros_like(z)
        bump[i] = h
        col = (integrate_points(f, 0.0, 1.5, z + bump)
               - integrate_points(f, 0.0, 1.5, z - bump)) / (2 * h)
        assert np.allclose(Dw[:, :, i].T, col, atol=2e-6)


def _rk4_points_reference(field, s, t, points, nsteps):
    """The point-trajectory RK4 loop the generic stepper replaced."""
    z = np.array(points, dtype=complex)
    span = t - s
    for a, b in _segments(field, s, t):
        n = max(1, int(round(nsteps * (b - a) / span)))
        h = (b - a) / n
        cap = b - 1e-12 * max(1.0, abs(b))
        for i in range(n):
            t0 = a + i * h
            k1 = field.values(min(t0, cap), z)
            k2 = field.values(min(t0 + h / 2.0, cap), z + k1 * (h / 2.0))
            k3 = field.values(min(t0 + h / 2.0, cap), z + k2 * (h / 2.0))
            k4 = field.values(min(t0 + h, cap), z + k3 * h)
            z = z + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0)
    return z


def test_rk4_stepper_matches_point_loop_across_breakpoint():
    sched = TimeCoefficient("piecewise", (0.0, 0.9, 1.3), (0.2, -0.1 + 0.05j, 0.3j))
    f = HerglotzFieldSpec(np.diag([-0.6, -1.0]).astype(complex), 3,
                          ((0, (0, 2), sched), (1, (2, 0), sched)), horizon=2.0)
    z = complex_ball_points(2, 0.4, 5)
    for nsteps in (12, 25):
        (got,) = _rk4(f, 0.25, 1.75, (z,), lambda tau, x: (f.values(tau, x[0]),), nsteps)
        assert np.array_equal(got, _rk4_points_reference(f, 0.25, 1.75, z, nsteps))


def _doubling_reference(field, s, t, state, rhs, tol=1e-11):
    """The joint step-doubling controller before per-sample acceptance."""
    nsteps = herglotz._initial_steps(s, t)
    prev = _rk4(field, s, t, state, rhs, nsteps)
    while True:
        nsteps *= 2
        cur = _rk4(field, s, t, state, rhs, nsteps)
        err = max(float(np.abs(c - p).max()) for c, p in zip(cur, prev))
        scale = max(1.0, *(float(np.abs(c).max()) for c in cur))
        if err <= tol * scale:
            return cur
        prev = cur


def _spread_points(q, radius, count=6):
    """Ball points rescaled to radii spread over two decades, so the
    trajectories reach the tolerance at different doubling levels."""
    z = complex_ball_points(q, 1.0, count)
    z = z / np.sqrt((np.abs(z) ** 2).sum(axis=0))
    return z * (radius * np.geomspace(0.01, 1.0, count))


def _piecewise_field(q=2, kind="piecewise", nodes=(0.0, 0.7, 1.8)):
    # the off-diagonal coupling makes Lambda @ z round like a dense product
    Lam = (np.diag([-0.6, -1.0, -0.75 + 0.2j]) + np.diag([0.2j, 0.15], 1))[:q, :q]

    def coeff(c):
        if kind == "constant":
            return TimeCoefficient.constant(c)
        return TimeCoefficient("piecewise", nodes, (c, -0.5 * c, 1j * c)[:len(nodes)])

    terms = [(j, tuple(2 if i == (j + 1) % q else 0 for i in range(q)), coeff(0.3 - 0.1j * j))
             for j in range(q)]
    if q > 1:
        terms.append((q - 1, tuple(1 if i < 2 else 0 for i in range(q)), coeff(0.2 + 0.1j)))
    return HerglotzFieldSpec(Lam, 3, tuple(terms), horizon=2.0)


def test_joint_integration_matches_reference_controller():
    f = _piecewise_field(3)
    z = _spread_points(3, 0.3, 4)
    got = integrate_points(f, 0.6, 1.2, z)
    (ref,) = _doubling_reference(f, 0.6, 1.2, (z,), lambda tau, x: (f.values(tau, x[0]),))
    assert np.array_equal(got, ref)
    w, Dw = integrate_variational(f, 0.6, 1.2, z)

    def var_rhs(tau, x):
        return (f.values(tau, x[0]),
                np.einsum("mij,mjk->mik", f.jacobians(tau, x[0]), x[1]))

    eye = np.tile(np.eye(3, dtype=complex), (z.shape[1], 1, 1))
    ref_w, ref_Dw = _doubling_reference(f, 0.6, 1.2, (z, eye), var_rhs)
    assert np.array_equal(w, ref_w) and np.array_equal(Dw, ref_Dw)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_per_sample_integration_matches_columns_alone(q):
    f = _piecewise_field(q)
    z = _spread_points(q, 0.3, 4)
    got = integrate_points(f, 0.6, 1.2, z, _per_sample=True)
    w, Dw = integrate_variational(f, 0.6, 1.2, z, _per_sample=True)
    for i in range(z.shape[1]):
        col = z[:, [i]]
        assert np.array_equal(got[:, [i]], integrate_points(f, 0.6, 1.2, col))
        w1, Dw1 = integrate_variational(f, 0.6, 1.2, col)
        assert np.array_equal(w[:, [i]], w1) and np.array_equal(Dw[[i]], Dw1)
    # the columns reach the tolerance at different levels, so joint
    # acceptance would hand some of them other floats
    assert not np.array_equal(got, integrate_points(f, 0.6, 1.2, z))


# ---------------------------------------------------------------------- #
# transition jets owned by one evolution


def _counting_integrate_jet(monkeypatch):
    calls = []

    def counted(field, s, t, *args, **kwargs):
        calls.append((s, t))
        return integrate_jet(field, s, t, *args, **kwargs)

    monkeypatch.setattr(herglotz, "integrate_jet", counted)
    return calls


def test_autonomous_evolution_integrates_each_length_once(monkeypatch):
    f = demo_field()
    evo = ContinuousEvolution(f, 3)
    calls = _counting_integrate_jet(monkeypatch)
    intervals = [(n, n + 1) for n in range(3)] + [(k / 2, k / 2 + 0.5) for k in range(4)]
    got = [evo.jet(s, t) for s, t in intervals]
    assert len(calls) == 2  # one unit step, one half step
    # equal float lengths whose midpoints round apart give different bits
    intervals += [(0.0, 0.1), (0.1, 0.2)]
    got += [evo.jet(0.0, 0.1), evo.jet(0.1, 0.2)]
    assert len(calls) == 4
    for (s, t), jet in zip(intervals, got):
        assert np.array_equal(jet.coeffs, integrate_jet(f, s, t, 3).coeffs)


def test_piecewise_evolution_does_not_reuse_across_a_node(monkeypatch):
    sched = TimeCoefficient("piecewise", (0.0, 0.5, 1.5), (0.2, -0.1 + 0.05j, 0.3j))
    f = HerglotzFieldSpec(np.diag([-0.6, -1.0]).astype(complex), 3,
                          ((0, (0, 2), sched),), horizon=2.0)
    evo = ContinuousEvolution(f, 3)
    calls = _counting_integrate_jet(monkeypatch)
    first, second = evo.jet(0, 1), evo.jet(1, 2)
    assert evo.jet(0.0, 1.0) is first
    assert calls == [(0.0, 1.0), (1.0, 2.0)]
    assert not np.array_equal(first.coeffs, second.coeffs)
    assert np.array_equal(second.coeffs, integrate_jet(f, 1.0, 2.0, 3).coeffs)


# ---------------------------------------------------------------------- #
# discretization


def test_discretize_linear_field():
    f = _linear_field()
    disc = discretize(f, 2)
    step = np.diag([math.exp(-0.5), math.exp(-0.8)])
    assert np.max(np.abs(disc.exp_linear - step)) <= 1e-12
    want = PolyJet.from_linear(disc.family.linear_part, disc.family.steps[0].order)
    assert (disc.family.steps[0] - want).max_coeff <= 1e-10


def test_discretize_autonomous_steps_repeat():
    disc = discretize(demo_field(), 3)
    d01 = (disc.family.steps[0] - disc.family.steps[1]).max_coeff
    d12 = (disc.family.steps[1] - disc.family.steps[2]).max_coeff
    assert max(d01, d12) <= 1e-10


def test_discretize_counterexample_coefficient():
    # dx2/dt = 2a x2 + c x1^2 integrates to the unit-step coefficient c e^{2a}
    c = 0.3
    f = counterexample_field(c=c)
    a = f.Lambda[0, 0].real
    disc = discretize(f, 2)
    got = disc.family.steps[0].coefficient(1, (2, 0))
    assert abs(got - c * math.exp(2 * a)) <= 1e-8


# ---------------------------------------------------------------------- #
# chains


def test_build_chain_linear_field():
    f = _linear_field()
    chain = build_chain(f)
    assert chain.certificate is not None
    z = complex_ball_points(2, 0.5 * chain.radius, 6)
    for t in (0.0, 0.5, 1.0, 2.0):
        want = expm(-t * f.Lambda) @ z
        assert np.allclose(chain.evaluate(t, z), want, atol=1e-9)
        norm = chain.normalized_jet(t)
        dev = norm - PolyJet.identity(2, norm.order)
        assert dev.max_coeff <= 1e-9


def test_demo_chain_shape(demo_chain):
    assert demo_chain.radius == pytest.approx(0.2, rel=1e-6)
    assert demo_chain.certificate == pytest.approx(0.232568, rel=1e-3)
    assert demo_chain.resonances.resonances == ()


def test_demo_chain_subordination_identity(demo_chain):
    z = complex_ball_points(2, 0.5 * demo_chain.radius, 5)
    for s, t in ((0.0, 1.0), (0.5, 2.0), (1.25, 3.0)):
        pushed = demo_chain.evolution.point(s, t, z)
        assert np.allclose(demo_chain.evaluate(s, z),
                           demo_chain.evaluate(t, pushed), atol=1e-8)


def test_chain_rejects_points_outside_radius(demo_chain):
    far = np.full((2, 1), demo_chain.radius, dtype=complex)
    with pytest.raises(ValueError, match="validity radius"):
        demo_chain.evaluate(0.5, far)
    with pytest.raises(ValueError, match="window"):
        demo_chain.jet(demo_chain.horizon + 1.0)


def test_resonant_field_chain_withholds_certificate():
    chain = build_chain(counterexample_field())
    assert chain.certificate is None
    assert (1, (2, 0)) in chain.resonances.resonances


def test_chain_json_round_trip(demo_chain):
    doc = json.loads(json.dumps(demo_chain.to_json_dict()))
    back = LoewnerChain.from_json_dict(doc)
    assert back.result is None  # deserialized chains carry only the jets
    assert back.certificate == demo_chain.certificate
    assert back.radius == demo_chain.radius
    for a, b in zip(back.chain_jets, demo_chain.chain_jets):
        assert np.array_equal(a.coeffs, b.coeffs)
    z = complex_ball_points(2, 0.5 * demo_chain.radius, 5)
    assert np.allclose(back.evaluate(2.0, z), demo_chain.evaluate(2.0, z), atol=1e-9)


def test_chain_json_rejects_foreign_documents():
    with pytest.raises(ValueError, match="schema"):
        LoewnerChain.from_json_dict({"schema": "something-else/1"})


# ---------------------------------------------------------------------- #
# residuals


def test_pde_residual_second_order(demo_chain):
    z = complex_ball_points(2, 0.5 * demo_chain.radius, 3)
    samples = [(0.6, z[:, 0]), (1.4, z[:, 1]), (2.5, z[:, 2])]
    coarse = pde_residual(demo_chain, samples, h=1e-3)
    fine = pde_residual(demo_chain, samples, h=5e-4)
    assert coarse <= 1e-6
    assert 3.0 <= coarse / fine <= 5.0


def test_pde_residual_window_checks(demo_chain):
    z = np.zeros(2, dtype=complex)
    with pytest.raises(ValueError, match="window"):
        pde_residual(demo_chain, [(0.0, z)], h=1e-3)
    with pytest.raises(ValueError, match="positive"):
        pde_residual(demo_chain, [(0.5, z)], h=0.0)


def _pde_residual_reference(chain, samples, h):
    """The one-sample-at-a-time loop the batched pde_residual replaced."""
    worst = 0.0
    for t, z in samples:
        col = np.asarray(z, dtype=complex).reshape(-1)[:, None]
        a = chain.anchor(t + h)
        wp = chain.evolution.point(t + h, a, col)
        wm = chain.evolution.point(t - h, a, col)
        anchor_jet = chain.chain_jets[a]
        fp = anchor_jet.evaluate_many(wp)
        fm = anchor_jet.evaluate_many(wm)
        dfdt = (fp[:, 0] - fm[:, 0]) / (2.0 * h)
        w0, Dw0 = integrate_variational(chain.field, t, a, col)
        Df = jacobian_points(anchor_jet, w0)[0] @ Dw0[0]
        res = dfdt + Df @ chain.field.values(t, col)[:, 0]
        worst = max(worst, float(np.sqrt((res * res.conj()).real.sum())))
    return worst


@pytest.mark.parametrize("kind", ["constant", "piecewise"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_batched_pde_residual_matches_per_sample_loop(q, kind):
    chain = build_chain(_piecewise_field(q, kind))
    z = _spread_points(q, 0.4 * chain.radius, 3)
    samples = [(t, z[:, i]) for t in (0.5, 1.5) for i in range(z.shape[1])]
    samples.append((1.7, z[:, 2]))  # a time of its own
    assert pde_residual(chain, samples, h=1e-3) == _pde_residual_reference(chain, samples, 1e-3)


def test_pde_residual_integrates_each_time_once(demo_chain, monkeypatch):
    calls = []
    for name in ("integrate_points", "integrate_variational"):
        def counted(*args, _name=name, _orig=getattr(herglotz, name), **kwargs):
            calls.append((_name, kwargs.get("_per_sample")))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(herglotz, name, counted)
    z = complex_ball_points(2, 0.4 * demo_chain.radius, 6)
    samples = [(t, z[:, i]) for t in (0.5, 1.5, 2.5) for i in range(6)]
    pde_residual(demo_chain, samples, h=1e-3)
    assert sorted(calls) == [("integrate_points", True)] * 6 + [("integrate_variational", True)] * 3


def test_difference_stencil_stays_inside_the_smooth_piece():
    central = _difference_stencil((0.0, 1.0, 2.5), 1.5, 1e-3, 3.0)
    assert central == ((1.501, 1.499), (1.0, -1.0), 1e-3)
    # a node at t or just below it: forward; just above it: backward
    for nodes, t in (((1.5,), 1.5), ((1.4998,), 1.5)):
        times, weights, k = _difference_stencil(nodes, t, 1e-3, 3.0)
        assert times == (t, t + k, t + 2 * k) and weights == (-3.0, 4.0, -1.0)
        assert k == 1e-3
    times, weights, k = _difference_stencil((1.5002,), 1.5, 1e-3, 3.0)
    assert times == (1.5 - 2 * k, 1.5 - k, 1.5) and weights == (1.0, -4.0, 3.0)
    # a piece shorter than the stencil shrinks the step to half its wider side
    times, _, k = _difference_stencil((1.4998, 1.5008), 1.5, 1e-3, 3.0)
    assert times[0] == 1.5 and k == pytest.approx(4e-4) and times[-1] <= 1.5008


@pytest.mark.parametrize("delta", [0.0, 2e-4, -2e-4])
def test_pde_residual_with_a_node_near_the_sample_time(delta):
    chain = build_chain(_piecewise_field(2, nodes=(0.0, 1.5 + delta)))
    z = complex_ball_points(2, 0.4 * chain.radius, 3)
    samples = [(1.5, z[:, i]) for i in range(3)]
    assert pde_residual(chain, samples, h=1e-3) <= 1e-6
    # the central difference across the jump of H reports the jump instead
    assert _pde_residual_reference(chain, samples, 1e-3) > 1e-5


# ---------------------------------------------------------------------- #
# verification


def test_verify_passes_fresh_chain(demo_chain):
    rep = verify_subordination_chain(demo_chain)
    assert rep.passed and rep.failures == ()
    assert rep.linear_defect <= 1e-9
    assert rep.transition_defect <= 1e-9
    assert rep.declared_bound is not None
    assert rep.normalization_sup <= rep.declared_bound


def test_verify_radius_must_stay_inside(demo_chain):
    with pytest.raises(ValueError, match="radius"):
        verify_subordination_chain(demo_chain, radius=2 * demo_chain.radius)


def test_verify_flags_perturbed_coefficient(demo_chain):
    W = demo_chain.order
    bad = list(demo_chain.chain_jets)
    bad[1] = bad[1] + PolyJet.from_terms(2, W, {(0, (2, 0)): 1e-3})
    doctored = dataclasses.replace(demo_chain, chain_jets=tuple(bad), result=None)
    rep = verify_subordination_chain(doctored)
    assert "transition-field-match" in rep.failures


def test_verify_flags_wrong_linear_part(demo_chain):
    W = demo_chain.order
    ident = tuple(PolyJet.identity(2, W) for _ in demo_chain.chain_jets)
    doctored = dataclasses.replace(demo_chain, chain_jets=ident, result=None)
    rep = verify_subordination_chain(doctored)
    assert "linear-part" in rep.failures


def test_verify_flags_engineered_collision():
    # normalized maps z + c z^2 with c = -1/(z0 + w0) collide at samples 0, 1
    field = HerglotzFieldSpec(np.array([[-0.7]], dtype=complex), 2, (), horizon=2.0)
    R = 0.5
    pts = verification_samples(1, 0.9 * R, 12)
    c = -1.0 / (pts[0, 0] + pts[0, 1])
    jets = tuple(
        PolyJet.from_terms(1, 2, {(0, (1,)): math.exp(0.7 * n),
                                  (0, (2,)): math.exp(0.7 * n) * c})
        for n in range(3))
    chain = LoewnerChain(
        field=field, horizon=2, radius=R, basis_change=np.eye(1, dtype=complex),
        chain_jets=jets, certificate=None, certificate_step=1.0, step_tol=1e-10,
        resonances=ResonanceReport(mode="multiplicative", tolerance=1e-9,
                                   p=2, resonances=()))
    rep = verify_subordination_chain(chain)
    assert "univalence" in rep.failures
    assert rep.univalence.violations


# ---------------------------------------------------------------------- #
# attraction


def test_attraction_origin_is_instant():
    A = np.array([[0.5]], dtype=complex)
    fam = DiscreteEvolutionFamily(A, (PolyJet.from_linear(A, 2),))
    rep = attraction_check(fam, np.zeros((1, 1), dtype=complex))
    assert rep.rows[0].steps == 0 and rep.all_converged


def test_attraction_linear_step_count():
    A = np.array([[0.5]], dtype=complex)
    fam = DiscreteEvolutionFamily(A, (PolyJet.from_linear(A, 2),))
    rep = attraction_check(fam, np.array([[0.9]], dtype=complex), tol=1e-6)
    assert rep.rows[0].steps == math.ceil(math.log(1e-6 / 0.9) / math.log(0.5))


def test_attraction_reports_stalled_orbits():
    A = np.array([[0.5]], dtype=complex)
    fam = DiscreteEvolutionFamily(A, (PolyJet.from_linear(A, 2),))
    rep = attraction_check(fam, np.array([[0.9]], dtype=complex),
                           tol=1e-6, max_steps=3)
    assert not rep.all_converged
    row = rep.rows[0]
    assert row.steps is None and row.final_norm == pytest.approx(0.9 * 0.5 ** 3)


def test_attraction_accepts_discretized_field():
    disc = discretize(demo_field(), 2)
    pts = complex_ball_points(2, 0.2, 3)
    rep = attraction_check(disc, pts, tol=1e-6)
    assert rep.all_converged
    assert json.dumps(rep.to_json_dict())
