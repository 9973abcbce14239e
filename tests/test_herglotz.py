"""Continuous-time fields: integration, discretization, chains, checks."""

import cmath
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    normalize_field,
    pde_residual,
    verification_samples,
    verify_subordination_chain,
)
from loewner import cli, herglotz, jets
from loewner.cli import report_text
from loewner.herglotz import _difference_stencil, _segments
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


# ---------------------------------------------------------------------- #
# the field evaluator against the term-by-term loops


def _field_values_reference(field, t, points):
    """H(z, t) adding one term at a time, each monomial 1 * z_i ** e_i * ...
    in variable order, times its coefficient."""
    pts = np.asarray(points, dtype=complex)
    vals = field.Lambda @ pts
    for j, index, coeff in field.terms:
        mono = np.ones(pts.shape[1], dtype=complex)
        for i, e in enumerate(index):
            if e:
                mono = mono * pts[i] ** e
        vals[j] += coeff(t) * mono
    return vals


def _field_jacobians_reference(field, t, points):
    """D_z H(z, t) adding one (term, variable) derivative at a time, each
    e_i c * z_k ** p_k * ... in variable order."""
    pts = np.asarray(points, dtype=complex)
    q, m = pts.shape
    jac = np.tile(np.asarray(field.Lambda), (m, 1, 1))
    for j, index, coeff in field.terms:
        powers = [(i, e) for i, e in enumerate(index) if e]
        c = coeff(t)
        for i, e in powers:
            mono = np.full(m, e * c, dtype=complex)
            for k, ek in powers:
                p = ek - 1 if k == i else ek
                if p:
                    mono = mono * pts[k] ** p
            jac[:, j, i] += mono
    return jac


def _assert_evaluator_matches_the_loops(field, t, z):
    want_h = _field_values_reference(field, t, z)
    want_dh = _field_jacobians_reference(field, t, z)
    for got, want in ((field.values(t, z), want_h), (field.jacobians(t, z), want_dh)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


_ZEROS = st.sampled_from([0.0, -0.0])
_PART = st.floats(-2.0, 2.0) | _ZEROS


def _schedule(kind, nodes):
    value = st.builds(complex, _PART, _PART)
    if kind == "constant":
        return value.map(TimeCoefficient.constant)
    times = st.lists(st.sampled_from(nodes), min_size=1, max_size=4, unique=True).map(sorted)
    return times.flatmap(lambda ts: st.lists(value, min_size=len(ts), max_size=len(ts)).map(
        lambda vs: TimeCoefficient(kind, tuple(ts), tuple(vs))))


@st.composite
def _field_and_points(draw):
    q = draw(st.integers(1, 4))
    order = draw(st.integers(2, 5))
    nodes = (0.0, 0.5, 1.25, 2.0, 3.0)
    # upper triangular: the spectrum is the diagonal, in the left half plane
    L = np.zeros((q, q), dtype=complex)
    for i in range(q):
        L[i, i] = complex(draw(st.floats(-2.0, -0.1)), draw(_PART))
        for k in range(i + 1, q):
            L[i, k] = complex(draw(_PART), draw(_PART))
    indices = [I for I in PolyJet.zero(q, order).tables.indices if sum(I) >= 2]
    kind = st.sampled_from(["constant", "piecewise", "sampled"])
    term = st.tuples(st.integers(0, q - 1), st.sampled_from(indices),
                     kind.flatmap(lambda k: _schedule(k, nodes)))
    terms = draw(st.lists(term, max_size=6))
    # the same (component, monomial) again, with a schedule of its own
    for j, index, _ in draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else ():
        terms.append((j, index, draw(kind.flatmap(lambda k: _schedule(k, nodes)))))
    field = HerglotzFieldSpec(L, order, tuple(terms), horizon=3.0)
    m = draw(st.sampled_from([0, 1, 7]))
    parts = draw(st.lists(_PART, min_size=2 * q * m, max_size=2 * q * m))
    z = (np.array(parts[:q * m]) + 1j * np.array(parts[q * m:])).reshape(q, m)
    t = draw(st.sampled_from(nodes) | st.floats(-0.5, 3.5))
    return field, t, z


@settings(max_examples=50)
@given(_field_and_points())
def test_field_evaluator_matches_the_term_loops_bit_for_bit(case):
    _assert_evaluator_matches_the_loops(*case)


@pytest.mark.parametrize("m", [1, 2, 6, 13])
def test_field_evaluator_matches_the_term_loops_on_random_fields(m):
    # one column is where numpy's in-place complex product rounds
    # differently from the loop's out-of-place one
    rng = np.random.default_rng(m)
    for q in (1, 2, 3, 4):
        for _ in range(6):
            terms = tuple(
                (int(rng.integers(q)), tuple(int(e) for e in rng.multinomial(d, np.ones(q) / q)),
                 TimeCoefficient.constant(complex(*rng.normal(size=2))))
                for d in rng.integers(2, 5, size=rng.integers(1, 6)))
            field = HerglotzFieldSpec(-np.eye(q, dtype=complex), 4, terms)
            z = rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))
            _assert_evaluator_matches_the_loops(field, 0.5, z)


def test_field_without_terms_is_its_linear_part():
    L = np.array([[-0.5, 0.25j], [-0.0, -0.8 + 0.1j]])
    field = HerglotzFieldSpec(L, 3, ())
    z = complex_ball_points(2, 0.3, 5)
    assert field.values(1.0, z).tobytes() == (field.Lambda @ z).tobytes()
    assert field.jacobians(1.0, z).tobytes() == np.tile(field.Lambda, (5, 1, 1)).tobytes()
    _assert_evaluator_matches_the_loops(field, 1.0, z)


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


def _bernoulli_flow(a, c, z0, t):
    """The flow of z' = a z + c z^2 and its derivative in z0:
    a z0 e^(at) / D and a^2 e^(at) / D^2 with D = a + c z0 (1 - e^(at))."""
    e = np.exp(a * t)
    D = a + c * z0 * (1.0 - e)
    return a * z0 * e / D, a * a * e / D ** 2


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("kind", ["constant", "piecewise"])
def test_trajectories_match_the_bernoulli_closed_form(kind):
    # piecewise: c1 on [0, 0.9), c2 from the node on, so the flow over
    # [0.25, 1.75] is the c2 flow of the c1 flow; a right-open schedule
    # must not leak c2 into the first segment
    a, c1, c2 = -0.8 + 0.3j, 0.5 - 0.2j, -0.3 + 0.4j
    coeff = (TimeCoefficient.constant(c1) if kind == "constant"
             else TimeCoefficient("piecewise", (0.0, 0.9), (c1, c2)))
    f = HerglotzFieldSpec(np.array([[a]]), 2, ((0, (2,), coeff),), horizon=2.0)
    z0 = np.array([0.3 + 0.2j, -0.6 + 0.1j, 0.05j, 1.1])
    if kind == "constant":
        want, dwant = _bernoulli_flow(a, c1, z0, 1.5)
    else:
        z1, d1 = _bernoulli_flow(a, c1, z0, 0.65)
        want, d2 = _bernoulli_flow(a, c2, z1, 0.85)
        dwant = d2 * d1
    w, Dw = integrate_variational(f, 0.25, 1.75, z0[None, :])
    assert _relative_gap(w[0], want) <= 1e-14
    assert _relative_gap(Dw[:, 0, 0], dwant) <= 1e-14
    assert _relative_gap(integrate_points(f, 0.25, 1.75, z0[None, :])[0], want) <= 1e-14


def test_trajectory_blow_up_fails_fast():
    # z' = -z + z^2 from z = 3 reaches its pole at t = ln 1.5 = 0.40546510810816...
    f = HerglotzFieldSpec(np.array([[-1.0]]), 2, ((0, (2,), 1.0),), horizon=1.0)
    for run in (lambda: integrate_points(f, 0.0, 1.0, np.array([3.0])),
                lambda: integrate_variational(f, 0.0, 1.0, np.array([[3.0]]))):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"blows up at tau = 0\.405465108108"):
            run()
        assert time.perf_counter() - t0 < 5.0


def _spread_points(q, radius, count=6):
    """Ball points rescaled to radii spread over two decades, so the
    columns of one batch differ in scale."""
    z = complex_ball_points(q, 1.0, count)
    z = z / np.sqrt((np.abs(z) ** 2).sum(axis=0))
    return z * (radius * np.geomspace(0.01, 1.0, count))


def _piecewise_field(q=2, kind="piecewise", nodes=(0.0, 0.7, 1.8)):
    # the off-diagonal coupling makes Lambda @ z round like a dense product
    Lam = (np.diag([-0.6, -1.0, -0.75 + 0.2j]) + np.diag([0.2j, 0.15], 1))[:q, :q]

    def coeff(c):
        if kind == "constant":
            return TimeCoefficient.constant(c)
        return TimeCoefficient(kind, nodes, (c, -0.5 * c, 1j * c)[:len(nodes)])

    terms = [(j, tuple(2 if i == (j + 1) % q else 0 for i in range(q)), coeff(0.3 - 0.1j * j))
             for j in range(q)]
    if q > 1:
        terms.append((q - 1, tuple(1 if i < 2 else 0 for i in range(q)), coeff(0.2 + 0.1j)))
    return HerglotzFieldSpec(Lam, 3, tuple(terms), horizon=2.0)


def test_trajectories_match_fine_rk4_on_a_coupled_field():
    # q = 3 with a node at 0.7 inside [0.6, 1.2] and columns two decades
    # apart; RK4 at 256 steps is good to about 2e-13 (it gains 16x per
    # doubling from 64 steps on)
    f = _piecewise_field(3)
    z = _spread_points(3, 0.3, 4)
    eye = np.tile(np.eye(3, dtype=complex), (z.shape[1], 1, 1))

    def rhs(tau, x):
        return (f.values(tau, x[0]),
                np.einsum("mij,mjk->mik", f.jacobians(tau, x[0]), x[1]))

    ref_w, ref_Dw = _rk4(f, 0.6, 1.2, (z, eye), rhs, 256)
    scale = np.abs(ref_w).max(axis=0)
    w, Dw = integrate_variational(f, 0.6, 1.2, z)
    assert np.max(np.abs(w - ref_w) / scale) <= 1e-12
    assert np.max(np.abs(Dw - ref_Dw)) <= 1e-12
    assert np.max(np.abs(integrate_points(f, 0.6, 1.2, z) - ref_w) / scale) <= 1e-12


def _field_jet_reference(field, t, order):
    """HerglotzFieldSpec.jet as a PolyJet sum, before the coefficient stage."""
    jet = PolyJet.from_linear(field.Lambda, order)
    sparse = {}
    for j, index, coeff in field.terms:
        if sum(index) <= order:
            key = (j, index)
            sparse[key] = sparse.get(key, 0.0) + coeff(t)
    if sparse:
        jet = jet + PolyJet.from_terms(field.q, order, sparse)
    return jet


def _rk4(field, s, t, state, rhs, nsteps):
    """Fixed-grid RK4 for x' = rhs(tau, x) from x(s) = state to time t.

    The state is a tuple of parts that support + and scalar *, and rhs
    returns one derivative per part.  Steps are distributed over the
    breakpoint segments proportionally to length; inside a segment the stage
    times are capped just below the right endpoint so right-open piecewise
    schedules never leak the next value in.
    """
    x = state
    span = t - s
    for a, b in _segments(field, s, t):
        n = max(1, int(round(nsteps * (b - a) / span)))
        h = (b - a) / n
        cap = b - 1e-12 * max(1.0, abs(b))
        for i in range(n):
            t0 = a + i * h
            k1 = rhs(min(t0, cap), x)
            k2 = rhs(min(t0 + h / 2.0, cap),
                     tuple(xp + kp * (h / 2.0) for xp, kp in zip(x, k1)))
            k3 = rhs(min(t0 + h / 2.0, cap),
                     tuple(xp + kp * (h / 2.0) for xp, kp in zip(x, k2)))
            k4 = rhs(min(t0 + h, cap), tuple(xp + kp * h for xp, kp in zip(x, k3)))
            x = tuple(xp + (p1 + p2 * 2.0 + p3 * 2.0 + p4) * (h / 6.0)
                      for xp, p1, p2, p3, p4 in zip(x, k1, k2, k3, k4))
    return x


def _integrate_jet_reference(field, s, t, order, tol=1e-10, max_nsteps=1 << 17):
    """Transition jet by RK4 step refinement on PolyJet stages, an oracle
    independent of integrate_jet's series."""
    identity = (PolyJet.identity(field.q, order),)

    def rhs(tau, x):
        return (compose(_field_jet_reference(field, tau, order), x[0], order),)

    nsteps = max(12, int(math.ceil(6.0 * (t - s))))
    while True:
        (full,) = _rk4(field, s, t, identity, rhs, nsteps)
        mid = 0.5 * (s + t)
        (left,) = _rk4(field, s, mid, identity, rhs, nsteps)
        (right,) = _rk4(field, mid, t, identity, rhs, nsteps)
        split = compose(right, left, order)
        res = (full - split).max_coeff / max(1.0, split.max_coeff)
        if res <= tol:
            return split
        assert 2 * nsteps <= max_nsteps
        factor = max(2.0, min(16.0, (res / tol) ** 0.25))
        nsteps = min(max_nsteps, int(math.ceil(nsteps * factor)))


def test_field_jet_matches_jet_sum_bit_for_bit():
    # a -0.0 in Lambda survives only while no term fits the order
    Lam = np.array([[complex(-0.6, -0.0), complex(-0.0, 0.1)],
                    [complex(0.0, -0.0), complex(-1.0, -0.0)]])
    sched = TimeCoefficient("sampled", (0.0, 0.7, 1.8), (0.3, -0.2 + 0.0j, 0.1j))
    terms = ((0, (0, 2), sched), (0, (0, 2), TimeCoefficient.constant(-0.3)),
             (1, (2, 1), sched), (0, (1, 1), TimeCoefficient.constant(complex(0.0, -0.0))))
    for f in (HerglotzFieldSpec(Lam, 3, terms), demo_field(), _piecewise_field(3)):
        for order in (1, 2, 3, 5):
            for t in (0.0, 0.7, 1.1, 2.5):
                assert (f.jet(t, order).coeffs.tobytes()
                        == _field_jet_reference(f, t, order).coeffs.tobytes())


@pytest.mark.parametrize("q, kind", [(q, kind) for q in (1, 2, 3)
                                     for kind in ("constant", "piecewise", "sampled")]
                         + [(2, "demo"), (2, "counterexample")])
def test_integrate_jet_matches_jet_stage_reference(q, kind):
    # (0.5, 1.0) holds the node 0.7 of the schedules; the reference
    # reaches a split residual of 1e-10, so it is good to about that
    f = {"demo": demo_field, "counterexample": counterexample_field}.get(
        kind, lambda: _piecewise_field(q, kind))()
    for order in (3, 6):
        got = integrate_jet(f, 0.5, 1.0, order)
        want = _integrate_jet_reference(f, 0.5, 1.0, order)
        assert (got - want).max_coeff <= 1e-9 * max(1.0, want.max_coeff)


def _affine_integral(c0, c1, k, p, r):
    """int_p^r (c0 + c1 tau) e^(k tau) dtau in closed form."""
    def primitive(tau):
        return cmath.exp(k * tau) * ((c0 + c1 * tau) / k - c1 / k ** 2)
    return primitive(r) - primitive(p)


def test_integrate_scalar_sampled_coefficient_closed_form():
    # dx/dt = a x + c(t) x^2 with c piecewise linear: the x^2 coefficient of
    # phi_{s,t} is e^(a (t - 2 s)) int_s^t c(tau) e^(a tau) dtau
    a = -0.8
    nodes, values = (0.3, 1.1, 1.6), (0.4 - 0.1j, -0.2 + 0.3j, 0.25)
    f = HerglotzFieldSpec(np.array([[a]], dtype=complex), 3,
                          ((0, (2,), TimeCoefficient("sampled", nodes, values)),), horizon=2.0)
    # (start, end, c0, c1) with c = c0 + c1 tau: clamped, two ramps, clamped
    ramps = [(-math.inf, nodes[0], values[0], 0.0)]
    for (p, r), (u, v) in zip(zip(nodes, nodes[1:]), zip(values, values[1:])):
        c1 = (v - u) / (r - p)
        ramps.append((p, r, u - c1 * p, c1))
    ramps.append((nodes[-1], math.inf, values[-1], 0.0))
    for s, t in ((0.5, 1.0), (0.0, 2.0), (1.2, 1.5)):
        want = sum(_affine_integral(c0, c1, a, max(s, p), min(t, r))
                   for p, r, c0, c1 in ramps if max(s, p) < min(t, r))
        want *= cmath.exp(a * (t - 2 * s))
        jet = integrate_jet(f, s, t)
        assert abs(jet.coefficient(0, (1,)) - math.exp(a * (t - s))) <= 1e-14
        assert abs(jet.coefficient(0, (2,)) - want) <= 1e-12 * abs(want)


def test_integrate_stiff_spectrum_against_expm():
    # Lambda = diag(-30, -0.5) with c z_1^2 e_0: the jet is exp(h Lambda)
    # plus c (e^(2 l1 h) - e^(l0 h)) / (2 l1 - l0) at z_1^2 in component 0
    l0, l1, c = -30.0, -0.5, 0.3 + 0.2j
    f = HerglotzFieldSpec(np.diag([l0, l1]).astype(complex), 3,
                          ((0, (0, 2), TimeCoefficient.constant(c)),), horizon=2.0)
    for h in (0.1, 0.5, 1.0):
        jet = integrate_jet(f, 0.0, h)
        want = np.diag(expm(h * f.Lambda))
        got = jet.linear_matrix
        assert np.all(np.abs(np.diag(got) - want) <= 1e-12 * np.abs(want))
        assert got[0, 1] == got[1, 0] == 0
        quad = c * (math.exp(2 * l1 * h) - math.exp(l0 * h)) / (2 * l1 - l0)
        assert abs(jet.coefficient(0, (0, 2)) - quad) <= 1e-12 * abs(quad)


def test_lie_entries_are_those_the_field_reaches():
    # M(B) g = sum_i d_i g * B_i: z^J of g meets z^I of H_i as J_i z^(J - e_i + I),
    # one entry for each (i, I) that Lambda or a term reaches and each J with J_i >= 1
    f = _piecewise_field(3)
    order = 5
    stage, t = f._stage(order), herglotz._tables(3, order)
    sources = {(i, t.rank[I]) for i in range(3) for I in t.indices if sum(I) == 1}
    sources |= {(j, t.rank[I]) for j, I, _ in f.terms}
    want = sorted(
        (t.rank[K], t.rank[J], i * t.count + rI, float(J[i]))
        for i, rI in sources for J in t.indices if J[i]
        for K in [tuple(a + b - (k == i) for k, (a, b) in enumerate(zip(J, t.indices[rI])))]
        if sum(K) <= order)
    got = sorted(zip(stage.lie_row.tolist(), stage.lie_col.tolist(),
                     stage.lie_take.tolist(), stage.lie_mult.tolist()))
    assert got == want


@pytest.mark.parametrize("order, dense", [(3, True), (6, False)])
def test_lie_operator_matches_the_entry_sums_on_either_side_of_the_dense_rule(order, dense):
    # count^2 <= 2 q entries picks the dense matrix: 400 <= 636 at order 3,
    # 7056 > 3864 at order 6; both must equal sum of weight * x[col] into row
    f = _piecewise_field(3)
    stage = f._stage(order)
    n, entries = stage.count, stage.lie_row.size
    assert stage.dense is dense and (n * n <= 2 * 3 * entries) is dense
    weights = stage.lie_weights(stage.block(1.1))
    x = np.random.default_rng(7).standard_normal((n, 3, 2)) @ np.array([1.0, 1.0j])
    M = np.zeros((n, n), dtype=complex)
    np.add.at(M, (stage.lie_row, stage.lie_col), weights)
    scatter = np.zeros_like(x)
    np.add.at(scatter, stage.lie_row, weights[:, None] * x[stage.lie_col])
    got = stage.lie_operator(weights)(x)
    # both sums run over the same terms in some order: a few roundings each
    bound = 1e-14 * (np.abs(M) @ np.abs(x)) + 1e-300
    assert np.all(np.abs(got - M @ x) <= bound)
    assert np.all(np.abs(got - scatter) <= bound)


def test_large_stage_keeps_the_scatter():
    # q = 4 at order 12: count 1820, whose dense matrix would pass the scatter's bytes
    f = HerglotzFieldSpec(np.diag([-0.5, -0.6, -0.7, -0.8]).astype(complex), 3,
                          ((0, (0, 2, 0, 0), TimeCoefficient.constant(0.1)),))
    stage = f._stage(12)
    assert stage.count == 1820 and not stage.dense


@pytest.mark.parametrize("field", [demo_field, lambda: _piecewise_field(3)])
def test_integrate_jet_composes_nothing(monkeypatch, field):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(herglotz, "compose", counted)
    monkeypatch.setattr(jets, "compose", counted)
    f = field()
    for s, t in ((0.0, 0.5), (0.5, 1.0), (0.3, 1.9)):
        integrate_jet(f, s, t, 4)
    assert calls == []


def test_integrate_jet_overflow_names_finiteness():
    # the z0^3 coefficient of the flow passes the float range; the scaled
    # norm keeps the series at a few pieces
    f = HerglotzFieldSpec(np.diag([-0.6, -1.0]).astype(complex), 3,
                          ((0, (2, 0), TimeCoefficient.constant(1e160)),), horizon=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            integrate_jet(f, 0.0, 1.0)
        # the pieces and terms of _transition's one series over [0, 1]
        _, pieces, terms = herglotz._series(f, f._stage(3), 0.0, 1.0, herglotz.SERIES_TAIL)
    assert pieces <= 4 and terms <= 100


@pytest.mark.parametrize("tol", [math.nan, 0.0, 1.0])
def test_integrate_jet_takes_a_tail_bound_in_the_open_unit_interval(tol):
    # a NaN tail bound would never end the term count
    with pytest.raises(ValueError, match="tol"):
        integrate_jet(demo_field(), 0.0, 0.5, tol=tol)


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
    # the series reads only the float t - s: 0.2 - 0.1 == 0.1 shares a key,
    # 0.3 - 0.2 != 0.1 does not
    intervals += [(0.0, 0.1), (0.1, 0.2), (0.2, 0.3)]
    got += [evo.jet(s, t) for s, t in intervals[-3:]]
    assert calls[2:] == [(0.0, 0.1), (0.2, 0.3)]
    assert evo.jet(0.1, 0.2) is evo.jet(0.0, 0.1)
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
    family = discretize(ContinuousEvolution(f, f.order), 2)
    step = np.diag([math.exp(-0.5), math.exp(-0.8)])
    # the field's optimal basis change carries the family's linear part
    # back to exp(Lambda)
    M = f.optimal.basis_change
    assert np.max(np.abs(np.linalg.inv(M) @ family.linear_part @ M - step)) <= 1e-12
    want = PolyJet.from_linear(family.linear_part, family.steps[0].order)
    assert (family.steps[0] - want).max_coeff <= 1e-10


def test_discretize_autonomous_steps_repeat():
    family = discretize(ContinuousEvolution(demo_field(), 3), 3)
    d01 = (family.steps[0] - family.steps[1]).max_coeff
    d12 = (family.steps[1] - family.steps[2]).max_coeff
    assert max(d01, d12) <= 1e-10


def test_discretize_counterexample_coefficient():
    # dx2/dt = 2a x2 + c x1^2 integrates to the unit-step coefficient c e^{2a}
    c = 0.3
    f = counterexample_field(c=c)
    a = f.Lambda[0, 0].real
    family = discretize(ContinuousEvolution(f, f.order), 2)
    got = family.steps[0].coefficient(1, (2, 0))
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
    assert back.certificate == demo_chain.certificate
    assert back.radius == demo_chain.radius
    for a, b in zip(back.chain_jets, demo_chain.chain_jets):
        assert np.array_equal(a.coeffs, b.coeffs)
    z = complex_ball_points(2, 0.5 * demo_chain.radius, 5)
    assert np.allclose(back.evaluate(2.0, z), demo_chain.evaluate(2.0, z), atol=1e-9)


@pytest.mark.parametrize("kind", ["demo", "piecewise"])
def test_loaded_chain_evaluates_as_built(kind, demo_chain):
    # the certificate is measured on the chain as built, so the document
    # must evaluate to the same floats
    chain = demo_chain if kind == "demo" else build_chain(_piecewise_field(2))
    back = LoewnerChain.from_json_dict(json.loads(json.dumps(chain.to_json_dict())))
    z = complex_ball_points(chain.q, 0.5 * chain.radius, 5)
    for k in range(2 * chain.horizon + 1):
        assert np.array_equal(back.evaluate(0.5 * k, z), chain.evaluate(0.5 * k, z))


def _timevarying_field():
    return dataclasses.replace(_piecewise_field(2, "sampled"), horizon=3.0)


def _reloaded(chain):
    return LoewnerChain.from_json_dict(json.loads(report_text(chain.to_json_dict())))


def test_field_commands_integrate_each_half_step_once(tmp_path, monkeypatch):
    # no field command pushes trajectories or evaluates the field at points:
    # unit steps are composed from the half steps, the certificate sweep
    # evaluates the chain's jets, and verify checks the document's jets
    pointwise = []
    for owner, name in ((herglotz, "integrate_points"), (herglotz, "integrate_variational"),
                        (HerglotzFieldSpec, "values"), (HerglotzFieldSpec, "jacobians")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            pointwise.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    calls = _counting_integrate_jet(monkeypatch)
    chain = build_chain(_timevarying_field())
    half_steps = [(k / 2, k / 2 + 0.5) for k in range(6)]
    assert sorted(calls) == half_steps and pointwise == []

    calls.clear()
    rebuild = []
    discretize = herglotz.discretize

    def counted_discretize(*args, **kwargs):
        before = len(calls)
        out = discretize(*args, **kwargs)
        rebuild.append(len(calls) - before)
        return out

    monkeypatch.setattr(herglotz, "discretize", counted_discretize)
    inp = tmp_path / "chain.json"
    inp.write_text(report_text(chain.to_json_dict()))
    assert cli.main(["verify", "--input", str(inp),
                     "--output", str(tmp_path / "verdict.json")]) == 0
    assert sorted(calls) == half_steps and rebuild == [0] and pointwise == []


def test_certificate_sweep_measures_what_verify_checks(monkeypatch):
    chain = _reloaded(build_chain(_timevarying_field()))
    grid = herglotz._certificate_grid(chain.horizon, chain.certificate_step)
    # the certificate is the sweep over the document's own jets
    ball = complex_ball_points(chain.q, herglotz.CERTIFICATE_BALL * chain.radius,
                               herglotz.CERTIFICATE_SAMPLES)
    assert chain.certificate == herglotz.CERTIFICATE_FACTOR * herglotz._normalized_sup(
        chain, grid, ball)
    checked = []
    normalized = herglotz._normalized

    def recorded(L, t, jet):
        checked.append(normalized(L, t, jet))
        return checked[-1]

    monkeypatch.setattr(herglotz, "_normalized", recorded)
    report = verify_subordination_chain(chain)
    monkeypatch.undo()
    assert len(checked) == len(grid) and list(report.grid) == grid
    pts = verification_samples(chain.q, 0.9 * chain.radius, 12)
    for t, jet in zip(grid, checked):
        assert np.array_equal(chain.normalized_jet(t).coeffs, jet.coeffs)
    assert herglotz._normalized_sup(chain, grid, pts) == report.normalization_sup


@pytest.mark.parametrize("field", [demo_field, _timevarying_field])
def test_built_and_loaded_chain_share_every_transition_bit(field):
    chain = build_chain(field())
    back = _reloaded(chain)
    for t in herglotz._certificate_grid(chain.horizon, chain.certificate_step):
        assert np.array_equal(back.jet(t).coeffs, chain.jet(t).coeffs)
    built = discretize(chain.evolution, chain.horizon).steps
    loaded = discretize(back.evolution, back.horizon).steps
    for a, b in zip(built, loaded):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()


def test_normalize_field_normalizes_the_flow_at_the_working_order():
    # the first pass integrates at order 6, the normalization asks for 7
    field = counterexample_field(c=0.4)
    evolution, result = normalize_field(ContinuousEvolution(field, 2), 2)
    assert evolution.order == result.work_order == 7 and result.order == 2
    for got, want in zip(result.family.steps, discretize(evolution, 2).steps, strict=True):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    # verify's rebuild: an evolution at the working order is kept, with its
    # cached jets
    again, rebuilt = normalize_field(evolution, 2)
    assert again is evolution and rebuilt.work_order == 7


def test_chain_settling_below_its_jet_order_gets_an_evolution_at_its_order(
        demo_chain, monkeypatch):
    # a first estimate above the order the normalization settles on: the
    # jets were integrated at order 6, and the chain works at order 4
    smallest_ell = herglotz._smallest_ell
    monkeypatch.setattr(herglotz, "_smallest_ell", lambda a, b: smallest_ell(a, b) + 2)
    field = demo_field()
    evolution, result = normalize_field(ContinuousEvolution(field, 3), 3)
    assert result.work_order == 4 and result.family.order == 4
    assert evolution.order == 4 and evolution.field is field
    chain = build_chain(field)
    assert chain.order == demo_chain.order == 4 and chain.evolution.order == 4


def test_chain_horizon_is_a_whole_number_of_unit_steps():
    chain = build_chain(demo_field(), horizon=2.0)
    assert type(chain.horizon) is int and chain.horizon == len(chain.chain_jets) - 1 == 2


def test_chain_takes_only_an_evolution_of_its_own_order_and_field(demo_chain):
    own = demo_chain.evolution
    assert own.order == demo_chain.order and own.field is demo_chain.field
    for other in (ContinuousEvolution(demo_chain.field, demo_chain.order + 1),
                  ContinuousEvolution(demo_field(), demo_chain.order)):
        with pytest.raises(ValueError, match="evolution"):
            dataclasses.replace(demo_chain, evolution=other)


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


def test_times_in_anchor_slack_read_as_the_anchor(demo_chain):
    # a time within the slack above an integer reads as that integer, so no
    # call flows backwards to its anchor ("reversed time interval")
    z = complex_ball_points(2, 0.5 * demo_chain.radius, 3)
    t = 1.0 + 1e-13
    assert t - 1.0 <= herglotz.ANCHOR_SLACK and demo_chain.anchor(t) == 1
    assert np.array_equal(demo_chain.evaluate(t, z), demo_chain.evaluate(1.0, z))
    assert demo_chain.jet(t) is demo_chain.chain_jets[1]
    # t + h rounds to 2.0000000000000004, inside the slack above anchor 2
    t = math.nextafter(1.999, 2.0)
    assert t + 1e-3 > 2.0
    assert pde_residual(demo_chain, [(t, z[:, 0])], h=1e-3) <= 1e-6


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


@pytest.mark.parametrize("kind", ["constant", "piecewise"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_batched_pde_residual_per_time_within_roundoff(q, kind):
    # a joint batch need not round a column as a (q, 1) call does (Lambda @ z
    # is one matrix product for all columns), and the quotient divides
    # that roundoff by the step, so each time group agrees within eps / h
    chain = build_chain(_piecewise_field(q, kind))
    z = _spread_points(q, 0.4 * chain.radius, 3)
    h = 1e-3
    for t in (0.5, 1.5, 1.7):
        samples = [(t, z[:, i]) for i in range(z.shape[1])]
        got = pde_residual(chain, samples, h=h)
        assert abs(got - _pde_residual_reference(chain, samples, h)) <= np.finfo(float).eps / h


def test_pde_residual_integrates_each_time_once(demo_chain, monkeypatch):
    calls = []
    for name in ("integrate_points", "integrate_variational"):
        def counted(*args, _name=name, _orig=getattr(herglotz, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(herglotz, name, counted)
    z = complex_ball_points(2, 0.4 * demo_chain.radius, 6)
    samples = [(t, z[:, i]) for t in (0.5, 1.5, 2.5) for i in range(6)]
    pde_residual(demo_chain, samples, h=1e-3)
    assert sorted(calls) == ["integrate_points"] * 6 + ["integrate_variational"] * 3


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


def test_verify_flags_perturbed_coefficient(demo_chain):
    W = demo_chain.order
    bad = list(demo_chain.chain_jets)
    bad[1] = bad[1] + PolyJet.from_terms(2, W, {(0, (2, 0)): 1e-3})
    doctored = dataclasses.replace(demo_chain, chain_jets=tuple(bad))
    rep = verify_subordination_chain(doctored)
    assert "transition-field-match" in rep.failures


def test_verify_flags_wrong_linear_part(demo_chain):
    W = demo_chain.order
    ident = tuple(PolyJet.identity(2, W) for _ in demo_chain.chain_jets)
    doctored = dataclasses.replace(demo_chain, chain_jets=ident)
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
        field=field, horizon=2, radius=R,
        chain_jets=jets, certificate=None, certificate_step=1.0,
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
    family = discretize(ContinuousEvolution(demo_field(), 3), 2)
    pts = complex_ball_points(2, 0.2, 3)
    rep = attraction_check(family, pts, tol=1e-6)
    assert rep.all_converged
    assert json.dumps(rep.to_json_dict())
