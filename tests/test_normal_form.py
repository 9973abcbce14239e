"""Degree-by-degree normalization, its constants, and the discrete chains."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from loewner import (
    ContinuousEvolution,
    DiscreteEvolutionFamily,
    HerglotzFieldSpec,
    PolyJet,
    TimeCoefficient,
    TriangularFamily,
    build_chain,
    build_normal_form,
    compose,
    defect,
    discrete_chain,
    discretize,
    estimate_constants,
    extend_intertwining,
    invert,
    normal_form_step,
    normalize_field,
    range_growth_check,
    spectral_split,
    univalence_check,
)
from loewner import homological, normal_form
from loewner.normal_form import RangeGrowthReport
from loewner.spectral import PreconditionError, substitution_rows
from loewner.sampling import complex_ball_points

from conftest import (HomogeneousMap, complex_sphere_points, constants_reference, demo_field,
                      homogeneous_part, koenigs_family, koenigs_oracle, random_optimal_family)


@pytest.fixture(scope="module")
def koenigs10():
    # order 10 keeps the jet truncation error at |z| = 0.1 near 1e-12
    return build_normal_form(koenigs_family(0.5, 0.1), order=10, extension=24)


@pytest.fixture(scope="module")
def seed12_q2():
    fam = random_optimal_family(np.random.default_rng(12), 2, 3, horizon=3)
    return build_normal_form(fam, extension=8)


def _linear_family(A, order=3, horizon=3):
    step = PolyJet.from_linear(A, order)
    return DiscreteEvolutionFamily(A, (step,) * horizon)


def _resonant_family(c=0.05, order=3, horizon=2):
    A = np.diag([0.4, 0.16]).astype(complex)
    step = PolyJet.from_linear(A, order) + PolyJet.from_terms(
        2, order, {(1, (2, 0)): c})
    return DiscreteEvolutionFamily(A, (step,) * horizon)


# ---------------------------------------------------------------------- #
# families


def test_family_rejects_drifting_linear_part():
    A = np.array([[0.5]], dtype=complex)
    good = PolyJet.from_linear(A, 2)
    bad = PolyJet.from_linear(np.array([[0.51]]), 2)
    with pytest.raises(ValueError, match="linear part"):
        DiscreteEvolutionFamily(A, (good, bad))


def test_family_repeats_its_last_step():
    rng = np.random.default_rng(2)
    fam = random_optimal_family(rng, 2, 3, horizon=3)
    assert [fam.step(n) for n in range(3)] == list(fam.steps)
    for n in (3, 7, 400):
        assert fam.step(n) is fam.steps[-1]
    wider = fam.with_order(4)
    assert wider.step(9) is wider.steps[-1]
    with pytest.raises(IndexError):
        fam.step(-1)


def _ends_linear(family):
    """family with its linear map appended as the last step: past its
    stored steps the family turns linear."""
    last = PolyJet.from_linear(family.linear_part, family.order)
    return DiscreteEvolutionFamily(family.linear_part, family.steps + (last,))


@pytest.mark.parametrize("name", ["koenigs-order-8", "q3-stable"])
def test_a_family_that_turns_linear_stops_its_forcing(monkeypatch, name):
    # from the step that is the linear map A on, every degree's forcing row
    # is exactly zero, so the tail that repeats A continues the forcing by
    # zero
    if name == "q3-stable":
        family, order = _tabled_family(name), None
        assert spectral_split(family.linear_part, 2).stable.any()
    else:
        family, order = koenigs_family(0.5, 0.1), 8
    family = _ends_linear(family)
    linear_from = len(family) - 1
    forcings = []

    def recorded(A, S, S_inv, split, forcing):
        forcings.append((split.degree, np.array(forcing)))
        return solve(A, S, S_inv, split, forcing)

    solve = normal_form.solve_difference
    monkeypatch.setattr(normal_form, "solve_difference", recorded)
    res = build_normal_form(family, order=order)
    assert forcings[-1][0] == res.work_order >= (order or 2)
    for degree, forcing in forcings:
        assert len(forcing) > linear_from
        assert forcing[:linear_from].any(), degree
        assert not forcing[linear_from:].any(), degree


def test_transition_cocycle():
    rng = np.random.default_rng(2)
    fam = random_optimal_family(rng, 2, 3, horizon=4)
    direct = fam.transition(0, 4)
    stitched = compose(fam.transition(2, 4), fam.transition(0, 2))
    assert (direct - stitched).max_coeff <= 1e-12 * max(1.0, direct.max_coeff)
    # evaluate_transition iterates the exact steps; the jet drops degree > 3,
    # so agreement is only up to the truncation tail O(|z|^4)
    z = complex_ball_points(2, 0.01, 5)
    assert np.allclose(fam.evaluate_transition(0, 3, z),
                       fam.transition(0, 3).evaluate_many(z), atol=1e-7)


def test_triangular_family_rejects_leaky_steps():
    A = np.diag([0.5, 0.3]).astype(complex)
    leak = PolyJet.from_linear(A, 2) + PolyJet.from_terms(2, 2, {(0, (0, 2)): 1.0})
    with pytest.raises(ValueError, match="triangular"):
        TriangularFamily(A, (leak,))


# ---------------------------------------------------------------------- #
# defects


def test_defect_zero_for_linear_family():
    A = np.array([[0.5, 0.0], [0.1, 0.3]], dtype=complex)
    fam = _linear_family(A, order=4)
    k = tuple(PolyJet.identity(2, 4) for _ in range(4))
    T = tuple(PolyJet.from_linear(A, 4) for _ in range(3))
    for degree in range(2, 5):
        assert not defect(fam, k, T, degree).any()


def test_defect_scalar_example():
    fam = koenigs_family(0.5, 0.1)
    k = (PolyJet.identity(1, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    P = defect(fam, k, T, 2)
    assert P.shape == (2, 1, 1)
    assert np.allclose(P.reshape(-1), [0.1, 0.1])


def test_defect_counterexample_is_resonant():
    fam = _resonant_family(c=0.07)
    k = (PolyJet.identity(2, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    P = defect(fam, k, T, 2)[0]
    split = spectral_split(fam.linear_part, 2)
    flat = P.reshape(-1)
    assert abs(flat[split.basis.index((1, (2, 0)))] - 0.07) < 1e-14
    assert np.max(np.abs(flat[~split.resonant])) < 1e-14


def test_defect_requires_lower_degrees_clean():
    fam = koenigs_family(0.5, 0.1)
    k = (PolyJet.identity(1, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    with pytest.raises(ValueError, match="degree"):
        defect(fam, k, T, 3)  # the degree-2 defect was never removed


def test_defect_names_the_first_failing_step():
    # degree 2 normalized over a window of 4, then step 2's T picks up a
    # degree-2 term no conjugator accounts for: only step 2 breaks
    fam = koenigs_family(0.5, 0.1, horizon=4)
    k = (PolyJet.identity(1, 3),) * 5
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 4
    k, T, _ = normal_form_step(fam, k, T, 2)
    defect(fam, k, T, 3)  # the clean window passes the check
    bad = T[2] + PolyJet.from_terms(1, 3, {(0, (2,)): 0.01})
    T = T[:2] + (bad,) + T[3:]
    with pytest.raises(ValueError, match="below degree 3 at step 2 "):
        defect(fam, k, T, 3)


def test_step_refuses_an_empty_window():
    with pytest.raises(ValueError, match="window is empty"):
        normal_form_step(koenigs_family(0.5, 0.1), (PolyJet.identity(1, 3),), (), 2)


@pytest.mark.parametrize("k_shape,T_shape,message", [
    ((1, 3), (1, 4), "T_0 has q=1, order 4 but k_0 has q=1, order 3"),
    ((1, 4), (1, 3), "T_0 has q=1, order 3 but k_0 has q=1, order 4"),
], ids=["T-above-k", "k-above-T"])
def test_step_refuses_mixed_orders(k_shape, T_shape, message):
    # order-3 conjugators with order-4 one-step maps used to run degrees 2
    # and 3 and fail only at degree 4
    fam = koenigs_family(0.5, 0.1, order=4)
    k = (PolyJet.identity(*k_shape),) * 3
    T = (PolyJet.from_linear(np.eye(T_shape[0]) * 0.5, T_shape[1]),) * 2
    with pytest.raises(ValueError, match=message):
        normal_form_step(fam, k, T, 2)


def test_step_refuses_mixed_dimensions():
    A = np.diag([0.5, 0.3]).astype(complex)
    fam = _linear_family(A)
    k = (PolyJet.identity(2, 3), PolyJet.identity(1, 3), PolyJet.identity(2, 3))
    T = (PolyJet.from_linear(A, 3),) * 2
    with pytest.raises(ValueError, match="k_1 has q=1, order 3 but k_0 has q=2, order 3"):
        normal_form_step(fam, k, T, 2)


# ---------------------------------------------------------------------- #
# one normalization stage


def test_step_solves_scalar_homological_equation():
    fam = koenigs_family(0.5, 0.1, order=2)
    k = (PolyJet.identity(1, 2),) * 9
    T = (PolyJet.from_linear(fam.linear_part, 2),) * 8
    k2, T2, stage = normal_form_step(fam, k, T, 2)
    # 0.1 + 0.25 b = 0.5 b pins b = 0.4
    for n in range(6):
        assert abs(k2[n].coefficient(0, (2,)) - 0.4) < 1e-12
    assert T2[0] == T[0]
    assert stage.resonant_norm == 0.0


def test_step_absorbs_resonant_defect_into_T():
    fam = _resonant_family(c=0.05, order=2)
    k = (PolyJet.identity(2, 2),) * 7
    T = (PolyJet.from_linear(fam.linear_part, 2),) * 6
    k2, T2, stage = normal_form_step(fam, k, T, 2)
    for n in range(4):
        assert abs(T2[n].coefficient(1, (2, 0)) - 0.05) < 1e-14
        assert k2[n] == PolyJet.identity(2, 2)
    assert abs(stage.resonant_norm - 0.05) < 1e-14
    assert stage.recurrence_residual <= 1e-10


def _substitute_linear_reference(N, Ainv):
    """N o Ainv by one full jet composition, as every forcing term was built
    before the substitution rows were shared with Gamma."""
    lin = PolyJet.from_linear(Ainv, N.degree)
    return homogeneous_part(compose(N.to_jet(), lin), N.degree)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_forcing_matches_full_composition_bit_for_bit(q, degree):
    rng = np.random.default_rng(10 * q + degree)
    # moduli a, a^2, ..., a^q: resonant monomials at degrees 2 .. q
    a = 0.6 * np.exp(0.3j)
    A = np.diag(a ** np.arange(1, q + 1)) + np.tril(
        0.05 * (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))), -1)
    Ainv = np.linalg.inv(A)
    rows = substitution_rows(Ainv, degree)
    split = spectral_split(np.diag(np.diagonal(A)), degree)
    dense = rng.normal(size=split.dimension) + 1j * rng.normal(size=split.dimension)
    # one window of blocks with different nonzero columns, and a zero block
    flats = (dense, np.where(split.resonant, 0.0, dense), np.zeros_like(dense), dense)
    got = normal_form._substituted(np.array([f.reshape(q, -1) for f in flats]), rows)
    for flat, block in zip(flats, got):
        N = HomogeneousMap.from_flat(q, degree, flat)
        assert np.array_equal(block, _substitute_linear_reference(N, Ainv).coeffs)


def test_q5_order6_family_within_its_wall_and_memory_bounds(monkeypatch):
    # degree 6 at q = 5 has m = 5 * 210 = 1050 coefficients: a dense Gamma
    # alone is 1050^2 * 16 B = 17.6 MB.  The build took 1.6-2.6 s with the
    # dense Gamma and its LU solve, 0.78-1.0 s on Gamma's Kronecker factors
    # (2 vCPUs); the bound leaves room for a loaded machine.
    calls = {}

    def recorded(*args, _solve=normal_form.solve_difference):
        calls[args[3].degree] = args
        return _solve(*args)

    monkeypatch.setattr(normal_form, "solve_difference", recorded)
    family = random_optimal_family(np.random.default_rng(7), 5, 3, horizon=4)
    start = time.perf_counter()
    res = build_normal_form(family, order=6)
    assert time.perf_counter() - start < 8.0
    assert res.defect_sup <= 1e-10
    assert calls[6][3].dimension == 1050
    tracemalloc.start()
    try:
        homological.solve_difference(*calls[6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1050 ** 2 * 16


# ---------------------------------------------------------------------- #
# constants


def test_constants_linear_family():
    A = np.diag([0.5, 0.25]).astype(complex)
    fam = _linear_family(A)
    tri = TriangularFamily(A, tuple(PolyJet.from_linear(A, 3) for _ in range(3)))
    cs = estimate_constants(fam, tri)
    assert cs.beta == pytest.approx(4.0)  # max row sum of |A^{-1}|
    assert cs.alpha == pytest.approx(0.75)
    assert cs.r == 0.5
    assert cs.ell >= 2


def test_constants_koenigs_values(koenigs10):
    cs = koenigs10.constants
    assert cs.alpha == pytest.approx(0.75)
    assert cs.beta == pytest.approx(2.0)
    assert cs.ell == 3
    assert cs.r == pytest.approx(0.5)
    assert 0 < cs.s <= cs.r and cs.C >= 0


# ---------------------------------------------------------------------- #
# the driver


def test_build_linear_family_is_trivial():
    A = np.diag([0.6, 0.4]).astype(complex)
    res = build_normal_form(_linear_family(A), extension=6)
    for n in range(res.work_horizon):
        assert res.normalizers[n] == PolyJet.identity(2, res.work_order)
        assert res.triangular.step(n) == PolyJet.from_linear(A, res.work_order)
    assert res.linearizable and res.certificate == "linearizable"


def test_build_koenigs_matches_classical_limit(koenigs10):
    h = koenigs10.intertwining_jet(0)
    pts = np.concatenate(([0.05, 0.1], 0.1 * complex_ball_points(1, 1.0, 6)[0]))
    got = h.evaluate_many(pts[None, :])[0]
    want = koenigs_oracle(0.5, 0.1, pts)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_build_resonance_free_collapse():
    rng = np.random.default_rng(6)
    fam = random_optimal_family(rng, 2, 3, horizon=3)
    res = build_normal_form(fam, extension=8)
    if res.resonance_report.is_resonant:
        pytest.skip("sampler hit a resonance")
    A = fam.linear_part
    W = res.work_order
    for m in (1, 2, 4):
        want = PolyJet.from_linear(np.linalg.matrix_power(A, m), W)
        assert (res.triangular.transition(0, m) - want).max_coeff <= 1e-12


def test_build_counterexample_keeps_resonant_term():
    res = build_normal_form(_resonant_family(c=0.05), extension=8)
    assert not res.linearizable
    assert res.certificate == "resonant-normal-form"
    assert abs(res.triangular.step(0).coefficient(1, (2, 0))) > 1e-3
    # T stabilizes at degree <= p - 1
    assert res.triangular.degree <= res.resonance_report.p - 1


def test_build_work_order_covers_ell():
    rng = np.random.default_rng(10)
    fam = random_optimal_family(rng, 2, 2, horizon=2)
    res = build_normal_form(fam, extension=8)
    assert res.work_order >= res.constants.ell
    assert res.work_order >= res.order


def test_conjugacy_identity_through_work_order(koenigs10):
    scale = max(1.0, max(s.max_coeff for s in koenigs10.family.steps))
    for n in range(koenigs10.work_horizon):
        assert koenigs10.defect_jet(n).max_coeff <= 1e-10 * scale


def test_intertwining_identity_jets_and_points(seed12_q2):
    res = seed12_q2
    W = res.work_order
    n, m = 1, 4
    lhs = compose(res.normalizers[m], res.family.transition(n, m, W), W)
    rhs = compose(res.triangular.transition(n, m, W), res.normalizers[n], W)
    scale = max(1.0, lhs.max_coeff, rhs.max_coeff)
    assert (lhs - rhs).max_coeff <= 1e-10 * scale
    z = complex_ball_points(2, 0.3 * res.constants.r, 6)
    assert np.allclose(lhs.evaluate_many(z), rhs.evaluate_many(z),
                       atol=1e-9 * scale)


def test_contractive_orbits_within_certified_ball():
    rng = np.random.default_rng(14)
    fam = random_optimal_family(rng, 2, 2, horizon=3)
    res = build_normal_form(fam, extension=8)
    cs = res.constants
    z = complex_ball_points(2, cs.r, 10)
    norms0 = np.linalg.norm(z, axis=0)
    for m in range(1, 5):
        z = res.family.step(m - 1).evaluate_many(z)
        assert np.all(np.linalg.norm(z, axis=0) <= cs.alpha ** m * norms0 + 1e-12)


def test_cauchy_increments_respect_certificate(koenigs10):
    cs = koenigs10.constants
    assert koenigs10.convergence_log, "builder must record the probe"
    for gap, inc in koenigs10.convergence_log:
        assert inc <= max(2.0 * cs.increment_bound(gap), 1e-13)


def _convergence_log_reference(res):
    """The probe anchor by anchor: h_0 pushed and pulled back from scratch
    for every m, as the probe ran before its single pull-back pass."""
    probe = complex_ball_points(res.q, 0.5 * res.constants.r, 1)
    vals = [res.triangular.inverse_evaluate(0, m, res.normalizers[m].evaluate_many(
        res.family.evaluate_transition(0, m, probe))) for m in range(res.work_horizon + 1)]
    return tuple((m - 1, float(np.linalg.norm(vals[m] - vals[m - 1])))
                 for m in range(1, res.work_horizon + 1))


@pytest.fixture(scope="module")
def seed7_q4():
    fam = random_optimal_family(np.random.default_rng(7), 4, 3, horizon=2)
    return build_normal_form(fam, extension=8)


@pytest.mark.parametrize("name", ["koenigs10", "seed12_q2", "seed7_q4"])
def test_convergence_log_matches_per_anchor_loop(name, request):
    res = request.getfixturevalue(name)
    assert len(res.convergence_log) == res.work_horizon
    assert res.convergence_log == _convergence_log_reference(res)


def test_probe_pulls_back_in_one_pass(monkeypatch):
    calls = []

    def counted(f, w, _orig=normal_form.evaluate_triangular_inverse_many):
        calls.append(w.shape[1])
        return _orig(f, w)

    monkeypatch.setattr(normal_form, "evaluate_triangular_inverse_many", counted)
    res = build_normal_form(random_optimal_family(np.random.default_rng(12), 2, 3, horizon=3))
    # one pass applies each T_j^{-1} once; anchor by anchor took W (W + 1) / 2
    assert 0 < len(calls) <= res.work_horizon


# ---------------------------------------------------------------------- #
# pointwise extension and chains


def test_extension_agrees_with_jet_inside_ball(koenigs10):
    pts = complex_ball_points(1, 0.2, 8)
    via_ext = extend_intertwining(koenigs10, 0, pts)
    via_jet = koenigs10.intertwining_jet(0).evaluate_many(pts)
    assert np.max(np.abs(via_ext - via_jet)) <= 1e-9


def test_extension_matches_koenigs_outside_ball():
    res = build_normal_form(koenigs_family(0.5, 0.1), order=14, extension=24)
    z = np.array([[0.9 + 0.0j, 0.6 - 0.3j]])
    got = extend_intertwining(res, 0, z, radius=0.25, tol=1e-8)
    want = koenigs_oracle(0.5, 0.1, z[0])
    assert np.max(np.abs(got[0] - want)) <= 1e-8


def test_extension_reports_stuck_orbits(koenigs10):
    with pytest.raises(ValueError, match="never entered"):
        extend_intertwining(koenigs10, 0, np.array([[0.9]]), max_steps=1)


def _chain_point(res, n, points):
    """f_n = T_{0,n}^{-1} o h_n at the columns of points (q, count)."""
    return res.triangular.inverse_evaluate(0, n, res.intertwining_point(n, points))


def _chain_gap(res, k0_shift=0.0):
    """Largest gap between the chain jets f_n and the pointwise chain
    T_{0,n}^{-1} o h_n on ball samples of radius r/2, with k_0's first
    degree-2 coefficient shifted by k0_shift.

    The jets start from k_0; the pointwise chain reads only the far anchor
    k_W, so the two paths share no conjugator and a shifted k_0 shows.
    """
    k0 = res.normalizers[0]
    coeffs = np.array(k0.coeffs)
    coeffs[0, k0.tables.offsets[2]] += k0_shift
    res = dataclasses.replace(
        res, normalizers=(PolyJet(k0.q, k0.order, coeffs),) + res.normalizers[1:])
    pts = complex_ball_points(res.q, 0.5 * res.constants.r, 8)
    return max(float(np.abs(f.evaluate_many(pts) - _chain_point(res, n, pts)).max())
               for n, f in enumerate(discrete_chain(res)))


def test_discrete_chain_identity(koenigs10, seed12_q2):
    assert discrete_chain(koenigs10)[0] == koenigs10.intertwining_jet(0)
    for res in (koenigs10, seed12_q2):
        assert _chain_gap(res) <= 1e-9
        # a corrupted k_0 fails the check, and its gap is linear in the shift
        small, large = _chain_gap(res, 1e-6), _chain_gap(res, 1e-5)
        assert small > 1e-8
        assert large == pytest.approx(10.0 * small, rel=0.05)


def test_discrete_chain_linear_family():
    A = np.diag([0.5, 0.3]).astype(complex)
    res = build_normal_form(_linear_family(A), extension=6)
    for n, jet in enumerate(discrete_chain(res)):
        want = PolyJet.from_linear(np.linalg.matrix_power(np.linalg.inv(A), n),
                                   res.work_order)
        assert (jet - want).max_coeff <= 1e-10 * want.max_coeff


# ---------------------------------------------------------------------- #
# geometric checks


def test_range_growth_scalar_dilation_is_geometric():
    A = np.diag([0.5, 0.5]).astype(complex)
    res = build_normal_form(_linear_family(A), extension=16)
    rep = range_growth_check(res, n_max=12)
    s = rep.inner_radius
    for n, r_n in enumerate(rep.inradii):
        assert r_n == pytest.approx(s * 2.0 ** n, rel=1e-9)
    assert rep.nondecreasing and rep.passed
    assert rep.achieved_step == 10  # 2^10 is the first power past 10^3


def test_range_growth_componentwise_bound():
    A = np.diag([0.5, 0.3]).astype(complex)
    res = build_normal_form(_linear_family(A), extension=16)
    rep = range_growth_check(res, n_max=11)
    s = rep.inner_radius
    for n, r_n in enumerate(rep.inradii):
        assert r_n >= s * 2.0 ** n * (1 - 1e-9)
    assert rep.achieved_step is not None and rep.achieved_step <= rep.step_bound


def _growth_field3():
    Lam = np.diag([-0.6, -0.7 + 0.1j, -0.65]).astype(complex)
    terms = ((0, (0, 1, 1), TimeCoefficient.constant(0.2)),
             (1, (2, 0, 0), TimeCoefficient.constant(0.1 - 0.05j)),
             (2, (1, 0, 1), TimeCoefficient.constant(0.15j)))
    field = HerglotzFieldSpec(Lam, 3, terms, horizon=3.0)
    return build_normal_form(discretize(ContinuousEvolution(field, 3), 3), horizon=3)


def _squares_family(a=0.9, c=0.2, order=4, horizon=3):
    """Spectrum (a, a^2, a^4) with z_2 += c z_1^2 and z_3 += c z_2^2: an
    exact triangular normal form whose composed degree is 4."""
    A = np.diag([a, a ** 2, a ** 4]).astype(complex)
    step = PolyJet.from_linear(A, order) + PolyJet.from_terms(
        3, order, {(1, (2, 0, 0)): c, (2, (0, 2, 0)): c})
    return DiscreteEvolutionFamily(A, (step,) * horizon)


@pytest.fixture(scope="module")
def growth_cases():
    """Linear, Koenigs, planted (a, a^2), random optimal and triangular
    families at q = 1, 2, 3, and a rebuilt q = 3 field, as verify rebuilds it."""
    A = np.diag([0.5, 0.3]).astype(complex)
    rng = np.random.default_rng(808)
    return {
        "scalar-dilation": build_normal_form(
            _linear_family(np.diag([0.5, 0.5]).astype(complex)), extension=16),
        "componentwise": build_normal_form(_linear_family(A), extension=16),
        "koenigs": build_normal_form(koenigs_family(0.5, 0.1, horizon=2), extension=24),
        "planted-q2": build_normal_form(_resonant_family(), extension=24),
        "random-q2": build_normal_form(
            random_optimal_family(rng, 2, 2, horizon=3, hi=0.7), extension=24),
        "random-q3": build_normal_form(
            random_optimal_family(np.random.default_rng(31), 3, 2, horizon=3, lo=0.6,
                                  hi=0.7), extension=24),
        "squares-q3": build_normal_form(_squares_family(), extension=24),
        "linear-q2": build_normal_form(
            DiscreteEvolutionFamily(A, (PolyJet.from_linear(A, 3),) * 3), extension=24),
        "field-q3": _growth_field3(),
    }


def _range_growth_reference(result, s=None, n_max=None, *, factor=1000.0):
    """range_growth_check as a plain loop: T_{0,n} composed afresh for each
    n from the outermost step inwards, coefficient sums term by term, and
    both radii by bisection on [0, hi]."""
    s = result.constants.s if s is None else s
    lam_max = float(np.max(np.abs(np.diagonal(result.family.linear_part))))
    bound = math.ceil(3.0 * math.log(factor) / abs(math.log(lam_max)))
    last = min(bound if n_max is None else n_max, result.work_horizon)
    D = result.triangular.composed_degree
    steps = [result.triangular.step(k).truncated(D).extended(D) for k in range(last)]

    def largest(size):
        hi = s
        while size(hi) <= s:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if size(mid) <= s else (lo, mid)
        return lo

    inradii, sources = [], []
    achieved = None
    for n in range(last + 1):
        jet = PolyJet.identity(result.q, D)
        for k in reversed(range(n)):
            jet = compose(jet, steps[k], D)
        c = np.zeros((result.q, D + 1))
        for j, I, coef in jet.nonzero_terms():
            c[j, sum(I)] += abs(coef)
        sigma = float(np.linalg.svd(jet.linear_matrix, compute_uv=False)[0])
        deg = np.arange(D + 1)
        full = largest(lambda r: float(np.linalg.norm(c[:, 1:] @ r ** deg[1:])))
        split = largest(lambda r: sigma * r + float(np.linalg.norm(c[:, 2:] @ r ** deg[2:])))
        inradii.append(max(full, split))
        sources.append("a" if full > split else "b")
        if inradii[-1] >= factor * s:
            achieved = n
            break
    nondecreasing = all(b >= a * (1.0 - 1e-6) for a, b in zip(inradii, inradii[1:]))
    return RangeGrowthReport(s, factor, inradii[0], bound, tuple(inradii),
                             achieved, nondecreasing, tuple(sources))


@pytest.mark.parametrize("name", ["scalar-dilation", "componentwise", "koenigs",
                                  "random-q2", "linear-q2", "field-q3"])
@pytest.mark.parametrize("samples", [8, 12, 64])
def test_range_growth_matches_sequential_loop(growth_cases, name, samples):
    res = growth_cases[name]
    rep = range_growth_check(res)
    want = _range_growth_reference(res)
    assert rep.inradii == pytest.approx(want.inradii, rel=1e-12)
    assert rep == dataclasses.replace(want, inradii=rep.inradii,
                                      base_inradius=rep.base_inradius)
    short = range_growth_check(res, n_max=2)
    assert short.inradii == pytest.approx(want.inradii[:3], rel=1e-12)
    assert short.achieved_step is None and len(short.inradii) == 3
    # the forward map itself keeps `samples` points of each rho_n-sphere in
    # the s-ball, the definition the radii certify
    s = rep.inner_radius
    for n, rho in enumerate(rep.inradii):
        w = complex_sphere_points(res.q, rho, samples, start=n)
        for k in range(n):
            w = res.triangular.step(k).evaluate_many(w)
        assert float(np.linalg.norm(w, axis=0).max()) <= (1.0 + 1e-12) * s


@pytest.mark.parametrize("name", ["scalar-dilation", "componentwise", "koenigs",
                                  "planted-q2", "random-q2", "random-q3", "squares-q3",
                                  "field-q3"])
def test_range_growth_radii_are_certified(growth_cases, name):
    # rho_n bounds the inscribed radius of T_{0,n}^{-1}(s ball) from below,
    # so no sphere point may pull back closer to the origin
    res = growth_cases[name]
    rep = range_growth_check(res)
    s = rep.inner_radius
    pts = complex_sphere_points(res.q, s, 512)
    for n, rho in enumerate(rep.inradii):
        pulled = res.triangular.inverse_from_origin(np.full(512, n), pts)
        assert rho <= (1.0 + 1e-12) * float(np.linalg.norm(pulled, axis=0).min())
    assert rep.base_inradius == rep.inradii[0] == s
    assert len(rep.radius_bounds) == len(rep.inradii)


@pytest.mark.parametrize("A", [np.diag([0.5, 0.3]), np.array([[0.6, 0.0], [0.05, 0.6]]),
                               np.diag([0.7, 0.55, 0.4])], ids=["diag", "cluster", "q3"])
def test_range_growth_linear_family_is_exact(A):
    # a linear T_{0,n} = A^n has inscribed radius s / sigma_max(A^n)
    A = A.astype(complex)
    res = build_normal_form(_linear_family(A), extension=16)
    assert res.triangular.composed_degree == 1
    rep = range_growth_check(res)
    s = rep.inner_radius
    for n, rho in enumerate(rep.inradii):
        sigma = np.linalg.norm(np.linalg.matrix_power(A, n), 2)
        assert rho == pytest.approx(s / sigma, rel=1e-12)
    assert set(rep.radius_bounds) == {"b"} and rep.nondecreasing


def _planted_field(a, terms):
    """A field with Lambda = diag(a, 2a) and constant coefficients."""
    Lam = np.diag([a, 2 * a])
    return HerglotzFieldSpec(Lam, 3, tuple((j, idx, TimeCoefficient.constant(c))
                                           for j, idx, c in terms), horizon=3.0)


# the planted (a, 2a) documents of the fields-autonomous benchmark workload,
# seeds 11-13, first slot, with their achieved steps under the sampled
# sphere search and Nelder-Mead polish that the certified radii replaced
_PLANTED_FIELDS = (
    (_planted_field(-0.8589999141938439 - 0.00028885502395400997j, (
        (1, (2, 0), 0.17477498004691885 + 0.18558751546634505j),
        (1, (2, 1), -0.13857638215064422 - 0.1332530200564985j),
        (0, (1, 1), -0.10507930406184791 - 0.00753293000243776j),
        (0, (0, 3), -0.023661770937967525 + 0.1475411211395246j))), 9),
    (_planted_field(-0.8675577120675912 + 0.17870117714376982j, (
        (1, (2, 0), 0.20519819822845164 - 0.15648121233121987j),
        (0, (1, 1), 0.1786913796708251 + 0.003174387223058958j),
        (1, (0, 2), 0.10274158521341276 + 0.08162619181404236j),
        (1, (2, 1), -0.07687443480823414 + 0.04423587651658506j))), 9),
    (_planted_field(-0.9105358310911611 + 0.14212100597282362j, (
        (1, (2, 0), -0.2388055367342668 - 0.20733457396462443j),
        (0, (1, 2), 0.04261852301704168 - 0.02689383795025984j),
        (1, (1, 1), -0.04470194403252208 + 0.1926009884117313j),
        (0, (2, 0), 0.14949660993058428 + 0.08515679647339451j))), 8),
)


@pytest.mark.parametrize("field, step", _PLANTED_FIELDS, ids=["seed11", "seed12", "seed13"])
def test_range_growth_planted_fields_keep_their_steps(field, step):
    # verify's rebuild: the chain's own evolution, discretized and normalized
    chain = build_chain(field)
    _, res = normalize_field(chain.evolution, chain.horizon)
    assert res.triangular.composed_degree == 2
    rep = range_growth_check(res)
    assert rep.passed and rep.achieved_step == step


def test_composed_degree_follows_the_triangular_chain(growth_cases):
    assert growth_cases["squares-q3"].triangular.composed_degree == 4
    assert growth_cases["planted-q2"].triangular.composed_degree == 2
    # z_{k+1} += z_k^2 down six variables composes to degree 2^5 = 32
    A = np.diag([0.9 ** (2 ** k) for k in range(6)]).astype(complex)
    step = PolyJet.from_linear(A, 2) + PolyJet.from_terms(
        6, 2, {(k + 1, tuple(2 * (i == k) for i in range(6))): 0.1 for k in range(5)})
    deep = TriangularFamily(A, (step,) * 3)
    assert deep.composed_degree == 32
    res = growth_cases["squares-q3"]
    with pytest.raises(PreconditionError, match="composed degree 32"):
        range_growth_check(dataclasses.replace(res, triangular=deep))


def test_inverse_from_origin_matches_per_step_inverse(growth_cases):
    rng = np.random.default_rng(5)
    for name in ("random-q2", "field-q3"):
        tri = growth_cases[name].triangular
        q = tri.q
        pts = complex_ball_points(q, 0.3, 40, start=7)
        depths = rng.integers(0, 15, size=40)
        got = tri.inverse_from_origin(depths, pts)
        for c, n in enumerate(depths):
            want = tri.inverse_evaluate(0, int(n), pts[:, [c]])[:, 0]
            assert np.array_equal(got[:, c], want)


def test_univalence_check_outcomes(koenigs10):
    samples = complex_ball_points(1, 0.5, 10)
    ok = univalence_check(samples, samples)  # the identity map
    assert ok.passed and ok.violations == ()
    collide = univalence_check(np.array([[0.5, -0.5]]) ** 2,
                               np.array([[0.5, -0.5]]))
    assert not collide.passed
    h = koenigs10.intertwining_jet(0)
    grid = complex_ball_points(1, 0.45, 100)
    rep = univalence_check(h.evaluate_many(grid), grid, jets=[h])
    assert rep.passed and rep.linear_defect <= 1e-12



# ---------------------------------------------------------------------- #
# one power table per distinct family step


def _tabled_family(name):
    if name == "demo-field":
        return discretize(ContinuousEvolution(demo_field(), 4), 3)
    if name == "planted":
        return _resonant_family(horizon=4)
    if name == "q3-stable":
        # |lambda_2|, |lambda_3| < |lambda_1|^2: z_1^2 is a stable direction
        # of components 2 and 3 at degree 2
        return random_optimal_family(np.random.default_rng(12), 3, 3, horizon=4, lo=0.55)
    q = {"q3": 3, "q4": 4}[name]
    return random_optimal_family(np.random.default_rng(11), q, 3, horizon=4)


def _last_pass(family, res):
    """The last pass of res = build_normal_form(family), replayed: yields
    (fam, k, T, degree, tables) before each degree's stage, then
    (fam, k, T, None, tables) at its end, where k must be res's normalizers."""
    W, window = res.work_order, res.work_horizon
    fam = family.with_order(W)
    # one shared identity and one shared linear T, as the build starts
    k = (PolyJet.identity(fam.q, W),) * (window + 1)
    T = (PolyJet.from_linear(fam.linear_part, W),) * window
    tables = {}
    for degree in range(2, W + 1):
        yield fam, k, T, degree, tables
        k, T, _ = normal_form_step(fam, k, T, degree, tables=tables)
    assert k == res.normalizers
    yield fam, k, T, None, tables


def _window_lhs(fam, k, T, order, tables):
    """k_{n+1} o phi_n for every step, from normal_form._window_sides."""
    out = {}
    for blocks, lhs, _ in normal_form._window_sides(fam, k, T, order, tables, range(len(T))):
        for ns, block in zip(blocks, lhs):
            out.update(dict.fromkeys(ns, block))
    return [out[n] for n in range(len(T))]


@pytest.mark.parametrize("name", ["q3", "q4", "demo-field"])
def test_step_tables_compose_like_compose_at_every_degree(name):
    # before each degree's stage and at the working order after the last,
    # k_{n+1} o phi_n from the step's table (built at the working order) is
    # compose's jet bit for bit
    family = _tabled_family(name)
    for fam, k, T, degree, tables in _last_pass(family, build_normal_form(family)):
        order = degree or fam.order
        for n, lhs in enumerate(_window_lhs(fam, k, T, order, tables)):
            assert np.array_equal(lhs, compose(k[n + 1], fam.step(n), order).coeffs)


def _conjugacy_sides(family, k, T, n, order, tables):
    """Per-step reference: k_{n+1} o phi_n from phi_n's power table and
    T_n o k_n by compose, both through `order`."""
    step = family.step(n)
    key = normal_form._value_key(step)
    if key not in tables:
        tables[key] = normal_form.PowerTable(step)
    return tables[key].compose(k[n + 1], order), compose(T[n], k[n], order)


@pytest.mark.parametrize("name", ["q3", "q4", "demo-field", "planted"])
def test_window_defect_matches_the_per_step_reference(name):
    # every degree of the build's last pass: the window-wide defect block
    # equals k_{n+1} o phi_n - T_n o k_n formed one step at a time, and the
    # build's defect_sup is the per-step sup at the working order
    nonlinear = False
    family = _tabled_family(name)
    res = build_normal_form(family)
    for fam, k, T, degree, tables in _last_pass(family, res):
        if degree is None:
            ref = max((lhs - rhs).max_coeff for lhs, rhs in
                      (_conjugacy_sides(fam, k, T, n, fam.order, {}) for n in range(len(T))))
            assert res.defect_sup == ref
            continue
        got = defect(fam, k, T, degree, tables)
        assert got.shape == (len(T), fam.q, HomogeneousMap.zero(fam.q, degree).coeffs.shape[1])
        for n in range(len(T)):
            lhs, rhs = _conjugacy_sides(fam, k, T, n, degree, {})
            ref = homogeneous_part(lhs - rhs, degree).coeffs
            assert np.array_equal(got[n], ref), (degree, n)
            nonlinear |= normal_form._nonlinear(T[n].truncated(degree)).coeffs.any()
    # the planted resonance puts z_0^2 into every T_n: T_n o k_n takes the
    # step-by-step fallback from degree 3 on
    assert nonlinear == (name == "planted")


@pytest.mark.parametrize("name,distinct", [("q3", 4), ("demo-field", 1)])
def test_one_power_table_per_distinct_step_per_pass(monkeypatch, name, distinct):
    built, passes = [], []

    class Counted(normal_form.PowerTable):
        def __init__(self, g):
            built.append(normal_form._value_key(g))
            super().__init__(g)

    def step(family, k, T, degree, **kwargs):
        if degree == 2:
            passes.append(kwargs["tables"])
        return normal_form_step(family, k, T, degree, **kwargs)

    monkeypatch.setattr(normal_form, "PowerTable", Counted)
    monkeypatch.setattr(normal_form, "normal_form_step", step)
    family = _tabled_family(name)
    res = build_normal_form(family)
    steps = {normal_form._value_key(res.family.step(n)) for n in range(res.work_horizon)}
    assert len(steps) == distinct
    assert len(built) == distinct * len(passes)
    assert set(built[-distinct:]) == steps


def test_k_updates_compose_each_distinct_pair_once(monkeypatch):
    # a constant-coefficient field repeats (H_n, k_n) across its window:
    # each degree composes identity + H_n with k_n once per distinct pair
    composed = []

    def counted(outer, inner, order=None):
        composed.append((normal_form._value_key(outer), normal_form._value_key(inner)))
        return compose(outer, inner, order)

    monkeypatch.setattr(normal_form, "compose", counted)
    res = build_normal_form(_tabled_family("demo-field"))
    assert len(set(composed)) == len(composed) < res.work_horizon


def test_window_defect_forms_each_distinct_side_once(monkeypatch):
    # every degree of the demo field's last pass, and the working order
    # after it: the window's sides are formed once per distinct
    # (k_{n+1}, phi_n, T_n, k_n) and shared by every step that repeats it
    family = _tabled_family("demo-field")
    res = build_normal_form(family)
    formed = []
    sides = normal_form._window_sides

    def counted(*args):
        for blocks, lhs, rhs in sides(*args):
            formed.append(len(lhs))
            yield blocks, lhs, rhs

    monkeypatch.setattr(normal_form, "_window_sides", counted)
    key = normal_form._value_key
    for fam, k, T, degree, tables in _last_pass(family, res):
        distinct = {(key(k[n + 1]), key(fam.step(n)), key(T[n]), key(k[n]))
                    for n in range(len(T))}
        formed.clear()
        if degree is None:
            list(counted(fam, k, T, fam.order, tables, range(len(T))))
        else:
            defect(fam, k, T, degree, tables)
        assert sum(formed) == len(distinct) < len(T), degree


def test_unstable_tail_normalizers_share_one_value(monkeypatch):
    # no direction is stable at any degree, so past the stored steps the
    # forcing repeats its tail value and every tail H_n sits on the tail's
    # fixed point: k_n for n >= horizon - 1 is one jet, and a degree's
    # k-updates compose once per distinct (H_n, k_n), at most horizon of them
    composed = []

    def counted(outer, inner, order=None):
        composed.append((normal_form._value_key(outer), normal_form._value_key(inner)))
        return compose(outer, inner, order)

    monkeypatch.setattr(normal_form, "compose", counted)
    family = _tabled_family("q4")
    res = build_normal_form(family)
    for degree in range(2, res.work_order + 1):
        assert not spectral_split(family.linear_part, degree).stable.any()
    tail = {normal_form._value_key(kn) for kn in res.normalizers[res.horizon - 1:]}
    assert len(tail) == 1
    assert len(set(composed)) == len(composed) <= (res.work_order - 1) * res.horizon


# ---------------------------------------------------------------------- #
# certificate constants once per distinct value


def _distinct_normalizers(res):
    return {normal_form._value_key(kn) for kn in res.normalizers}


@pytest.mark.parametrize("name", ["demo-field", "q3", "q3-stable", "planted"])
def test_constants_match_the_per_step_reference(name):
    # both branches, bit for bit: with the normalizers (build, chain,
    # verify) and without (analyze, which passes one linear T); the q3
    # family's normalizers repeat along its unstable tail, while the stable
    # sweep gives the q3-stable family 37 distinct ones, which the s search
    # takes in several chunks
    res = build_normal_form(_tabled_family(name))
    distinct = len(_distinct_normalizers(res))
    assert (distinct < len(res.normalizers)) == (name != "q3-stable")
    if name == "q3-stable":
        chunk = normal_form._STACK_COEFFS // (res.q * res.normalizers[0].coeffs.size)
        assert distinct > chunk >= 1
    fam, tri = res.family, res.triangular
    trivial = TriangularFamily(fam.linear_part,
                               (PolyJet.from_linear(fam.linear_part, fam.order),))
    report = res.resonance_report
    for args in ((tri, report, res.normalizers), (tri, report), (trivial, report)):
        got = estimate_constants(fam, *args)
        assert repr(got) == repr(constants_reference(fam, *args)), args[1:2]
    assert repr(res.constants) == repr(constants_reference(fam, tri, report, res.normalizers))


def test_constants_bound_each_distinct_value_once(monkeypatch):
    # a constant-coefficient field repeats its steps and most normalizers:
    # one pair of majorant compositions per distinct (k_{n+1}, phi_n, T_n,
    # k_n), one SVD per distinct normalizer and trial radius
    res = build_normal_form(_tabled_family("demo-field"))
    fam, tri, k = res.family, res.triangular, res.normalizers
    key = normal_form._value_key
    sides = {(key(k[n + 1]), key(fam.step(n)), key(tri.step(n)), key(k[n]))
             for n in range(res.work_horizon)}
    distinct = _distinct_normalizers(res)
    assert len(sides) < res.work_horizon and len(distinct) < len(k)

    composed, radii, svds = [], [], []
    poly_compose, bounds = normal_form._poly_compose, normal_form._gradient_bounds
    norm = np.linalg.norm

    def counted_compose(outer, inner):
        composed.append(1)
        return poly_compose(outer, inner)

    def counted_bounds(coeffs, tables, radius):
        radii.append(radius)
        return bounds(coeffs, tables, radius)

    def counted_norm(x, *args, **kwargs):
        x = np.asarray(x)
        svds.append(x.size // (x.shape[-2] * x.shape[-1]))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(normal_form, "_poly_compose", counted_compose)
    monkeypatch.setattr(normal_form, "_gradient_bounds", counted_bounds)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    estimate_constants(fam, tri, res.resonance_report)
    outside = sum(svds)  # both branches: _as_optimal's two norms of A
    del svds[:], composed[:]
    assert estimate_constants(fam, tri, res.resonance_report, k) == res.constants
    assert len(composed) <= 2 * len(sides)
    assert sum(svds) - outside <= len(distinct) * len(set(radii))


# ---------------------------------------------------------------------- #
# majorant series arithmetic against numpy.polynomial


def _poly_compose_reference(outer, inner):
    out = np.zeros(1)
    for c in outer[::-1]:
        out = npp.polyadd(npp.polymul(out, inner), [c])
    return out


def test_majorant_series_arithmetic_matches_numpy_polynomial():
    # same coefficients and same lengths: trailing zeros are trimmed as
    # numpy.polynomial trims them, so `tail @ powers` reads the same terms
    rng = np.random.default_rng(41)
    series = [np.zeros(1), np.zeros(4), np.array([0.0, 1.0]), np.array([0.0, 0.0, 2.0, 0.0, 0.0]),
              np.array([0.0, 0.5, -0.0])]
    for _ in range(120):
        n = int(rng.integers(1, 8))
        s = rng.uniform(size=n) * (rng.uniform(size=n) < 0.7)
        if rng.uniform() < 0.4:
            s = np.concatenate([s, np.zeros(int(rng.integers(1, 4)))])
        series.append(s)
    for i, a in enumerate(series):
        for b in [series[j] for j in rng.integers(len(series), size=4)] + series[:5]:
            got = normal_form._poly_compose(a, b)
            assert got.tobytes() == _poly_compose_reference(a, b).tobytes(), (i, a, b)
            total = normal_form._series_add(got, a)
            assert total.tobytes() == npp.polyadd(got, a).tobytes()
            assert normal_form._series_add(a, got).tobytes() == npp.polyadd(a, got).tobytes()
