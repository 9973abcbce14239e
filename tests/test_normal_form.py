"""Degree-by-degree normalization, its constants, and the discrete chains."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from loewner import (
    DiscreteEvolutionFamily,
    HerglotzFieldSpec,
    PolyJet,
    TimeCoefficient,
    TriangularFamily,
    build_normal_form,
    compose,
    defect,
    discrete_chain,
    discretize,
    estimate_constants,
    extend_intertwining,
    invert,
    normal_form_step,
    range_growth_check,
    spectral_split,
    univalence_check,
)
from loewner.normal_form import RangeGrowthReport, _nelder_mead
from loewner.sampling import complex_ball_points, complex_sphere_points

from conftest import koenigs_family, koenigs_oracle, random_optimal_family


@pytest.fixture(scope="module")
def koenigs10():
    # order 10 keeps the jet truncation error at |z| = 0.1 near 1e-12
    return build_normal_form(koenigs_family(0.5, 0.1), order=10, extension=24)


@pytest.fixture(scope="module")
def seed12_q2():
    fam = random_optimal_family(np.random.default_rng(12), 2, 3, horizon=3)
    return build_normal_form(fam, extension=8)


def _linear_family(A, order=3, horizon=3, tail="constant"):
    step = PolyJet.from_linear(A, order)
    return DiscreteEvolutionFamily(A, (step,) * horizon, tail)


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


def test_family_tail_policies():
    fam_c = koenigs_family(0.5, 0.1, horizon=2)
    assert fam_c.step(7) == fam_c.steps[-1]
    fam_z = DiscreteEvolutionFamily(fam_c.linear_part, fam_c.steps, "zero")
    assert fam_z.step(7) == PolyJet.from_linear(fam_c.linear_part, 3)


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
        assert defect(fam, k, T, 0, degree).is_zero()


def test_defect_scalar_example():
    fam = koenigs_family(0.5, 0.1)
    k = (PolyJet.identity(1, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    P = defect(fam, k, T, 0, 2)
    assert np.allclose(P.flat, [0.1])


def test_defect_counterexample_is_resonant():
    fam = _resonant_family(c=0.07)
    k = (PolyJet.identity(2, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    P = defect(fam, k, T, 0, 2)
    split = spectral_split(fam.linear_part, 2)
    flat = P.flat
    assert abs(flat[split.basis.index((1, (2, 0)))] - 0.07) < 1e-14
    assert np.max(np.abs(flat[~split.resonant])) < 1e-14


def test_defect_requires_lower_degrees_clean():
    fam = koenigs_family(0.5, 0.1)
    k = (PolyJet.identity(1, 3),) * 3
    T = (PolyJet.from_linear(fam.linear_part, 3),) * 2
    with pytest.raises(ValueError, match="degree"):
        defect(fam, k, T, 0, 3)  # the degree-2 defect was never removed


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
    scale = max(1.0, koenigs10.family.coefficient_bound)
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
    return max(float(np.abs(f.evaluate_many(pts) - res.chain_point(n, pts)).max())
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


# The sequential range-growth loop that the batched, lockstep one replaced:
# one inverse_evaluate call and one scipy Nelder-Mead run per objective.

def _sphere_min_reference(point_fn, q, radius, samples, polish):
    pts = complex_sphere_points(q, radius, samples)
    vals = np.linalg.norm(point_fn(pts), axis=0)
    best = float(vals.min())
    if not polish:
        return best
    for idx in np.argsort(vals)[:2]:
        x0 = np.concatenate([pts[:, idx].real, pts[:, idx].imag])

        def objective(x):
            zc = x[:q] + 1j * x[q:]
            nz = np.linalg.norm(zc)
            if nz == 0.0:
                return float("inf")
            z = radius * zc / nz
            return float(np.linalg.norm(point_fn(z[:, None])[:, 0]))

        res = scipy.optimize.minimize(objective, x0, method="Nelder-Mead",
                                      options={"maxiter": 120, "fatol": 1e-14,
                                               "xatol": 1e-10})
        best = min(best, float(res.fun))
    return best


def _range_growth_reference(result, s=None, n_max=None, *, factor=1000.0,
                            samples=64, polish=True):
    cs = result.constants
    s = cs.s if s is None else s
    lam_max = float(np.max(np.abs(np.diagonal(result.family.linear_part))))
    bound = math.ceil(3.0 * math.log(factor) / abs(math.log(lam_max)))
    last = min(bound if n_max is None else n_max, result.work_horizon)
    inradii = []
    achieved = None
    for n in range(last + 1):
        rn = _sphere_min_reference(
            lambda p: result.triangular.inverse_evaluate(0, n, p),
            result.q, s, samples, polish)
        inradii.append(rn)
        if achieved is None and rn >= factor * s:
            achieved = n
            break
    nondecreasing = all(b >= a * (1.0 - 1e-6) for a, b in zip(inradii, inradii[1:]))
    return RangeGrowthReport(s, factor, inradii[0], bound, tuple(inradii),
                             achieved, nondecreasing)


def _growth_field3():
    Lam = np.diag([-0.6, -0.7 + 0.1j, -0.65]).astype(complex)
    terms = ((0, (0, 1, 1), TimeCoefficient.constant(0.2)),
             (1, (2, 0, 0), TimeCoefficient.constant(0.1 - 0.05j)),
             (2, (1, 0, 1), TimeCoefficient.constant(0.15j)))
    field = HerglotzFieldSpec(Lam, 3, terms, horizon=3.0)
    return build_normal_form(discretize(field, 3, 3).family, horizon=3)


@pytest.fixture(scope="module")
def growth_cases():
    """The two linear families above, criterion 8's three families and a
    rebuilt q = 3 field, as verify rebuilds it."""
    A = np.diag([0.5, 0.3]).astype(complex)
    rng = np.random.default_rng(808)
    return {
        "scalar-dilation": build_normal_form(
            _linear_family(np.diag([0.5, 0.5]).astype(complex)), extension=16),
        "componentwise": build_normal_form(_linear_family(A), extension=16),
        "koenigs": build_normal_form(koenigs_family(0.5, 0.1, horizon=2), extension=24),
        "random-q2": build_normal_form(
            random_optimal_family(rng, 2, 2, horizon=3, hi=0.7), extension=24),
        "linear-q2": build_normal_form(
            DiscreteEvolutionFamily(A, (PolyJet.from_linear(A, 3),) * 3), extension=24),
        "field-q3": _growth_field3(),
    }


@pytest.mark.parametrize("name", ["scalar-dilation", "componentwise", "koenigs",
                                  "random-q2", "linear-q2", "field-q3"])
@pytest.mark.parametrize("samples", [8, 12, 64])
def test_range_growth_matches_sequential_loop(growth_cases, name, samples):
    res = growth_cases[name]
    for polish in (True, False):
        assert range_growth_check(res, samples=samples, polish=polish) == \
            _range_growth_reference(res, samples=samples, polish=polish)


def test_range_growth_short_window_polishes_every_step(growth_cases):
    for name in ("random-q2", "field-q3"):
        res = growth_cases[name]
        rep = range_growth_check(res, n_max=5, samples=12)
        assert rep.achieved_step is None and len(rep.inradii) == 6
        assert rep == _range_growth_reference(res, n_max=5, samples=12)


@pytest.mark.parametrize("samples", [1, 8])
def test_range_growth_polish_pulls_first_sampled_step_back(growth_cases, samples):
    # the first n whose sampled minimum reaches 1000 s is not the achieved
    # step once polished, so a second polish batch has to run
    res = growth_cases["componentwise"]
    rough = range_growth_check(res, samples=samples, polish=False)
    rep = range_growth_check(res, samples=samples)
    assert rough.achieved_step < rep.achieved_step
    assert rep == _range_growth_reference(res, samples=samples)


def _drive(run, objective):
    """Feed a _nelder_mead generator one scalar objective value per point;
    return its result and the sizes of the batches it asked for."""
    sizes = []
    points = next(run)
    while True:
        sizes.append(len(points))
        try:
            points = run.send(np.array([objective(x) for x in points]))
        except StopIteration as done:
            return done.value, sizes


def test_lockstep_nelder_mead_matches_scipy():
    def bowl(x):
        return float(np.sum((x - 0.3) ** 2) + 0.1 * abs(x[0] * x[-1]))

    def kinked(x):
        return float(np.max(np.abs(x - np.arange(x.size))))

    options = {"maxiter": 120, "fatol": 1e-14, "xatol": 1e-10}
    shrunk = False
    starts = [np.array([0.0, 0.7, -0.2, 1.1]),     # zero coordinate: zdelt step
              np.array([0.4, -1.3]), np.array([2.0, 0.5, 0.0]),
              np.array([5.0, -3.0, 1.0, 0.25])]
    for f in (bowl, kinked):
        for x0 in starts:
            fun, sizes = _drive(_nelder_mead(x0.copy()), f)
            want = scipy.optimize.minimize(f, x0, method="Nelder-Mead", options=options)
            assert fun == want.fun
            shrunk |= x0.size > 1 and x0.size in sizes[1:]
    assert shrunk


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
