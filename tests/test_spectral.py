"""Optimal forms, the conjugation operator spectrum, and resonance search."""

import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from loewner import (
    HerglotzFieldSpec,
    PolyJet,
    TimeCoefficient,
    build_chain,
    compose,
    detect_resonances,
    gamma_matrix,
    invert,
    operator_norm,
    spectral_radius,
    spectral_split,
    to_optimal_form,
)
from loewner import spectral
from loewner.jets import enumerate_indices
from loewner.spectral import (_cluster_coupling, _complex_schur, expm,
                              triangular_compatibility_violations)

from conftest import (HomogeneousMap, homogeneous_part, random_spectrum, rho_stable,
                      rho_unstable_inverse)


# ---------------------------------------------------------------------- #
# optimal form


def test_reorders_diagonal_by_modulus():
    opt = to_optimal_form(np.diag([0.3, 0.5]).astype(complex))
    assert np.allclose(opt.matrix, np.diag([0.5, 0.3]))
    P = np.abs(opt.basis_change)
    assert np.allclose(P, [[0, 1], [1, 0]])


def test_already_optimal_returns_identity_change():
    # couplings are allowed only inside equal-modulus clusters
    A = np.array([[0.5, 0.0], [0.1, 0.5j]], dtype=complex)
    opt = to_optimal_form(A)
    assert np.array_equal(opt.basis_change, np.eye(2))
    assert np.array_equal(opt.matrix, A)


def test_large_coupling_is_scaled_below_one():
    A = np.array([[0.5, 0.0], [10.0, 0.5]], dtype=complex)
    opt = to_optimal_form(A)
    assert operator_norm(opt.matrix) < 1.0
    M = opt.basis_change
    residual = M @ A @ np.linalg.inv(M) - opt.matrix
    assert np.max(np.abs(residual)) <= 1e-10 * np.linalg.norm(A)


@pytest.mark.parametrize("seed", range(6))
def test_random_matrices_conjugate_exactly(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 5))
    lam = random_spectrum(rng, q, 0.2, 0.9)
    G = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    A_orig = G @ np.diag(lam) @ np.linalg.inv(G)
    opt = to_optimal_form(A_orig)
    d = np.abs(np.diagonal(opt.matrix))
    assert np.all(d[:-1] >= d[1:] - 1e-12)
    assert np.all(np.abs(np.triu(opt.matrix, 1)) <= 1e-12)
    rho = spectral_radius(A_orig)
    assert operator_norm(opt.matrix) <= (1 + rho) / 2 + 1e-12
    M = opt.basis_change
    residual = M @ A_orig @ np.linalg.inv(M) - opt.matrix
    assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.linalg.norm(A_orig))


def test_rejects_non_dilations():
    with pytest.raises(ValueError):
        to_optimal_form(np.diag([1.2, 0.5]))
    with pytest.raises(ValueError):
        to_optimal_form(np.diag([0.5, 0.0]))


def test_cluster_blocks_confine_couplings():
    # equal moduli may stay coupled, distinct moduli must decouple
    A = np.array([[0.5, 0, 0], [0.3, 0.5, 0], [0.2, 0.1, 0.25]], dtype=complex)
    opt = to_optimal_form(A)
    assert opt.cluster_sizes == (2, 1)
    assert abs(opt.matrix[2, 0]) <= 1e-12 and abs(opt.matrix[2, 1]) <= 1e-12
    assert abs(opt.matrix[1, 0]) > 0


# ---------------------------------------------------------------------- #
# diagonal shortcuts: scipy's own answers, bit for bit (.tobytes() tells a
# signed zero apart)


def _generators(rng, q):
    """Diagonal Lambdas, q x q, real and complex, with spectral abscissae in
    no particular order, so exp(Lambda)'s moduli come out unsorted."""
    re = -rng.uniform(0.05, 3.0, q)
    return [np.diag(re), np.diag(re + 1j * rng.uniform(-3.0, 3.0, q))]


def _dilations(rng, q):
    """Diagonal dilations: exp of _generators, and a complex one whose moduli
    tie in pairs, so that clusters hold more than one eigenvalue."""
    moduli = np.repeat(rng.uniform(0.05, 0.95, (q + 1) // 2), 2)[:q]
    rng.shuffle(moduli)
    tied = np.diag(moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, q)))
    return [scipy.linalg.expm(G).astype(complex) for G in _generators(rng, q)] + [tied]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", range(1, 7))
def test_expm_of_a_diagonal_is_scipys(q):
    rng = np.random.default_rng([32, q])
    cases = [G for _ in range(20) for G in _generators(rng, q)]
    Lam = cases[-1]
    # tau = 0 in the transient-growth scan, t = 0 in verify's -t Lambda
    cases += [np.zeros((q, q)), 0.0 * Lam, -0.0 * Lam]
    for G in cases:
        assert _same_bits(expm(G), scipy.linalg.expm(G))


@pytest.mark.parametrize("q", range(1, 7))
def test_schur_of_a_diagonal_is_scipys(q):
    rng = np.random.default_rng([33, q])
    cases = [D for _ in range(20) for D in _dilations(rng, q)]
    for D in cases + [np.zeros((q, q), dtype=complex)]:
        T, Q = _complex_schur(D)
        T_ref, Q_ref = scipy.linalg.schur(D, output="complex")
        assert _same_bits(T, T_ref) and _same_bits(Q, Q_ref)


@pytest.mark.parametrize("q", range(2, 7))
def test_zero_coupling_of_diagonal_clusters_is_scipys(q):
    # to_optimal_form hands over complex blocks: a real solve would keep
    # the sign of -L21's zeros, which complex products drop
    rng = np.random.default_rng([34, q])
    for _ in range(20):
        for L in [*_generators(rng, q), *_dilations(rng, q)]:
            L = L.astype(complex)
            for n1 in range(1, q):
                L11, L21, L22 = L[:n1, :n1], L[n1:, :n1], L[n1:, n1:]
                X = _cluster_coupling(L11, L21, L22)
                assert not X.any()
                assert _same_bits(X, scipy.linalg.solve_sylvester(-L22, L11, -L21))


def _scipy_path(monkeypatch, make):
    """make() with every diagonal shortcut off: each matrix goes to scipy."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_is_diagonal", lambda matrix: False)
        return make()


def _same_optimal_form(a, b):
    return (_same_bits(a.matrix, b.matrix) and _same_bits(a.basis_change, b.basis_change)
            and (a.cluster_sizes, a.epsilon, a.norm_bound)
            == (b.cluster_sizes, b.epsilon, b.norm_bound))


@pytest.mark.parametrize("q", range(1, 7))
def test_diagonal_dilations_get_scipys_optimal_form(q, monkeypatch):
    rng = np.random.default_rng([35, q])
    for D in [D for _ in range(5) for D in _dilations(rng, q)]:
        opt = to_optimal_form(D)
        assert _same_optimal_form(opt, _scipy_path(monkeypatch, lambda: to_optimal_form(D)))


def test_non_diagonal_lambda_still_goes_through_scipy(monkeypatch):
    # exp(Lambda) is lower triangular with its moduli out of order: a Schur
    # form, then a nonzero coupling between its two clusters
    Lam = np.array([[-1.0, 0.0], [0.3, -0.4]], dtype=complex)
    field = HerglotzFieldSpec(Lam, 2, (), horizon=1.0)
    spies = {name: mock.Mock(wraps=getattr(scipy.linalg, name))
             for name in ("expm", "schur", "solve_sylvester")}
    for name, spy in spies.items():
        monkeypatch.setattr(scipy.linalg, name, spy)
    opt = field.optimal
    assert all(spy.called for spy in spies.values())
    assert opt.cluster_sizes == (1, 1)
    ref = _scipy_path(monkeypatch, lambda: to_optimal_form(scipy.linalg.expm(Lam)))
    assert _same_optimal_form(opt, ref)


# ---------------------------------------------------------------------- #
# the conjugation operator


def _eig_multiset(lam, q, degree):
    out = []
    for j in range(q):
        for I in enumerate_indices(q, degree):
            out.append(lam[j] * np.prod(lam ** np.array(I)) ** -1)
    return np.sort_complex(np.asarray(out))


def test_gamma_diagonal_entries():
    lam = np.array([0.5 + 0.1j, 0.3 - 0.2j])
    G = gamma_matrix(np.diag(lam), 2)
    assert np.allclose(np.diag(np.diag(G)), G)
    assert np.allclose(np.sort_complex(np.diag(G)), _eig_multiset(lam, 2, 2))


def test_gamma_scalar_case():
    G = gamma_matrix(np.array([[0.5]]), 2)
    assert G.shape == (1, 1) and abs(G[0, 0] - 2.0) < 1e-14


@pytest.mark.parametrize("degree", [2, 3])
def test_gamma_spectrum_matches_formula_for_triangular(degree):
    A = np.array([[0.6, 0.0], [0.2, 0.6 * np.exp(0.7j)]], dtype=complex)
    lam = np.diagonal(A)
    G = gamma_matrix(A, degree)
    got = np.sort_complex(np.linalg.eigvals(G))
    want = _eig_multiset(lam, 2, degree)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_gamma_matches_jet_composition_oracle():
    rng = np.random.default_rng(2)
    A = np.array([[0.7, 0.0], [0.15, 0.4]], dtype=complex)
    degree = 3
    G = gamma_matrix(A, degree)
    Aj = PolyJet.from_linear(A, degree)
    Aji = invert(Aj)
    vec = rng.normal(size=G.shape[0]) + 1j * rng.normal(size=G.shape[0])
    H = HomogeneousMap.from_flat(2, degree, vec)
    direct = compose(Aj, compose(H.to_jet(degree), Aji, degree), degree)
    assert np.allclose(G @ vec, homogeneous_part(direct, degree).flat, atol=1e-12)


def test_gamma_conjugation_covariance():
    rng = np.random.default_rng(4)
    A = np.diag([0.6, 0.35]).astype(complex)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    S = gamma_matrix(M, 2)  # the matrix of H -> M o H o M^{-1}
    lhs = gamma_matrix(M @ A @ np.linalg.inv(M), 2)
    rhs = S @ gamma_matrix(A, 2) @ np.linalg.inv(S)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_gamma_blocks_are_invariant():
    # optimal shape: the only coupling sits inside the equal-modulus cluster
    A = np.array([[0.7, 0, 0], [0, 0.4 * np.exp(0.9j), 0],
                  [0, 0.15, 0.4]], dtype=complex)
    split = spectral_split(A, 2, 1e-9)
    G = gamma_matrix(A, 2)
    scale = np.max(np.abs(G))
    s, u = np.nonzero(split.stable)[0], np.nonzero(split.unstable)[0]
    assert np.max(np.abs(G[np.ix_(s, u)])) <= 1e-12 * scale
    assert np.max(np.abs(G[np.ix_(u, s)])) <= 1e-12 * scale
    # restricted spectra fall on the advertised side of the unit circle
    assert np.max(np.abs(np.linalg.eigvals(G[np.ix_(s, s)]))) < 1 - 1e-8
    assert np.min(np.abs(np.linalg.eigvals(G[np.ix_(u, u)]))) > 1 + 1e-8


# ---------------------------------------------------------------------- #
# spectral splitting


def test_split_example_unstable_direction():
    split = spectral_split(np.diag([0.5, 0.3]), 2)
    b = split.basis.index((0, (0, 2)))
    assert abs(split.mu[b] - 0.5 / 0.09) < 1e-12
    assert split.unstable[b] and not split.resonant[b]


def test_split_detects_exact_resonance():
    split = spectral_split(np.diag([0.4, 0.16]), 2)
    b = split.basis.index((1, (2, 0)))
    assert split.resonant[b]
    assert abs(split.eig_candidates[b] - 1.0) < 1e-12


def test_split_equal_moduli_all_unstable():
    split = spectral_split(np.diag([0.5, 0.5]), 2)
    assert split.dimension == 6
    assert np.all(split.unstable) and not split.resonant.any()
    assert np.allclose(split.mu, 2.0)


def test_split_partitions_basis():
    rng = np.random.default_rng(8)
    lam = random_spectrum(rng, 3, 0.2, 0.9)
    lam = lam[np.argsort(-np.abs(lam))]
    split = spectral_split(np.diag(lam), 3)
    total = split.stable.astype(int) + split.resonant.astype(int) \
        + split.unstable.astype(int)
    assert np.all(total == 1)
    assert rho_stable(split) < 1.0 and rho_unstable_inverse(split) < 1.0


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_split_and_detection_reject_a_tau_outside_the_rule(tau):
    # NaN empties every mask; a negative tau makes (1, (2, 0)) of
    # diag(0.4, 0.16) both stable and unstable
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        spectral_split(np.diag([0.5, 0.3]), 2, tau)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        detect_resonances([0.4, 0.16], tau=tau)


def test_split_and_detection_accept_tau_zero():
    split = spectral_split(np.diag([0.4, 0.16]), 2, 0.0)
    total = split.stable.astype(int) + split.resonant.astype(int) \
        + split.unstable.astype(int)
    assert np.all(total == 1)
    assert detect_resonances([0.5, 0.3], tau=0.0).p == 2


# ---------------------------------------------------------------------- #
# resonance detection


def _brute_force(lam, tau, max_degree):
    lam = np.asarray(lam, dtype=complex)
    q = len(lam)
    found = []
    for degree in range(2, max_degree + 1):
        for I in itertools.product(range(degree + 1), repeat=q):
            if sum(I) != degree:
                continue
            target = np.prod(np.abs(lam) ** np.array(I))
            for j in range(q):
                if abs(abs(lam[j]) - target) <= tau * abs(lam[j]):
                    found.append((j, tuple(I)))
    return sorted(found)


def test_detect_matches_brute_force_on_random_spectra():
    rng = np.random.default_rng(15)
    tau = 1e-9
    for _ in range(25):
        q = int(rng.integers(1, 4))
        lam = random_spectrum(rng, q, 0.25, 0.9)
        lam = lam[np.argsort(-np.abs(lam))]
        report = detect_resonances(lam, "multiplicative", tau)
        brute = _brute_force(lam, tau, report.p + 1)
        assert sorted(report.resonances) == brute
        assert not [r for r in brute if sum(r[1]) > report.p]


def test_detect_planted_resonances():
    report = detect_resonances([0.6, 0.36], "multiplicative")
    assert (1, (2, 0)) in report.resonances
    theta = np.exp(1j * np.array([0.3, 1.1, -2.0]))
    lam = np.array([0.7, 0.5, 0.35]) * theta  # |l1 l2| = |l3|
    report = detect_resonances(lam, "multiplicative")
    assert (2, (1, 1, 0)) in report.resonances


def test_detect_examples():
    report = detect_resonances([0.4, 0.16], "multiplicative")
    assert report.resonances == ((1, (2, 0)),)
    assert detect_resonances([0.5], "multiplicative").resonances == ()


def test_additive_mode_maps_through_exponential():
    a = -0.9
    report = detect_resonances([a, 2 * a], "additive")
    assert report.mode == "additive"
    assert (1, (2, 0)) in report.resonances
    with pytest.raises(ValueError):
        detect_resonances([0.1, -1.0], "additive")


def test_multiplicative_preconditions():
    with pytest.raises(ValueError):
        detect_resonances([1.5, 0.5], "multiplicative")
    with pytest.raises(ValueError):
        detect_resonances([0.5, 0.3], "nonsense")


def test_reports_respect_triangular_shape():
    rng = np.random.default_rng(23)
    for _ in range(10):
        lam = random_spectrum(rng, 3, 0.3, 0.9)
        lam = lam[np.argsort(-np.abs(lam))]
        report = detect_resonances(lam, "multiplicative", 1e-6)
        assert triangular_compatibility_violations(report, np.abs(lam)) == []


def test_degree_cutoff_definition():
    report = detect_resonances([0.8, 0.3], "multiplicative")
    # smallest p with 0.8^p < 0.3
    assert report.p == 6
    assert 0.8 ** report.p < 0.3 <= 0.8 ** (report.p - 1)


# ---------------------------------------------------------------------- #
# one resonance rule: the degree cutoff, the resonance list and the split
# all decide on the log-modulus gap


# a of a field Lambda = diag(a, 2a) whose exact resonance lies 4e-16 off the
# unit circle once exp rounds: |e^a|^2 - |e^{2a}| = -5.6e-17
REPRODUCER_A = -0.8643156622931031 + 0.02149214514609113j


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("m,m2", [(0.4, 0.4 * 0.4),
                                  (np.exp(REPRODUCER_A), np.exp(2 * REPRODUCER_A))],
                         ids=["m=0.4", "reproducer"])
def test_a_2a_spectrum_gets_one_answer_from_every_decision(m, m2, ulps):
    # [m, m^2], its real part moved by -1, 0 or +1 unit in the last place
    m2 = complex(np.nextafter(m2.real, ulps * np.inf) if ulps else m2.real, m2.imag)
    lam = np.array([m, m2])
    report = detect_resonances(lam, "multiplicative")
    assert report.p == 3
    assert report.resonances == ((1, (2, 0)),)
    split = spectral_split(np.diag(lam), 2)
    assert [split.basis[b] for b in np.nonzero(split.resonant)[0]] == [(1, (2, 0))]
    assert spectral_split(np.diag(lam), report.p).unstable.all()


def test_additive_reproducer_reads_the_real_parts():
    report = detect_resonances([REPRODUCER_A, 2 * REPRODUCER_A], "additive")
    assert (report.p, report.resonances) == (3, ((1, (2, 0)),))


def test_no_direction_at_or_beyond_the_cutoff_is_resonant():
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = int(rng.integers(1, 4))
        lam = random_spectrum(rng, q, 0.25, 0.9)
        p = detect_resonances(lam, "multiplicative").p
        for degree in (p, p + 1):
            split = spectral_split(np.diag(lam), degree)
            assert split.unstable.all() and not split.resonant.any()
        # p is the least such degree
        if p > 2:
            assert not spectral_split(np.diag(lam), p - 1).unstable.all()


def _sorted_eigenvalues(L):
    e = np.linalg.eigvals(L)
    return e[np.argsort(-e.real)]


@settings(max_examples=8)
@given(re_a=st.floats(-0.92, -0.6), im_a=st.floats(-0.2, 0.2),
       ratio=st.none() | st.floats(1.1, 1.9), angle=st.floats(0.0, np.pi),
       phase=st.floats(0.0, 2 * np.pi), cond=st.floats(1.0, 10.0))
def test_resonance_decisions_survive_conjugating_lambda(re_a, im_a, ratio, angle,
                                                        phase, cond):
    # ratio None plants Lambda = diag(a, 2a); otherwise Re b / Re a lies
    # strictly between 1 and 2, so no integer multiple relation holds
    a = complex(re_a, im_a)
    b = 2 * a if ratio is None else complex(ratio * re_a, -im_a)
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]])
    M = np.diag([1.0, 1.0 / cond]) @ R            # condition number cond
    outcomes = []
    for L in (np.diag([a, b]), M @ np.diag([a, b]) @ np.linalg.inv(M)):
        additive = detect_resonances(_sorted_eigenvalues(L), "additive")
        field = HerglotzFieldSpec(
            L, 2, ((1, (2, 0), TimeCoefficient.constant(0.1)),), horizon=1.0)
        chain = build_chain(field)
        outcomes.append((additive.resonances, additive.p, chain.resonances.resonances,
                         chain.resonances.p, chain.certificate is None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (((1, (2, 0)),) if ratio is None else ())
    assert outcomes[0][4] == (ratio is None)
