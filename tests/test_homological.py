"""The bounded solution of H_{n+1} = Gamma(H_n) + B_n."""

import numpy as np
import pytest

from loewner import (
    OptimalForm,
    gamma_matrix,
    solve_difference,
    spectral_split,
)

from loewner import homological

from conftest import HomogeneousMap, dense_sup_bound, gamma_factors, padded


def split_forcing(B, split):
    """Reference projection of one forcing term onto the resonant, stable
    and unstable families."""
    if (B.q, B.degree) != (split.q, split.degree):
        raise ValueError("forcing does not match the split")
    return tuple(HomogeneousMap.from_flat(B.q, B.degree, np.where(mask, B.flat, 0.0))
                 for mask in (split.resonant, split.stable, split.unstable))


def fixed_point_solution(gamma, split, B):
    """Reference solution of the autonomous H = Gamma(H) + B on the
    nonresonant families, by one dense linear solve."""
    idx = np.nonzero(split.stable | split.unstable)[0]
    flat = np.zeros(split.dimension, dtype=complex)
    if idx.size:
        sub = gamma[np.ix_(idx, idx)]
        flat[idx] = np.linalg.solve(np.eye(idx.size) - sub, B.flat[idx])
    return HomogeneousMap.from_flat(split.q, split.degree, flat)


def dense_solution(gamma, split, forcing):
    """Reference bounded solution on the dense gamma, as an array of flat
    H_0 .. H_T for a (T, q, M) forcing continued by its last row: the
    stable block forward from zero, the unstable block backward from the
    tail equation's fixed point, one np.linalg.solve per step."""
    s, u = np.nonzero(split.stable)[0], np.nonzero(split.unstable)[0]
    horizon = len(forcing)
    b = forcing.reshape(horizon, -1)
    H = np.zeros((horizon + 1, split.dimension), dtype=complex)
    Gs, Gu = gamma[np.ix_(s, s)], gamma[np.ix_(u, u)]
    h = np.zeros(s.size, dtype=complex)
    for n in range(horizon):
        h = Gs @ h + b[n][s]
        H[n + 1, s] = h
    h = np.linalg.solve(np.eye(u.size) - Gu, b[-1][u])
    H[horizon, u] = h
    for n in range(horizon - 1, -1, -1):
        h = np.linalg.solve(Gu, h - b[n][u])
        H[n, u] = h
    return H


def _setup(lam, degree=2, tau=1e-9):
    """Gamma's factors for diag(lam) and the split."""
    A = np.diag(np.asarray(lam, dtype=complex))
    return gamma_factors(A, degree), spectral_split(A, degree, tau)


def _random_nonresonant(rng, split, scale=1.0):
    vec = scale * (rng.normal(size=split.dimension)
                   + 1j * rng.normal(size=split.dimension))
    vec[split.resonant] = 0.0
    return vec.reshape(split.q, -1)


# ---------------------------------------------------------------------- #
# forcing projections


def test_split_forcing_single_stable_vector():
    _, split = _setup([0.9, 0.3])  # 0.3 < 0.81 puts X2_(2,0) in the stable set
    s = np.nonzero(split.stable)[0][0]
    vec = np.zeros(split.dimension, dtype=complex)
    vec[s] = 1.5j
    B = HomogeneousMap.from_flat(2, 2, vec)
    Br, Bs, Bu = split_forcing(B, split)
    assert Br.is_zero() and Bu.is_zero()
    assert Bs == B


def test_split_forcing_zero_and_reassembly():
    rng = np.random.default_rng(1)
    _, split = _setup([0.4, 0.16])
    zero = HomogeneousMap.zero(2, 2)
    assert all(part.is_zero() for part in split_forcing(zero, split))
    B = HomogeneousMap.from_flat(2, 2, rng.normal(size=split.dimension) + 0j)
    Br, Bs, Bu = split_forcing(B, split)
    assert Br + Bs + Bu == B


def test_split_forcing_degree_mismatch():
    _, split = _setup([0.5, 0.3])
    with pytest.raises(ValueError):
        split_forcing(HomogeneousMap.zero(2, 3), split)


# ---------------------------------------------------------------------- #
# the solver


def test_zero_forcing_gives_zero_solution():
    factors, split = _setup([0.5, 0.3])
    H, residuals = solve_difference(*factors, split, np.zeros((4, 2, 3)))
    assert H.shape == (5, 2, 3) and not H.any()
    assert residuals.shape == (4,) and not residuals.any()


def test_recurrence_residuals_below_tolerance():
    rng = np.random.default_rng(7)
    factors, split = _setup([0.6, 0.35], degree=3)
    terms = np.array([_random_nonresonant(rng, split) for _ in range(6)])
    H, residuals = solve_difference(*factors, split, padded(terms, 12))
    assert len(H) == 13
    for n, res in enumerate(residuals):
        assert res <= 1e-10, f"step {n} residual {res}"


def test_sup_bound_dominates_realized_norms():
    rng = np.random.default_rng(9)
    factors, split = _setup([0.7, 0.3], degree=2)
    terms = np.array([_random_nonresonant(rng, split) for _ in range(5)])
    forcing = padded(terms, 40)
    H, _ = solve_difference(*factors, split, forcing)
    sup_bound = dense_sup_bound(gamma_matrix(factors[0], 2), split, forcing)
    realized = np.abs(H).max()
    assert realized <= sup_bound
    assert np.isfinite(sup_bound)


def test_autonomous_matches_fixed_point():
    rng = np.random.default_rng(3)
    for lam, degree in [([0.5, 0.3], 2), ([0.6, 0.45], 3), ([0.8], 2)]:
        factors, split = _setup(lam, degree)
        gamma = gamma_matrix(factors[0], degree)
        B = HomogeneousMap(split.q, degree, _random_nonresonant(rng, split))
        H, _ = solve_difference(*factors, split, padded([B.coeffs], 60))
        star = fixed_point_solution(gamma, split, B)
        # away from the seam both ends sit on the fixed point
        assert (HomogeneousMap(split.q, degree, H[30]) - star).norm <= (
            1e-10 * max(1.0, star.norm))
        assert (star - HomogeneousMap.from_flat(
            split.q, degree, gamma @ star.flat + B.flat)).norm <= 1e-10


def test_scalar_unstable_fixed_point():
    # q=1, lambda=0.5: Gamma = [2] at degree 2, so H = b / (1 - 2) = -b
    factors, split = _setup([0.5])
    assert abs(np.kron(*factors[:2])[0, 0] - 2.0) < 1e-14
    b = np.array([[0.7 - 0.2j]])
    H, _ = solve_difference(*factors, split, padded([b], 10))
    for h in H[:8]:
        assert np.allclose(h, -b, atol=1e-12)


def test_zero_tail_returns_to_zero():
    rng = np.random.default_rng(5)
    factors, split = _setup([0.5, 0.3])
    B = _random_nonresonant(rng, split)
    H, _ = solve_difference(*factors, split, padded([B, np.zeros_like(B)], 80))
    # unstable content vanishes once the forcing stops; stable content decays
    assert not np.where(split.unstable.reshape(B.shape), H[1:], 0.0).any()
    assert np.abs(H[-1]).max() <= 1e-10 * max(1.0, np.abs(B).max())


def test_forward_only_divergence_witness():
    # seeding the unstable block with zero instead of the backward sum makes
    # the iteration blow up at the smallest unstable eigenvalue rate
    factors, split = _setup([0.5, 0.4])
    gamma = gamma_matrix(factors[0], 2)
    u = np.nonzero(split.unstable)[0]
    growth = np.min(np.abs(np.linalg.eigvals(gamma[np.ix_(u, u)])))
    assert growth > 1
    vec = np.zeros(split.dimension, dtype=complex)
    vec[u[0]] = 1.0
    B = HomogeneousMap.from_flat(2, 2, vec)
    H = np.zeros(split.dimension, dtype=complex)
    norms = []
    for _ in range(30):
        H = gamma @ H + B.flat
        norms.append(np.max(np.abs(H)))
    tail_ratio = norms[-1] / norms[-10]
    assert tail_ratio >= growth ** 8  # 9 steps of compounding


def test_resonant_forcing_is_rejected():
    factors, split = _setup([0.4, 0.16])
    r = np.nonzero(split.resonant)[0][0]
    vec = np.zeros(split.dimension, dtype=complex)
    vec[r] = 1.0
    with pytest.raises(ValueError, match="resonant"):
        solve_difference(*factors, split, vec.reshape(1, 2, 3))


def test_block_mixing_gamma_is_rejected():
    # A couples the distinct moduli 0.9 and 0.3, so Gamma maps the unstable
    # direction (0, (2, 0)) into the stable (1, (2, 0))
    A = np.array([[0.9, 0.0], [0.5, 0.3]], dtype=complex)
    split = spectral_split(A, 2)
    forcing = np.zeros((1, 2, 3))
    with pytest.raises(ValueError, match="optimal form"):
        solve_difference(*gamma_factors(A, 2), split, forcing)
    # and an upper-triangular A is no optimal form either
    with pytest.raises(ValueError, match="optimal form"):
        solve_difference(*gamma_factors(A.T, 2), split, forcing)


def test_forcing_must_be_a_nonempty_window_matching_the_split():
    factors, split = _setup([0.5, 0.3])
    # no window, no window axis, another degree's M, another q
    for shape in [(0, 2, 3), (2, 3), (1, 2, 4), (1, 3, 3)]:
        with pytest.raises(ValueError, match="forcing must be a nonempty"):
            solve_difference(*factors, split, np.zeros(shape))


# ---------------------------------------------------------------------- #
# the structured solve against the dense reference

OPTIMAL_FORMS = {
    "diagonal": np.diag([0.9, 0.6 * np.exp(0.3j), 0.3]),
    "(2,)": np.array([[0.6, 0.0], [0.2, 0.6 * np.exp(0.7j)]]),
    # |0.5| > |0.3|: inverting this block pivots
    "(2,) pivoted": np.array([[0.3, 0.0], [0.5, 0.3 * np.exp(0.7j)]]),
    "(2,1)": np.array([[0.9, 0.0, 0.0], [0.15, 0.9 * np.exp(0.7j), 0.0],
                       [0.0, 0.0, 0.3]]),
    "(1,2,1)": np.array([[0.95, 0.0, 0.0, 0.0], [0.0, 0.75, 0.0, 0.0],
                         [0.0, 0.1, 0.75 * np.exp(-1.1j), 0.0], [0.0, 0.0, 0.0, 0.3]]),
}


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("name", OPTIMAL_FORMS)
def test_gamma_is_lower_triangular_in_reversed_monomial_order(name, degree):
    # the tail fixed point's finite Jacobi iteration rests on this shape, held
    # exactly by the factors solve_difference takes
    A, S, _ = gamma_factors(OPTIMAL_FORMS[name], degree)
    G = np.kron(A, S)
    dense = gamma_matrix(A, degree)
    assert np.max(np.abs(G - dense)) <= 1e-14 * np.max(np.abs(dense))
    q, M = len(A), len(S)
    order = np.concatenate([j * M + np.arange(M)[::-1] for j in range(q)])
    assert not np.triu(G[np.ix_(order, order)], 1).any()


def test_optimal_form_inverse_is_exactly_lower_triangular():
    A = OPTIMAL_FORMS["(2,) pivoted"]
    opt = OptimalForm(A, np.eye(2), (2,), 1.0, float(np.linalg.norm(A, 2)))
    assert np.linalg.inv(A)[0, 1] != 0  # the pivoted inversion's roundoff
    assert opt.inverse_matrix[0, 1] == 0
    assert np.allclose(opt.inverse_matrix @ A, np.eye(2), rtol=0, atol=1e-15)


# the forcing's last row, repeated past the window: zero (a family that
# turns linear) or the last of five random rows
@pytest.mark.parametrize("last", ["zero", "constant"])
@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("name", OPTIMAL_FORMS)
def test_structured_solve_matches_dense_reference(name, degree, last):
    A = OPTIMAL_FORMS[name].astype(complex)
    split = spectral_split(A, degree)
    # one equal-modulus cluster has only unstable directions
    assert split.unstable.any() and (split.stable.any() or name.startswith("(2,)"))
    rng = np.random.default_rng(degree)
    terms = np.array([_random_nonresonant(rng, split) for _ in range(5)])
    if last == "zero":
        terms = np.concatenate([terms, np.zeros_like(terms[:1])])
    forcing = padded(terms, 12)
    factors = gamma_factors(A, degree)
    H, residuals = solve_difference(*factors, split, forcing)
    ref = dense_solution(gamma_matrix(A, degree), split, forcing)
    got = H.reshape(13, -1)
    # roundoff bound: measured at most 3.3e-15 of max |H|
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert max(residuals) <= 1e-13
    # B_k .. B_11 equal the last row, so H_k .. H_12 solve the tail
    # equation: their unstable blocks are its fixed point bit for bit
    unstable = split.unstable.reshape(terms.shape[1:])
    X = homological._unstable_fixed_point(*factors[:2], unstable, terms[-1], degree)
    for n in range(len(terms) - 1, 13):
        assert np.array_equal(np.where(unstable, H[n], 0.0), X), n

