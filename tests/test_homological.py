"""The bounded solution of H_{n+1} = Gamma(H_n) + B_n."""

import numpy as np
import pytest

from loewner import (
    ForcingSequence,
    HomogeneousMap,
    TAIL_CONSTANT,
    TAIL_ZERO,
    gamma_matrix,
    solve_difference,
    spectral_split,
)
from loewner.homological import _norm_series_bound, fixed_point_solution, split_forcing


def _setup(lam, degree=2, tau=1e-9):
    A = np.diag(np.asarray(lam, dtype=complex))
    split = spectral_split(A, degree, tau)
    return gamma_matrix(A, degree), split


def _random_nonresonant(rng, split, scale=1.0):
    vec = scale * (rng.normal(size=split.dimension)
                   + 1j * rng.normal(size=split.dimension))
    vec[split.resonant] = 0.0
    return HomogeneousMap.from_flat(split.q, split.degree, vec)


# ---------------------------------------------------------------------- #
# forcing projections


def test_split_forcing_single_stable_vector():
    gamma, split = _setup([0.9, 0.3])  # 0.3 < 0.81 puts X2_(2,0) in the stable set
    s = np.nonzero(split.stable)[0][0]
    vec = np.zeros(split.dimension, dtype=complex)
    vec[s] = 1.5j
    B = HomogeneousMap.from_flat(2, 2, vec)
    Br, Bs, Bu = split_forcing(B, split)
    assert Br.is_zero() and Bu.is_zero()
    assert Bs == B


def test_split_forcing_zero_and_reassembly():
    rng = np.random.default_rng(1)
    gamma, split = _setup([0.4, 0.16])
    zero = HomogeneousMap.zero(2, 2)
    assert all(part.is_zero() for part in split_forcing(zero, split))
    B = HomogeneousMap.from_flat(2, 2, rng.normal(size=split.dimension) + 0j)
    Br, Bs, Bu = split_forcing(B, split)
    assert Br + Bs + Bu == B


def test_split_forcing_degree_mismatch():
    gamma, split = _setup([0.5, 0.3])
    with pytest.raises(ValueError):
        split_forcing(HomogeneousMap.zero(2, 3), split)


# ---------------------------------------------------------------------- #
# the solver


def test_zero_forcing_gives_zero_solution():
    gamma, split = _setup([0.5, 0.3])
    forcing = ForcingSequence(2, 2, (HomogeneousMap.zero(2, 2),) * 4, TAIL_ZERO)
    sol = solve_difference(gamma, split, forcing)
    assert all(H.is_zero() for H in sol.terms)
    assert max(sol.residuals) == 0.0


def test_recurrence_residuals_below_tolerance():
    rng = np.random.default_rng(7)
    gamma, split = _setup([0.6, 0.35], degree=3)
    terms = tuple(_random_nonresonant(rng, split) for _ in range(6))
    forcing = ForcingSequence(3, 2, terms, TAIL_CONSTANT, terms[-1])
    sol = solve_difference(gamma, split, forcing, horizon=12)
    assert len(sol.terms) == 13
    for n, res in enumerate(sol.residuals):
        assert res <= 1e-10, f"step {n} residual {res}"


def test_sup_bound_dominates_realized_norms():
    rng = np.random.default_rng(9)
    gamma, split = _setup([0.7, 0.3], degree=2)
    terms = tuple(_random_nonresonant(rng, split) for _ in range(5))
    forcing = ForcingSequence(2, 2, terms, TAIL_CONSTANT, terms[-1])
    sol = solve_difference(gamma, split, forcing, horizon=40)
    realized = max(H.norm for H in sol.terms)
    assert realized <= sol.sup_bound
    assert np.isfinite(sol.sup_bound)


def test_unstable_sum_matches_dense_inverse():
    # the sup bound reads Gamma_u^{-1} off the factors of the backward sweep
    rng = np.random.default_rng(21)
    for lam, degree in (([0.7, 0.3], 2), ([0.6, 0.35], 3), ([0.5, 0.45, 0.8], 3)):
        gamma, split = _setup(lam, degree=degree)
        u = np.nonzero(split.unstable)[0]
        assert u.size
        terms = tuple(_random_nonresonant(rng, split) for _ in range(4))
        sol = solve_difference(gamma, split,
                               ForcingSequence(degree, len(lam), terms, TAIL_CONSTANT, terms[-1]))
        inv = np.linalg.inv(gamma[np.ix_(u, u)])
        assert sol.unstable_sum == (float(np.linalg.norm(inv, np.inf))
                                    * _norm_series_bound(inv, "unstable"))


def test_autonomous_matches_fixed_point():
    rng = np.random.default_rng(3)
    for lam, degree in [([0.5, 0.3], 2), ([0.6, 0.45], 3), ([0.8], 2)]:
        gamma, split = _setup(lam, degree)
        B = _random_nonresonant(rng, split)
        forcing = ForcingSequence(degree, split.q, (B,) * 3, TAIL_CONSTANT, B)
        sol = solve_difference(gamma, split, forcing, horizon=60)
        star = fixed_point_solution(gamma, split, B)
        # away from the seam both ends sit on the fixed point
        assert (sol.terms[30] - star).norm <= 1e-10 * max(1.0, star.norm)
        assert (star - HomogeneousMap.from_flat(
            split.q, degree, gamma @ star.flat + B.flat)).norm <= 1e-10


def test_scalar_unstable_fixed_point():
    # q=1, lambda=0.5: Gamma = [2] at degree 2, so H = b / (1 - 2) = -b
    gamma, split = _setup([0.5])
    assert abs(gamma[0, 0] - 2.0) < 1e-14
    b = HomogeneousMap.from_flat(1, 2, np.array([0.7 - 0.2j]))
    forcing = ForcingSequence(2, 1, (b,) * 2, TAIL_CONSTANT, b)
    sol = solve_difference(gamma, split, forcing, horizon=10)
    for H in sol.terms[:8]:
        assert np.allclose(H.flat, -b.flat, atol=1e-12)


def test_zero_tail_returns_to_zero():
    rng = np.random.default_rng(5)
    gamma, split = _setup([0.5, 0.3])
    B = _random_nonresonant(rng, split)
    forcing = ForcingSequence(2, 2, (B,), TAIL_ZERO)
    sol = solve_difference(gamma, split, forcing, horizon=80)
    # unstable content vanishes once the forcing stops; stable content decays
    assert sol.terms[-1].norm <= 1e-10 * max(1.0, B.norm)


def test_forward_only_divergence_witness():
    # seeding the unstable block with zero instead of the backward sum makes
    # the iteration blow up at the smallest unstable eigenvalue rate
    gamma, split = _setup([0.5, 0.4])
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
    gamma, split = _setup([0.4, 0.16])
    r = np.nonzero(split.resonant)[0][0]
    vec = np.zeros(split.dimension, dtype=complex)
    vec[r] = 1.0
    forcing = ForcingSequence(2, 2, (HomogeneousMap.from_flat(2, 2, vec),),
                              TAIL_ZERO)
    with pytest.raises(ValueError, match="resonant"):
        solve_difference(gamma, split, forcing)


def test_block_mixing_gamma_is_rejected():
    gamma, split = _setup([0.9, 0.3])
    bad = gamma.copy()
    s, u = np.nonzero(split.stable)[0][0], np.nonzero(split.unstable)[0][0]
    bad[s, u] = 1.0
    forcing = ForcingSequence(2, 2, (HomogeneousMap.zero(2, 2),), TAIL_ZERO)
    with pytest.raises(ValueError, match="optimal form"):
        solve_difference(bad, split, forcing)


def test_constant_tail_requires_value():
    with pytest.raises(ValueError):
        ForcingSequence(2, 2, (HomogeneousMap.zero(2, 2),), TAIL_CONSTANT)
    with pytest.raises(ValueError):
        ForcingSequence(2, 2, (HomogeneousMap.zero(2, 2),), "periodic")
