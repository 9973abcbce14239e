"""Bounded solutions of the homological difference equation.

Given the conjugation operator Gamma on a space of degree-i homogeneous
maps and a forcing sequence B_0 .. B_{T-1} with no resonant component,
continued past the window by its last row (B_n = B_{T-1} for n >= T), solve

    H_{n+1} = Gamma(H_n) + B_n,        n = 0, 1, ..., T-1,

with the solution that stays bounded on the infinite horizon: the stable
component accumulates the past forward (seed zero), the unstable component
is pinned by its tail sum, equivalently by running the inverse recurrence
backward from the fixed point of the tail equation H = Gamma(H) + B_{T-1}.
Both evaluation orders only ever apply contractions, which is what makes
the computation stable; in exact arithmetic they reproduce the textbook sums

    H_n^s = sum_{j=0}^{n-1} Gamma^j B^s_{n-1-j},
    H_n^u = -sum_{j>=n}    Gamma^{n-1-j} B^u_j.

Gamma = kron(A, S) is never formed: A is the optimal form and S the
substitution matrix of A^{-1} on the degree's monomials, so on a (q, M)
coefficient array Gamma is X -> A X S^T and its inverse X -> A^{-1} X S^{-T}.
"""
from __future__ import annotations

import math

import numpy as np

from .spectral import PreconditionError, SpectralSplit

_RESONANT_FORCING_RTOL = 1e-12
_BLOCK_LEAK_RTOL = 1e-12
# smallest |log|mu|| accepted on a stable or unstable direction, mu its
# Gamma eigenvalue: mu^j then halves within 4096 powers
MIN_LOG_MODULUS_GAP = math.log(2.0) / 4096

def _check_unit_gap(split: SpectralSplit) -> None:
    """Refuse a stable or unstable direction whose eigenvalue mu of Gamma
    lies within MIN_LOG_MODULUS_GAP of the unit circle in log-modulus."""
    near = np.abs(split.gap) <= MIN_LOG_MODULUS_GAP
    for name, mask in (("stable", split.stable), ("unstable", split.unstable)):
        hits = np.nonzero(mask & near)[0]
        if hits.size:
            b = hits[np.argmin(np.abs(split.gap[hits]))]
            raise PreconditionError(
                f"the {name} block of the conjugation operator at degree "
                f"{split.degree} has an eigenvalue of modulus |mu| = {split.mu[b]:.17g}, "
                f"within log-modulus {MIN_LOG_MODULUS_GAP:.3g} of the unit circle")


def _block_leak(absA: np.ndarray, absS: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> float:
    """Largest |Gamma| entry from the (q, M) mask cols into the mask rows:
    the max of |A[j, i]| |S[K, I]| over rows[j, K] and cols[i, I]."""
    reach = np.array([np.where(c, absS, 0.0).max(axis=1) for c in cols])  # [i, K]
    return float((absA * np.where(rows[:, None, :], reach, 0.0).max(axis=2)).max())


def _unstable_fixed_point(A: np.ndarray, S: np.ndarray, unstable: np.ndarray,
                          B: np.ndarray, degree: int) -> np.ndarray:
    """(I - Gamma_u)^{-1} B on the unstable mask, zero elsewhere.

    With A lower and S upper triangular, Gamma = D + N: D is its diagonal
    outer(diag A, diag S), and N moves a coefficient to a later component
    (A's strict lower part) or to a monomial earlier in graded-lex order
    (S's strict upper part, which lowers sum_k k I_k).  A chain of N-steps
    is at most (q - 1)(degree + 1) long, so the Jacobi iteration
    X <- (B + N X) / (1 - D) is exact after that many sweeps plus one, and
    after one sweep when A is diagonal.
    """
    q = A.shape[0]
    dA, dS = np.diagonal(A), np.diagonal(S)
    NA, NS = A - np.diag(dA), S - np.diag(dS)
    denom = 1.0 - np.outer(dA, dS)
    X = np.zeros_like(B)
    for _ in range((q - 1) * (degree + 1) + 2):
        new = np.divide(B + NA @ X @ S.T + dA[:, None] * (X @ NS.T), denom,
                        out=np.zeros_like(B), where=unstable)
        if np.array_equal(new, X):
            break
        X = new
    return X


def solve_difference(A: np.ndarray, S: np.ndarray, S_inv: np.ndarray,
                     split: SpectralSplit, forcing: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the difference equation over n = 0 .. T for the (T, q, M)
    forcing B_0 .. B_{T-1}, continued past T by its last row.

    Gamma = kron(A, S): A is the optimal form's lower-triangular matrix,
    S the substitution matrix of A^{-1} (S[K, I] the coefficient of z^K in
    (A^{-1} z)^I, spectral.substitution_matrix) and S_inv that of A.  A must
    be exactly lower and S exactly upper triangular, as they are when S is
    built on OptimalForm.inverse_matrix.  The forcing must vanish on the
    resonant family; Gamma must leave the stable and unstable coordinate
    families invariant (guaranteed by optimal-form linear parts, asserted
    here).  The unstable block is the autonomous fixed point
    (I - Gamma_u)^{-1} B^u_{T-1} of the tail equation on the trailing run
    of steps whose unstable forcing equals B^u_{T-1}, through H_T, and the
    backward sweep covers only the steps before that run.

    Returns H_0 .. H_T as one (T + 1, q, M) array and the recurrence
    residuals, residuals[n] = ||H_{n+1} - Gamma(H_n) - B_n|| / (1 + ||B_n||)
    in the max-coefficient norm.
    """
    q, degree = split.q, split.degree
    M = split.dimension // q
    A = np.asarray(A, dtype=complex)
    if A.shape != (q, q) or S.shape != (M, M) or S_inv.shape != (M, M):
        raise ValueError(f"A must be {q}x{q} and S, S_inv {M}x{M}, got "
                         f"{A.shape}, {S.shape}, {S_inv.shape}")
    if np.any(np.triu(A, 1) != 0) or np.any(np.tril(S, -1) != 0):
        raise ValueError("A must be lower and S upper triangular: "
                         "the linear part is not in optimal form")
    b = np.asarray(forcing, dtype=complex)
    if b.ndim != 3 or b.shape[1:] != (q, M) or not len(b):
        raise ValueError(f"forcing must be a nonempty (T, {q}, {M}) array "
                         f"matching the split, got shape {b.shape}")
    _check_unit_gap(split)
    stable, unstable, resonant = (mask.reshape(q, M) for mask in
                                  (split.stable, split.unstable, split.resonant))
    absA, absS = np.abs(A), np.abs(S)
    gscale = max(float(absA.max() * absS.max()), 1.0)
    for rows, cols in ((stable, unstable), (unstable, stable),
                       (stable, resonant), (unstable, resonant)):
        leak = _block_leak(absA, absS, rows, cols)
        if leak > _BLOCK_LEAK_RTOL * gscale:
            raise ValueError(
                "gamma mixes the stable/resonant/unstable families "
                f"(leak {leak:.3g}); the linear part is not in optimal form")

    T = len(b)
    b_max = np.abs(b).max(axis=(1, 2))
    leaked = np.where(resonant, np.abs(b), 0.0).max(axis=(1, 2))
    bad = np.nonzero(leaked > _RESONANT_FORCING_RTOL * np.maximum(b_max, 1.0))[0]
    if bad.size:
        raise ValueError(f"forcing term {bad[0]} has a resonant component")

    St = S.T
    H = np.zeros((T + 1, q, M), dtype=complex)

    # stable block: forward accumulation from a zero seed
    if stable.any():
        bs = np.where(stable, b, 0.0)
        h = H[0]
        for n in range(T):
            h = np.where(stable, A @ h @ St, 0.0) + bs[n]
            H[n + 1] = h

    # unstable block: the tail equation's fixed point X = Gamma_u X + B^u_{T-1}
    # solves every step of the trailing run of rows forced by B^u_{T-1},
    # since Gamma_u^{-1}(X - B^u_{T-1}) = X; the backward sweep starts below
    # that run
    if unstable.any():
        bu = np.where(unstable, b, 0.0)
        h = _unstable_fixed_point(A, S, unstable, b[-1], degree)
        moved = np.flatnonzero((bu[:-1] != bu[-1]).any(axis=(1, 2)))
        start = int(moved[-1]) + 1 if moved.size else 0
        H[start:] += h
        Ainv, Sinv_t = np.tril(np.linalg.inv(A)), S_inv.T
        for n in range(start - 1, -1, -1):
            h = np.where(unstable, Ainv @ (h - bu[n]) @ Sinv_t, 0.0)
            H[n] += h

    r = H[1:] - A @ H[:-1] @ St - b
    return H, np.abs(r).max(axis=(1, 2)) / (1.0 + b_max)
