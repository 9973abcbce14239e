"""Bounded solutions of the homological difference equation.

Given the conjugation operator Gamma on a space of degree-i homogeneous
maps and a forcing sequence B_n with no resonant component, solve

    H_{n+1} = Gamma(H_n) + B_n,        n = 0, 1, ..., T-1,

with the solution that stays bounded on the infinite horizon: the stable
component accumulates the past forward (seed zero), the unstable component
is pinned by its tail sum, equivalently by running the inverse recurrence
backward from the terminal value determined by the tail policy.  Both
evaluation orders only ever apply contractions, which is what makes the
computation stable; in exact arithmetic they reproduce the textbook sums

    H_n^s = sum_{j=0}^{n-1} Gamma^j B^s_{n-1-j},
    H_n^u = -sum_{j>=n}    Gamma^{n-1-j} B^u_j.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .jets import HomogeneousMap
from .spectral import RESONANCE_TOL, PreconditionError, SpectralSplit

_RESONANT_FORCING_RTOL = 1e-12
_BLOCK_LEAK_RTOL = 1e-12

TAIL_ZERO = "zero"
TAIL_CONSTANT = "constant"


@dataclass(frozen=True)
class ForcingSequence:
    """Forcing terms B_0 .. B_{T-1} plus the behaviour beyond the horizon.

    tail "zero" means B_n = 0 for n >= T; tail "constant" means
    B_n = tail_value for n >= T.
    """

    degree: int
    q: int
    terms: tuple[HomogeneousMap, ...]
    tail: str = TAIL_ZERO
    tail_value: HomogeneousMap | None = None

    def __post_init__(self):
        if self.tail not in (TAIL_ZERO, TAIL_CONSTANT):
            raise ValueError(f"unknown tail policy {self.tail!r}")
        if self.tail == TAIL_CONSTANT and self.tail_value is None:
            raise ValueError("constant tail needs a tail_value")
        for B in list(self.terms) + ([self.tail_value] if self.tail_value else []):
            if (B.q, B.degree) != (self.q, self.degree):
                raise ValueError("forcing terms must share one dimension and degree")
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> HomogeneousMap:
        if n < len(self.terms):
            return self.terms[n]
        if self.tail == TAIL_CONSTANT:
            return self.tail_value
        return HomogeneousMap.zero(self.q, self.degree)


@dataclass(frozen=True)
class SolutionSequence:
    """H_0 .. H_T together with certification data.

    residuals[n] is ||H_{n+1} - Gamma(H_n) - B_n|| / (1 + ||B_n||) in the
    max-coefficient norm; sup_bound is an a-priori bound C + C' on every
    ||H_n|| over the infinite horizon, computed from rigorously truncated
    operator-norm series of the stable block and the inverse unstable block.
    """

    degree: int
    q: int
    terms: tuple[HomogeneousMap, ...]
    residuals: tuple[float, ...]
    sup_bound: float
    stable_sum: float
    unstable_sum: float

    def __len__(self) -> int:
        return len(self.terms)


# powers _norm_series_bound tries before giving up on contraction
NORM_SERIES_MAX_POWER = 4096


def _norm_series_bound(block: np.ndarray, name: str) -> float:
    """Rigorous upper bound for sum_{j>=0} ||block^j|| in the infinity norm.

    Powers are accumulated until some ||block^j0|| = eta < 1; the tail is
    then dominated by the partial sum times 1/(1 - eta), because every
    exponent splits as j = b*j0 + r with ||block^j|| <= eta^b ||block^r||.
    block is Gamma's stable block, or the inverse of its unstable block
    (name "stable" or "unstable").  When the powers do not contract and an
    eigenvalue mu of Gamma's block lies within RESONANCE_TOL of the unit
    circle, the spectrum is out of range: PreconditionError.
    """
    m = block.shape[0]
    if m == 0:
        return 0.0
    partial = 1.0  # ||I||
    P = np.eye(m, dtype=complex)
    for _ in range(NORM_SERIES_MAX_POWER):
        P = P @ block
        norm = float(np.linalg.norm(P, np.inf))
        if norm < 0.5:
            return partial / (1.0 - norm)
        partial += norm
    radius = float(np.abs(np.linalg.eigvals(block)).max())
    if abs(radius - 1.0) <= RESONANCE_TOL:
        mu = radius if name == "stable" else 1.0 / radius
        raise PreconditionError(
            f"the {name} block of the conjugation operator has an eigenvalue "
            f"of modulus |mu| = {mu:.17g}, within {RESONANCE_TOL:g} of the unit "
            f"circle; its operator powers did not contract within "
            f"{NORM_SERIES_MAX_POWER} powers")
    raise ValueError(f"operator power norms did not contract within "
                     f"{NORM_SERIES_MAX_POWER} powers; spectral radius is not < 1")


def solve_difference(gamma: np.ndarray, split: SpectralSplit,
                     forcing: ForcingSequence, horizon: int | None = None
                     ) -> SolutionSequence:
    """Solve the difference equation over n = 0 .. horizon.

    The forcing must vanish on the resonant family; the gamma matrix must
    leave the stable and unstable coordinate families invariant (guaranteed
    by optimal-form linear parts, asserted here).  Under a constant tail the
    unstable terminal value is the autonomous fixed point
    (I - Gamma_u)^{-1} B^u_inf of the tail equation.
    """
    T = len(forcing) if horizon is None else horizon
    m = split.dimension
    if gamma.shape != (m, m):
        raise ValueError(f"gamma must be {m}x{m}, got {gamma.shape}")
    s_idx = np.nonzero(split.stable)[0]
    u_idx = np.nonzero(split.unstable)[0]
    r_idx = np.nonzero(split.resonant)[0]
    gscale = max(float(np.max(np.abs(gamma))), 1.0)
    for rows, cols in ((s_idx, u_idx), (u_idx, s_idx), (s_idx, r_idx), (u_idx, r_idx)):
        if rows.size and cols.size:
            leak = float(np.max(np.abs(gamma[np.ix_(rows, cols)])))
            if leak > _BLOCK_LEAK_RTOL * gscale:
                raise ValueError(
                    "gamma mixes the stable/resonant/unstable families "
                    f"(leak {leak:.3g}); the linear part is not in optimal form")

    b = np.zeros((T, m), dtype=complex)
    for n in range(T):
        B = forcing.term(n)
        if (B.q, B.degree) != (split.q, split.degree):
            raise ValueError("forcing does not match the split")
        b[n] = B.flat
        scale = max(float(np.max(np.abs(b[n]))), 1.0)
        if r_idx.size and float(np.max(np.abs(b[n][r_idx]))) > _RESONANT_FORCING_RTOL * scale:
            raise ValueError(f"forcing term {n} has a resonant component")

    Gs = gamma[np.ix_(s_idx, s_idx)]
    Gu = gamma[np.ix_(u_idx, u_idx)]

    H = np.zeros((T + 1, m), dtype=complex)

    # stable block: forward accumulation from a zero seed
    if s_idx.size:
        hs = np.zeros(s_idx.size, dtype=complex)
        for n in range(T):
            hs = Gs @ hs + b[n][s_idx]
            H[n + 1][s_idx] = hs

    # unstable block: backward from the tail-determined terminal value,
    # through one factorization of Gamma_u that the sup bound reuses
    if u_idx.size:
        if forcing.tail == TAIL_CONSTANT:
            bu_inf = forcing.tail_value.flat[u_idx]
            hu = np.linalg.solve(np.eye(u_idx.size) - Gu, bu_inf)
        else:
            hu = np.zeros(u_idx.size, dtype=complex)
        H[T][u_idx] = hu
        lu = scipy.linalg.lu_factor(Gu)
        for n in range(T - 1, -1, -1):
            hu = scipy.linalg.lu_solve(lu, hu - b[n][u_idx])
            H[n][u_idx] = hu

    residuals = []
    for n in range(T):
        r = H[n + 1] - gamma @ H[n] - b[n]
        residuals.append(float(np.max(np.abs(r))) / (1.0 + float(np.max(np.abs(b[n])))))

    # a-priori sup bound: geometric envelopes of the two one-sided sums
    all_terms = [forcing.term(n) for n in range(T)] + (
        [forcing.tail_value] if forcing.tail == TAIL_CONSTANT else [])
    bs_max = max((float(np.max(np.abs(fb.flat[s_idx]))) for fb in all_terms),
                 default=0.0) if s_idx.size else 0.0
    bu_max = max((float(np.max(np.abs(fb.flat[u_idx]))) for fb in all_terms),
                 default=0.0) if u_idx.size else 0.0
    stable_sum = _norm_series_bound(Gs, "stable") if s_idx.size else 0.0
    if u_idx.size:
        Gu_inv = scipy.linalg.lu_solve(lu, np.eye(u_idx.size))
        unstable_sum = (float(np.linalg.norm(Gu_inv, np.inf))
                        * _norm_series_bound(Gu_inv, "unstable"))
    else:
        unstable_sum = 0.0
    sup_bound = stable_sum * bs_max + unstable_sum * bu_max

    terms = tuple(HomogeneousMap.from_flat(split.q, split.degree, H[n])
                  for n in range(T + 1))
    return SolutionSequence(split.degree, split.q, terms, tuple(residuals),
                            sup_bound, stable_sum, unstable_sum)

