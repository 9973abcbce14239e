"""Shared builders for the test suite.

Random families are sampled with eigenvalue moduli bounded away from zero
so the contraction exponent ell (and with it the working jet order) stays
small; the acceptance budget is one core and sixty seconds per suite.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import HealthCheck, settings
from scipy.special import ndtri

from loewner import (
    DiscreteEvolutionFamily,
    HerglotzFieldSpec,
    PolyJet,
    TimeCoefficient,
    build_chain,
    build_normal_form,
    compose,
    gradient_bound_matrix,
    invert,
    operator_norm,
    to_optimal_form,
)
from loewner.jets import _tables, index_count
from loewner.normal_form import (NormalFormConstants, _as_optimal, _majorant_series,
                                 _nonlinear, _poly_compose, _series_add, _smallest_ell)
from loewner.sampling import _NDTRI_CLIP, halton
from loewner.spectral import substitution_matrix, substitution_rows

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# ---------------------------------------------------------------------- #
# homogeneous maps and sphere samples: references only the tests use


@dataclass(frozen=True, eq=False)
class HomogeneousMap:
    """A polynomial map C^q -> C^q all of whose monomials share one degree."""

    q: int
    degree: int
    coeffs: np.ndarray  # shape (q, index_count(q, degree)), graded-lex columns

    def __post_init__(self):
        n = index_count(self.q, self.degree)
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if c.shape != (self.q, n):
            raise ValueError(f"expected shape ({self.q}, {n}), got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(q: int, degree: int) -> "HomogeneousMap":
        return HomogeneousMap(q, degree, np.zeros((q, index_count(q, degree)), dtype=complex))

    @staticmethod
    def from_flat(q: int, degree: int, vec: np.ndarray) -> "HomogeneousMap":
        return HomogeneousMap(q, degree, np.asarray(vec, dtype=complex).reshape(q, -1))

    @property
    def flat(self) -> np.ndarray:
        """Component-major flattening, matching the basis order (j, I)."""
        return self.coeffs.reshape(-1)

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def __add__(self, other):
        if not isinstance(other, HomogeneousMap):
            return NotImplemented
        if (self.q, self.degree) != (other.q, other.degree):
            raise ValueError("dimension/degree mismatch")
        return HomogeneousMap(self.q, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, HomogeneousMap):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return HomogeneousMap(self.q, self.degree, self.coeffs * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __eq__(self, other):
        if not isinstance(other, HomogeneousMap):
            return NotImplemented
        return ((self.q, self.degree) == (other.q, other.degree)
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def to_jet(self, order: int | None = None) -> PolyJet:
        order = self.degree if order is None else order
        if order < self.degree:
            raise ValueError("order must be >= degree")
        t = _tables(self.q, order)
        c = np.zeros((self.q, t.count), dtype=complex)
        c[:, t.offsets[self.degree]:t.offsets[self.degree + 1]] = self.coeffs
        return PolyJet(self.q, order, c)


def homogeneous_part(jet, degree):
    """The degree-`degree` homogeneous block of a jet, 1 <= degree <= order."""
    if degree < 1 or degree > jet.order:
        raise ValueError(
            f"homogeneous part of degree {degree} not available at order {jet.order}")
    t = jet.tables
    block = np.array(jet.coeffs[:, t.offsets[degree]:t.offsets[degree + 1]])
    return HomogeneousMap(jet.q, degree, block)


def complex_sphere_points(q: int, radius: float, count: int, start: int = 0) -> np.ndarray:
    """`count` points on the euclidean sphere |z| = radius in C^q, shape (q, count):
    Halton points mapped to Gaussian directions.

    Raises ValueError for a negative start, as halton does."""
    u = halton(count, 2 * q, start)
    g = ndtri(np.clip(u, _NDTRI_CLIP, 1.0 - _NDTRI_CLIP))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * (g[:, :q] + 1j * g[:, q:]).T


def random_spectrum(rng, q, lo=0.45, hi=0.8):
    """Contracting eigenvalues with moduli in [lo, hi], random phases."""
    moduli = rng.uniform(lo, hi, size=q)
    return moduli * np.exp(2j * np.pi * rng.uniform(size=q))


def random_polyjet(rng, q, order, linear=None, scale=0.3):
    """Jet with the given linear part and random higher-order terms."""
    if linear is None:
        linear = np.eye(q, dtype=complex)
    jet = PolyJet.from_linear(linear, order)
    for d in range(2, order + 1):
        m = HomogeneousMap.zero(q, d).flat.size
        vec = scale * (rng.normal(size=m) + 1j * rng.normal(size=m)) / m
        jet = jet + HomogeneousMap.from_flat(q, d, vec).to_jet(order)
    return jet


def random_optimal_family(rng, q, degree, horizon=3, lo=0.45, hi=0.8,
                          scale=0.3):
    """Random dilation family conjugated into optimal-form coordinates.

    The linear part is a random normal matrix with spectrum from
    random_spectrum, routed through to_optimal_form exactly as discretized
    fields are, so the sampler exercises the full pipeline.
    """
    lam = random_spectrum(rng, q, lo, hi)
    G = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    Q, _ = np.linalg.qr(G)
    A_orig = Q @ np.diag(lam) @ Q.conj().T
    opt = to_optimal_form(A_orig)
    Mj = PolyJet.from_linear(opt.basis_change, degree)
    Mij = PolyJet.from_linear(np.linalg.inv(opt.basis_change), degree)
    steps = []
    for _ in range(horizon):
        raw = random_polyjet(rng, q, degree, A_orig, scale)
        steps.append(compose(Mj, compose(raw, Mij, degree), degree))
    return DiscreteEvolutionFamily(opt.matrix, tuple(steps))


def gamma_factors(A, degree):
    """(A, S, S^{-1}) as solve_difference takes them: Gamma = kron(A, S) on
    degree-`degree` maps, S the substitution matrix of A^{-1}, S^{-1} that of A.
    A^{-1} is cut to its lower triangle, as OptimalForm.inverse_matrix is."""
    A = np.asarray(A, dtype=complex)
    return A, *(substitution_matrix(substitution_rows(X, degree))
                for X in (np.tril(np.linalg.inv(A)), A))


def norm_series_bound(block):
    """Upper bound for sum_{j>=0} ||block^j|| in the infinity norm, by dense
    powers: once some ||block^j0|| = eta < 1/2, every exponent splits as
    j = b*j0 + r with ||block^j|| <= eta^b ||block^r||, so the tail is the
    partial sum times 1/(1 - eta)."""
    partial = 1.0  # ||I||
    P = np.eye(block.shape[0], dtype=complex)
    for _ in range(4096):
        P = P @ block
        norm = float(np.linalg.norm(P, np.inf))
        if norm < 0.5:
            return partial / (1.0 - norm)
        partial += norm
    raise ValueError("operator powers did not contract within 4096 powers")


def padded(terms, horizon):
    """The (horizon, q, M) forcing B_0 .. B_{horizon-1} that continues the
    rows of terms by their last one, as solve_difference continues it."""
    terms = np.asarray(terms, dtype=complex)
    return terms[np.minimum(np.arange(horizon), len(terms) - 1)]


def dense_sup_bound(gamma, split, forcing):
    """A-priori bound on every ||H_n|| of the bounded solution of
    H_{n+1} = Gamma(H_n) + B_n over the infinite horizon, from the dense
    gamma: sum_j ||Gamma_s^j|| sup |B^s| plus ||Gamma_u^{-1}||
    sum_j ||Gamma_u^{-j}|| sup |B^u|, the sups over the rows of the
    (T, q, M) forcing, whose last row repeats past the window."""
    bound = 0.0
    for mask, inverse in ((split.stable, False), (split.unstable, True)):
        idx = np.nonzero(mask)[0]
        if not idx.size:
            continue
        block = gamma[np.ix_(idx, idx)]
        lead = 1.0  # the unstable sum starts at Gamma_u^{-1}
        if inverse:
            block = np.linalg.inv(block)
            lead = float(np.linalg.norm(block, np.inf))
        sup = max(float(np.max(np.abs(B.reshape(-1)[idx]))) for B in forcing)
        bound += lead * norm_series_bound(block) * sup
    return bound


def constants_reference(family, triangular, report, normalizers=None):
    """estimate_constants one window step and one normalizer at a time:
    every step's majorant, every T_n's inverse, every normalizer's gradient
    bound and operator norm at each trial radius, both majorant sides of
    every defect."""
    A_opt = _as_optimal(family.linear_part)
    q = family.q
    alpha = 0.5 * (A_opt.norm_bound + 1.0)
    c2 = max(math.sqrt(q) * float(_majorant_series(s)[2:].sum()) for s in family.steps)
    r = 0.5 if c2 == 0.0 else min(0.5, (alpha - A_opt.norm_bound) / c2)
    beta = float(np.abs(A_opt.inverse_matrix).sum(axis=1).max())
    inverses = [invert(tn) for tn in triangular.steps]
    for inv in inverses:
        beta = max(beta, float(gradient_bound_matrix(inv, 0.5).sum(axis=1).max()))
    ell = _smallest_ell(alpha, beta)
    last = len(triangular) - 1
    if normalizers is not None:
        rs = r
        for _ in range(60):
            dev = max(operator_norm(gradient_bound_matrix(_nonlinear(kn), rs))
                      for kn in normalizers)
            if dev < 1.0:
                break
            rs *= 0.5
        s = rs * max(0.0, 1.0 - dev)
        L = normalizers[0].order + 1
        worst = 0.0
        for n in range(len(normalizers) - 1):
            total = _series_add(
                _poly_compose(_majorant_series(normalizers[n + 1]),
                              _majorant_series(family.step(n))),
                _poly_compose(_majorant_series(triangular.step(min(n, last))),
                              _majorant_series(normalizers[n])))
            tail = total[L:]
            if tail.size:
                worst = max(worst, float(tail @ r ** (L + np.arange(tail.size))))
        C = beta * (math.sqrt(q) * worst) / r ** ell
    else:
        s = 0.5 * r
        worst = 0.0
        for n in range(len(family.steps)):
            total = _poly_compose(_majorant_series(inverses[min(n, last)]),
                                  _majorant_series(family.step(n)))
            total[1] = max(0.0, total[1] - 1.0)
            worst = max(worst, float(npp.polyval(r, total)))
        C = math.sqrt(q) * worst / r ** ell
    return NormalFormConstants(alpha, r, s, beta, ell, report.p, C)


def koenigs_family(lam, c, order=3, horizon=2):
    """Autonomous q=1 family phi(z) = lam z + c z^2."""
    step = PolyJet.from_terms(1, order, {(0, (1,)): lam, (0, (2,)): c})
    A = np.array([[lam]], dtype=complex)
    return DiscreteEvolutionFamily(A, tuple(step for _ in range(horizon)))


def koenigs_oracle(lam, c, points, iterations=400):
    """Classical Koenigs limit lam^{-n} phi^n(z), iterated to convergence."""
    w = np.asarray(points, dtype=complex)
    for n in range(iterations):
        w = lam * w + c * w * w
    return w / lam ** iterations


def demo_field():
    """Resonance-free 2D field used across the continuous-time tests."""
    Lam = np.diag([-0.6, -1.0]).astype(complex)
    terms = (
        (0, (0, 2), TimeCoefficient.constant(0.2)),
        (1, (1, 1), TimeCoefficient.constant(0.1 - 0.05j)),
    )
    return HerglotzFieldSpec(Lam, 3, terms, horizon=3.0)


def counterexample_field(c=0.3, alpha=None):
    """The resonant field H = (a z1, 2a z2 + c z1^2)."""
    a = np.log(0.4) if alpha is None else alpha
    Lam = np.diag([a, 2 * a]).astype(complex)
    return HerglotzFieldSpec(Lam, 2, ((1, (2, 0), TimeCoefficient.constant(c)),),
                             horizon=2.0)


@pytest.fixture(scope="session")
def demo_chain():
    return build_chain(demo_field())


@pytest.fixture(scope="session")
def koenigs_result():
    return build_normal_form(koenigs_family(0.5, 0.1), extension=24)
