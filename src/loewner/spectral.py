"""Linear-part normalization and spectral analysis for dilation matrices.

A dilation is an invertible matrix with spectral radius below one.  The
routines here bring such a matrix into an "optimal" lower-triangular form
(modulus-sorted eigenvalues, operator norm < 1, couplings confined to
equal-modulus eigenvalue clusters), build the matrix of the conjugation
operator Gamma(H) = A o H o A^{-1} on homogeneous map spaces, classify its
monomial eigendirections into stable, resonant and unstable families, and
enumerate spectral resonances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .jets import MultiIndex, PolyJet, _power_rows, enumerate_indices

_CONJUGATION_RTOL = 1e-10

# default tau: bound on the log-modulus gap |log|lambda_j / lambda^I|| under
# which (j, I) is a resonance, a direction neither stable nor unstable
RESONANCE_TOL = 1e-9
# relative modulus gap under which eigenvalues join one cluster of the
# optimal form
CLUSTER_RTOL = 1e-9
# coarser cluster gaps to_optimal_form retries with when the requested gap's
# clusters cannot be decoupled or conjugate with too large a residual
_CLUSTER_RETRY_RTOLS = (1e-6, 1e-3, 1e-1)
# floor on the modulus _modulus_clusters scales its relative gap by
_CLUSTER_MODULUS_FLOOR = 1e-300
# relative modulus excess below which _sort_schur_ascending leaves a pair
_SCHUR_SORT_RTOL = 1e-14
# modulus increase _already_optimal still accepts as a nonincreasing diagonal
_SORTED_MODULI_ATOL = 1e-15

# largest polynomial degree the package enumerates: the resonance cutoff p
# and the contraction exponent ell must stay at or below it
MAX_DEGREE = 512


class PreconditionError(ValueError):
    """Well-formed input that violates a mathematical admissibility condition."""


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=complex)))))


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value: max |A z| / |z| over z != 0."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))


# scipy.linalg takes a process about 0.25 s and 15 MB to import, several
# times what a command on a benchmark document computes, and every matrix
# those documents hand expm, _complex_schur and _cluster_coupling is
# diagonal.  Each of the three returns scipy's own answer for a diagonal
# input, bit for bit, and imports scipy only for any other input.

def _is_diagonal(matrix: np.ndarray) -> bool:
    """Whether every off-diagonal entry of a square matrix is zero (either sign)."""
    return not np.any(matrix[~np.eye(matrix.shape[0], dtype=bool)])


def expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential.  For a diagonal matrix this is the exponential of
    each diagonal entry, which is scipy.linalg.expm's own diagonal branch."""
    A = np.asarray(matrix)
    if _is_diagonal(A):
        return np.diag(np.exp(np.diagonal(A)))
    import scipy.linalg
    return scipy.linalg.expm(A)


def _complex_schur(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, Q) with A = Q T Q^H and T upper triangular, as scipy.linalg.schur
    returns them.  A diagonal A is its own Schur form: LAPACK returns T = A
    and Q = I, column-major, and so does this, so the sort that follows
    runs on the same arrays."""
    if _is_diagonal(A):
        return np.array(A, order="F"), np.eye(A.shape[0], dtype=complex, order="F")
    import scipy.linalg
    return scipy.linalg.schur(A, output="complex")


@dataclass(frozen=True)
class OptimalForm:
    """A dilation in normalized coordinates.

    matrix is lower triangular with |diagonal| nonincreasing and operator
    norm below one; basis_change M satisfies M A_orig M^{-1} = matrix up to
    roundoff.  Off-diagonal entries only connect eigenvalues of equal
    modulus (cluster_sizes records the grouping), which keeps the monomial
    stable/unstable splitting of the conjugation operator exactly invariant.
    """

    matrix: np.ndarray
    basis_change: np.ndarray
    cluster_sizes: tuple[int, ...]
    epsilon: float
    norm_bound: float

    def __post_init__(self):
        for name in ("matrix", "basis_change"):
            a = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=complex))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def q(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.diagonal(self.matrix).copy()

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        """Inverse computed cluster block by cluster block, so entries across
        distinct-modulus clusters are exactly zero; np.tril drops the roundoff
        a pivoted block inversion leaves above the diagonal, so the inverse is
        exactly lower triangular like the matrix.  Computed once, read-only."""
        q = self.q
        inv = np.zeros((q, q), dtype=complex)
        lo = 0
        for size in self.cluster_sizes:
            block = self.matrix[lo:lo + size, lo:lo + size]
            inv[lo:lo + size, lo:lo + size] = np.tril(np.linalg.inv(block))
            lo += size
        inv.setflags(write=False)
        return inv

    @property
    def basis_change_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.basis_change)


def _modulus_clusters(moduli: Sequence[float], rtol: float) -> tuple[int, ...]:
    """Group a nonincreasing modulus sequence into near-tie clusters."""
    sizes = []
    current = 1
    for k in range(1, len(moduli)):
        if abs(moduli[k - 1] - moduli[k]) <= rtol * max(moduli[k - 1], _CLUSTER_MODULUS_FLOOR):
            current += 1
        else:
            sizes.append(current)
            current = 1
    sizes.append(current)
    return tuple(sizes)


def _swap_adjacent(T: np.ndarray, Q: np.ndarray, k: int) -> None:
    """Unitarily swap the diagonal entries k, k+1 of an upper triangular T."""
    a, b, c = T[k, k], T[k, k + 1], T[k + 1, k + 1]
    # eigenvector of [[a, b], [0, c]] for eigenvalue c
    v = np.array([b, c - a], dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return
    v /= nv
    G = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]], dtype=complex)
    T[k:k + 2, :] = G.conj().T @ T[k:k + 2, :]
    T[:, k:k + 2] = T[:, k:k + 2] @ G
    Q[:, k:k + 2] = Q[:, k:k + 2] @ G
    T[k + 1, k] = 0.0


def _sort_schur_ascending(T: np.ndarray, Q: np.ndarray) -> None:
    """Bubble-sort the Schur diagonal by nondecreasing modulus in place."""
    q = T.shape[0]
    for _ in range(q * q):
        swapped = False
        for k in range(q - 1):
            if abs(T[k, k]) > abs(T[k + 1, k + 1]) * (1.0 + _SCHUR_SORT_RTOL):
                _swap_adjacent(T, Q, k)
                swapped = True
        if not swapped:
            return


def _cluster_coupling(L11: np.ndarray, L21: np.ndarray, L22: np.ndarray) -> np.ndarray:
    """The X with L22 X - X L11 = L21 for complex blocks, as
    scipy.linalg.solve_sylvester solves it.  Two diagonal blocks with a zero
    coupling give X = 0, there and here."""
    if not np.any(L21) and _is_diagonal(L11) and _is_diagonal(L22):
        return np.zeros_like(L21)
    import scipy.linalg
    return scipy.linalg.solve_sylvester(-L22, L11, -L21)


def _decouple_clusters(L: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Zero the blocks of a lower-triangular L linking distinct clusters.

    Returns (L_decoupled, Y) with Y L Y^{-1} = L_decoupled; the cross blocks
    are set exactly to zero after the Sylvester elimination.
    """
    q = L.shape[0]
    if len(sizes) <= 1:
        return np.array(L), np.eye(q, dtype=complex)
    n1 = sizes[0]
    L11 = L[:n1, :n1]
    L21 = L[n1:, :n1]
    L22 = L[n1:, n1:]
    X = _cluster_coupling(L11, L21, L22)
    sub, Y2 = _decouple_clusters(L22, sizes[1:])
    out = np.zeros_like(L)
    out[:n1, :n1] = L11
    out[n1:, n1:] = sub
    Y = np.eye(q, dtype=complex)
    Y[n1:, :n1] = X
    full_Y2 = np.eye(q, dtype=complex)
    full_Y2[n1:, n1:] = Y2
    return out, full_Y2 @ Y


def _already_optimal(A: np.ndarray, cluster_rtol: float) -> tuple[int, ...] | None:
    """Cluster sizes if A is accepted as-is, else None."""
    q = A.shape[0]
    if np.any(np.triu(A, 1) != 0):
        return None
    moduli = np.abs(np.diagonal(A))
    if np.any(moduli[:-1] < moduli[1:] - _SORTED_MODULI_ATOL):
        return None
    if operator_norm(A) >= 1.0:
        return None
    sizes = _modulus_clusters(moduli, cluster_rtol)
    lo = 0
    for size in sizes:
        if np.any(A[lo + size:, lo:lo + size] != 0):
            return None
        lo += size
    return sizes


def to_optimal_form(matrix: np.ndarray, target_norm: float | None = None,
                    cluster_rtol: float = CLUSTER_RTOL) -> OptimalForm:
    """Conjugate a dilation into optimal lower-triangular form.

    The construction is a complex Schur factorization, a unitary reordering
    of the diagonal, elimination of couplings between distinct-modulus
    eigenvalue clusters, and a diagonal scaling diag(d, d^2, ..., d^q) with
    d halved from 1 until the operator norm is at most `target_norm`
    (default (1 + spectral radius)/2 < 1).

    A matrix that already has the shape (lower triangular, modulus-sorted,
    cluster-confined couplings, norm < 1) is returned untouched with the
    identity basis change.
    """
    A_orig = np.asarray(matrix, dtype=complex)
    q = A_orig.shape[0]
    if A_orig.shape != (q, q):
        raise ValueError(f"matrix must be square, got {A_orig.shape}")
    rho = spectral_radius(A_orig)
    if rho >= 1.0:
        raise ValueError(f"spectral radius {rho:.6g} is not below one: not a dilation")
    if abs(np.linalg.det(A_orig)) == 0.0:
        raise ValueError("matrix is singular: not a dilation")
    if target_norm is None:
        target_norm = (1.0 + rho) / 2.0
    if not rho < target_norm < 1.0:
        raise ValueError(
            f"target norm must lie in (spectral radius, 1), got {target_norm:.6g}")

    sizes = _already_optimal(A_orig, cluster_rtol)
    if sizes is not None and operator_norm(A_orig) <= target_norm:
        return OptimalForm(A_orig, np.eye(q, dtype=complex), sizes,
                           1.0, operator_norm(A_orig))

    scale = max(operator_norm(A_orig), 1.0)
    for attempt_rtol in (cluster_rtol, *_CLUSTER_RETRY_RTOLS):
        T, Q = _complex_schur(A_orig)
        _sort_schur_ascending(T, Q)
        flip = np.eye(q)[::-1]
        lower = flip @ T @ flip          # lower triangular, moduli nonincreasing
        lower = np.tril(lower)
        moduli = np.abs(np.diagonal(lower))
        sizes = _modulus_clusters(moduli, attempt_rtol)
        try:
            decoupled, Y = _decouple_clusters(lower, sizes)
        except np.linalg.LinAlgError:
            continue
        delta = 1.0
        M_pre = Y @ flip @ Q.conj().T
        while True:
            D = np.diag(delta ** np.arange(1, q + 1)).astype(complex)
            Dinv = np.diag(delta ** -np.arange(1.0, q + 1))
            A_new = np.tril(D @ decoupled @ Dinv)
            if operator_norm(A_new) <= target_norm:
                break
            delta /= 2.0
            if delta < 2.0 ** -200:
                raise ValueError("diagonal scaling failed to reach the target norm")
        M = D @ M_pre
        residual = np.max(np.abs(M @ A_orig @ np.linalg.inv(M) - A_new))
        if residual <= _CONJUGATION_RTOL * scale:
            return OptimalForm(A_new, M, sizes, delta, operator_norm(A_new))
    raise ValueError(
        "could not reach optimal form with acceptable conjugation residual; "
        "eigenvalue moduli are too poorly separated")


# ---------------------------------------------------------------------- #
# the conjugation operator on homogeneous map spaces


def substitution_rows(Ainv: np.ndarray, degree: int) -> np.ndarray:
    """compose's power rows (Ainv z)^I for the degree-`degree` monomials I, over
    every column of a degree-`degree` jet; the last square block is S^T, with
    S[K, I] = coefficient of z^K in (Ainv z)^I, both graded-lex."""
    jet = PolyJet.from_linear(Ainv, degree)
    t = jet.tables
    lo, hi = t.offsets[degree], t.offsets[degree + 1]
    pos, table = _power_rows(t, jet.coeffs, np.arange(lo, hi))
    return table[pos[lo:hi]]


def substitution_matrix(rows: np.ndarray) -> np.ndarray:
    """S from substitution_rows(Ainv, degree): S[K, I] = coefficient of z^K
    in (Ainv z)^I, the transpose of the rows' last square block."""
    return rows[:, -len(rows):].T


def gamma_matrix(matrix: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of H -> A o H o A^{-1} on degree-`degree` homogeneous maps.

    Basis vectors are the maps z -> z^I e_j ordered component-major with
    graded-lex indices inside each component; the matrix is assembled by jet
    composition of the coordinate substitution z -> A^{-1} z, which gives
    the Kronecker factorization kron(A, S) with S the substitution matrix.
    """
    if degree < 2:
        raise ValueError(f"homogeneous degree must be >= 2, got {degree}")
    A = np.asarray(matrix, dtype=complex)
    S = substitution_matrix(substitution_rows(np.linalg.inv(A), degree))
    return np.kron(A, np.ascontiguousarray(S))


@dataclass(frozen=True)
class SpectralSplit:
    """Classification of the monomial basis of degree-i homogeneous maps.

    gap[b] = log|lambda_j / lambda^I| for basis position b = (j, I); resonant,
    stable and unstable are the masks |gap| <= tau, gap < -tau and gap > tau.
    eig_candidates holds lambda_j lambda^{-I}, the eigenvalue of the
    conjugation operator along that basis direction.
    """

    q: int
    degree: int
    tau: float
    basis: tuple[tuple[int, MultiIndex], ...]
    gap: np.ndarray
    eig_candidates: np.ndarray
    stable: np.ndarray
    resonant: np.ndarray
    unstable: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def mu(self) -> np.ndarray:
        """|lambda_j / lambda^I| along each basis direction."""
        return np.exp(self.gap)

    @property
    def rho_stable(self) -> float:
        """Largest stable modulus (0 when the stable family is empty)."""
        return float(self.mu[self.stable].max()) if self.stable.any() else 0.0

    @property
    def rho_unstable_inverse(self) -> float:
        """Largest 1/mu over the unstable family (0 when empty)."""
        return float((1.0 / self.mu[self.unstable]).max()) if self.unstable.any() else 0.0


def _log_moduli(lam: np.ndarray) -> np.ndarray:
    """log|lambda| of a dilation spectrum, whose moduli lie in (0, 1)."""
    moduli = np.abs(lam)
    bad = (moduli == 0.0) | (moduli >= 1.0)
    if bad.any():
        raise PreconditionError(
            f"eigenvalue {lam[bad][0]} has modulus outside (0, 1): not a dilation spectrum")
    return np.log(moduli)


def _log_gaps(log_moduli: np.ndarray, indices) -> np.ndarray:
    """g[j, i] = log|lambda_j| - sum_k I_k log|lambda_k| for I = indices[i].

    The one resonance rule: (j, I) is resonant when |g| <= tau, stable when
    g < -tau and unstable when g > tau, for the degree cutoff, the resonance
    list and the spectral split alike."""
    return log_moduli[:, None] - np.asarray(indices, dtype=float) @ log_moduli


def _check_tau(tau: float) -> None:
    """A NaN tau empties every mask of the rule and a negative one lets the
    stable and unstable masks overlap, so tau must be finite and >= 0."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def spectral_split(linear_part: "OptimalForm | np.ndarray", degree: int,
                   tau: float = RESONANCE_TOL) -> SpectralSplit:
    """Split the degree-`degree` monomial basis by the log-modulus gap of
    lambda_j / lambda^I (_log_gaps)."""
    _check_tau(tau)
    lam = (linear_part.eigenvalues if isinstance(linear_part, OptimalForm)
           else np.diagonal(np.asarray(linear_part, dtype=complex)))
    q = len(lam)
    if degree < 2:
        raise ValueError(f"homogeneous degree must be >= 2, got {degree}")
    indices = enumerate_indices(q, degree)
    gap = _log_gaps(_log_moduli(lam), indices).ravel()
    eig = (lam[:, None] / np.prod(lam ** np.array(indices), axis=1)).ravel()
    basis = tuple((j, I) for j in range(q) for I in indices)
    return SpectralSplit(q, degree, tau, basis, gap, eig,
                         gap < -tau, np.abs(gap) <= tau, gap > tau)


# ---------------------------------------------------------------------- #
# resonance detection


@dataclass(frozen=True)
class ResonanceReport:
    """Resonances of a dilation spectrum.

    mode is "multiplicative" (|lambda_j| = |lambda^I|) or "additive"
    (Re alpha_j = Re <I, alpha>, read off Re alpha); either way |gap| <= tau
    (_log_gaps).  p is the least integer with p max log|lambda| <
    min log|lambda| - tau: every direction of degree >= p has gap > tau, so
    the enumeration over 2 <= |I| <= p is exhaustive.  Components in
    `resonances` are 0-based (j, I) pairs.
    """

    mode: str
    tolerance: float
    p: int
    resonances: tuple[tuple[int, MultiIndex], ...]

    @property
    def is_resonant(self) -> bool:
        return bool(self.resonances)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "tolerance": self.tolerance,
            "p": self.p,
            "resonances": [
                {"component": j + 1, "index": list(I)} for j, I in self.resonances
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "ResonanceReport":
        return ResonanceReport(
            mode=data["mode"],
            tolerance=float(data["tolerance"]),
            p=int(data["p"]),
            resonances=tuple(
                (int(e["component"]) - 1, tuple(int(x) for x in e["index"]))
                for e in data["resonances"]
            ),
        )


def _degree_cutoff(log_moduli: np.ndarray, tau: float) -> int:
    """Least p whose smallest degree-p gap, that of (argmin, p e_argmax), exceeds tau."""
    degrees = np.arange(1, MAX_DEGREE + 1)
    extreme = np.outer(degrees, np.eye(len(log_moduli))[np.argmax(log_moduli)])
    above = np.nonzero(_log_gaps(log_moduli, extreme)[np.argmin(log_moduli)] > tau)[0]
    if not above.size:
        raise PreconditionError(
            f"resonance degree cutoff exceeds the degree cap {MAX_DEGREE}: "
            f"eigenvalue log-moduli {log_moduli.min():.6g} and {log_moduli.max():.6g} "
            "are too far apart or too close to 0 (the unit circle)")
    return int(degrees[above[0]])


def detect_resonances(values: Sequence[complex], mode: str = "multiplicative",
                      tau: float = RESONANCE_TOL) -> ResonanceReport:
    """Enumerate resonances of a dilation spectrum, I-major and j-minor.

    values are the eigenvalues themselves (multiplicative mode) or the
    exponents alpha with Re alpha < 0 (additive mode); additive resonances
    of alpha coincide with multiplicative resonances of exp(alpha).
    """
    _check_tau(tau)
    vals = np.asarray(values, dtype=complex)
    q = len(vals)
    if mode == "additive":
        if np.any(vals.real >= 0.0):
            bad = vals[vals.real >= 0.0][0]
            raise ValueError(
                f"additive mode needs Re(alpha) < 0 for every exponent, got {bad}")
        log_moduli = vals.real
    elif mode == "multiplicative":
        log_moduli = _log_moduli(vals)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p = _degree_cutoff(log_moduli, tau)
    found = []
    for d in range(2, p + 1):
        indices = enumerate_indices(q, d)
        hits = np.argwhere(np.abs(_log_gaps(log_moduli, indices).T) <= tau)
        found.extend((int(j), indices[i]) for i, j in hits)
    return ResonanceReport(mode, tau, p, tuple(found))


def triangular_compatibility_violations(
        report: ResonanceReport, moduli: Sequence[float]) -> list[tuple[int, MultiIndex]]:
    """Resonances (j, I) with I_m > 0 for some m >= j despite sorted moduli.

    For a modulus-sorted dilation spectrum every resonance must involve only
    the strictly earlier variables, so a nonempty return value signals an
    inconsistent report.  Only meaningful when `moduli` is nonincreasing.
    """
    out = []
    for j, I in report.resonances:
        if any(I[m] > 0 for m in range(j, len(I))):
            out.append((j, I))
    return out
