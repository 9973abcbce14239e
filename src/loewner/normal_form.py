"""Triangular normal forms for nonautonomous contracting jet families.

A discrete evolution family is a sequence of polynomial contractions phi_n
sharing one linear part A in optimal form.  Degree by degree the family is
conjugated to triangular maps T_n carrying nonlinear terms on resonant
monomials only: with conjugators k_n tangent to the identity, the defect

    k_{n+1} o phi_n - T_n o k_n

is pushed past the working order.  Each degree solves the homological
difference equation driven by the nonresonant defect, keeping the one
solution that stays bounded for all n.  The limits
h_n = lim_m T_{n,m}^{-1} o k_m o phi_{n,m} intertwine the family with its
triangular model, and f_n = T_{0,n}^{-1} o h_n is the attached expanding
chain of maps with f_n = f_{n+1} o phi_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from .homological import ForcingSequence, TAIL_CONSTANT, TAIL_ZERO, solve_difference
from .jets import (HomogeneousMap, PolyJet, PowerTable, compose,
                   evaluate_triangular_inverse_many, gradient_bound_matrix, invert,
                   is_triangular, _monomial_values)
from .sampling import complex_ball_points
from .spectral import (CLUSTER_RTOL, MAX_DEGREE, RESONANCE_TOL, OptimalForm,
                       PreconditionError, ResonanceReport, _already_optimal,
                       detect_resonances, gamma_from_rows, operator_norm, spectral_split,
                       substitution_rows, triangular_compatibility_violations)

_LINEAR_MATCH_TOL = 1e-8
_LINEARIZABLE_TOL = 1e-11
_IDENTITY_BREAK_TOL = 1e-10
# largest linear-part deviation from the identity the univalence check accepts
UNIVALENCE_LINEAR_TOL = 1e-8
# univalence_check's defaults: least sample distance it compares, and the
# image distance it reads as a collision
UNIVALENCE_DELTA = 1e-4
UNIVALENCE_COLLISION = 1e-10
# relative gap extend_intertwining allows between the values of two anchors
EXTENSION_ANCHOR_RTOL = 1e-10


def _nonlinear(jet: PolyJet) -> PolyJet:
    t = jet.tables
    coeffs = np.array(jet.coeffs)
    coeffs[:, t.offsets[1]:t.offsets[2]] = 0.0
    return PolyJet(jet.q, jet.order, coeffs)


def _value_key(jet: PolyJet) -> tuple:
    """Cache key equal for jets with identical coefficients.

    Object ids are reused once a jet is collected, and zero-tail families
    build a fresh jet on every step(n) call, so caches key by value.
    """
    return (jet.q, jet.order, jet.coeffs.tobytes())


def _with_linear(jet: PolyJet, matrix: np.ndarray) -> PolyJet:
    t = jet.tables
    coeffs = np.array(jet.coeffs)
    # degree-1 columns are ordered like the reversed variable list
    for r in range(t.offsets[1], t.offsets[2]):
        var = t.indices[r].index(1)
        coeffs[:, r] = matrix[:, var]
    return PolyJet(jet.q, jet.order, coeffs)


def _as_optimal(matrix: np.ndarray) -> OptimalForm:
    A = np.asarray(matrix, dtype=complex)
    sizes = _already_optimal(A, CLUSTER_RTOL)
    if sizes is None:
        raise ValueError(
            "the linear part must be in optimal form (lower triangular, "
            "nonincreasing moduli inside the unit disc, distinct-modulus "
            "blocks decoupled, operator norm below one); run to_optimal_form "
            "and conjugate the family first")
    q = A.shape[0]
    off = A[~np.eye(q, dtype=bool)] if q > 1 else np.zeros(0)
    eps = float(np.max(np.abs(off))) if off.size else 0.0
    return OptimalForm(A, np.eye(q), sizes, eps, operator_norm(A))


def _smallest_ell(alpha: float, beta: float) -> int:
    # conjugacy starts at degree 2, so ell = 2 is the floor
    ell = 2
    while beta * alpha ** ell >= 1.0:
        ell += 1
        if ell > MAX_DEGREE:
            raise PreconditionError(
                f"no contraction exponent ell up to the degree cap {MAX_DEGREE}; "
                "the linear part is too close to the unit sphere")
    return ell


def _compose_steps(family, n: int, m: int, order: int | None) -> PolyJet:
    """family.step(m-1) o ... o family.step(n) as one jet, at family.order
    unless an order is given."""
    if m < n:
        raise ValueError("transition needs n <= m")
    order = order or family.order
    out = PolyJet.identity(family.q, order)
    for j in range(n, m):
        out = compose(family.step(j), out, order)
    return out


@dataclass(frozen=True)
class DiscreteEvolutionFamily:
    """Unit-step transition jets phi_n with a shared linear part.

    Every step must carry the same linear part (within 1e-8; snapped exactly
    on construction).  Steps beyond the stored window follow the tail
    policy: "constant" repeats the last step, "zero" continues with the
    bare linear map, matching the forcing tails of the difference solver.
    """

    linear_part: np.ndarray
    steps: tuple[PolyJet, ...]
    tail: str = TAIL_CONSTANT

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.linear_part, dtype=complex))
        if not self.steps:
            raise ValueError("a family needs at least one step")
        if self.tail not in (TAIL_CONSTANT, TAIL_ZERO):
            raise ValueError(f"unknown tail policy {self.tail!r}")
        q = self.steps[0].q
        order = self.steps[0].order
        if A.shape != (q, q):
            raise ValueError("linear part does not match the steps' dimension")
        snapped = []
        for n, s in enumerate(self.steps):
            if (s.q, s.order) != (q, order):
                raise ValueError("all steps must share one dimension and order")
            drift = float(np.max(np.abs(s.linear_matrix - A)))
            if drift > _LINEAR_MATCH_TOL:
                raise ValueError(
                    f"step {n} has linear part off by {drift:.3g}; the family "
                    "must share a single linear part")
            snapped.append(s if drift == 0.0 else _with_linear(s, A))
        A.setflags(write=False)
        object.__setattr__(self, "linear_part", A)
        object.__setattr__(self, "steps", tuple(snapped))

    @property
    def q(self) -> int:
        return self.steps[0].q

    @property
    def order(self) -> int:
        return self.steps[0].order

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, n: int) -> PolyJet:
        if n < 0:
            raise IndexError("step index must be nonnegative")
        if n < len(self.steps):
            return self.steps[n]
        if self.tail == TAIL_CONSTANT:
            return self.steps[-1]
        return PolyJet.from_linear(self.linear_part, self.order)

    def with_order(self, order: int) -> "DiscreteEvolutionFamily":
        """Reissue the family at another jet order (steps taken as exact
        polynomials when the order grows)."""
        if order == self.order:
            return self
        conv = (lambda s: s.extended(order)) if order > self.order else (
            lambda s: s.truncated(order))
        return DiscreteEvolutionFamily(self.linear_part,
                                       tuple(conv(s) for s in self.steps), self.tail)

    def transition(self, n: int, m: int, order: int | None = None) -> PolyJet:
        """Jet of phi_{n,m} = phi_{m-1} o ... o phi_n."""
        return _compose_steps(self, n, m, order)

    def evaluate_transition(self, n: int, m: int, points: np.ndarray) -> np.ndarray:
        """phi_{n,m} applied to points of shape (q, count)."""
        w = np.asarray(points, dtype=complex)
        for j in range(n, m):
            w = self.step(j).evaluate_many(w)
        return w


@dataclass(frozen=True)
class TriangularFamily:
    """Unit-step triangular maps T_n: every component depends linearly on
    its own variable and polynomially on the strictly earlier ones."""

    linear_part: np.ndarray
    steps: tuple[PolyJet, ...]

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.linear_part, dtype=complex))
        A.setflags(write=False)
        object.__setattr__(self, "linear_part", A)
        object.__setattr__(self, "steps", tuple(self.steps))
        for n, s in enumerate(self.steps):
            if not is_triangular(s):
                raise ValueError(f"step {n} is not triangular")

    @property
    def q(self) -> int:
        return self.steps[0].q

    @property
    def order(self) -> int:
        return self.steps[0].order

    @property
    def degree(self) -> int:
        """Largest monomial degree carried by any step."""
        out = 1
        for s in self.steps:
            for _, I, _ in _nonlinear(s).nonzero_terms():
                out = max(out, sum(I))
        return out

    @property
    def composed_degree(self) -> int:
        """Degree D that bounds every T_{0,n} = T_{n-1} o ... o T_0.

        Component j of T_{0,n} has degree at most D_j = max(1, max over the
        monomials z^I of any step's component j of sum_k I_k D_k): by the
        triangular shape z^I reads only earlier variables besides z_j.
        """
        t = self.steps[0].tables
        seen = np.logical_or.reduce([s.coeffs != 0 for s in self.steps])
        D = np.ones(self.q, dtype=np.int64)
        for j in range(self.q):
            D[j] = max(1, int((t.exponents[seen[j]] @ D).max(initial=1)))
        return int(D.max())

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, n: int) -> PolyJet:
        return self.steps[n]

    def transition(self, n: int, m: int, order: int | None = None) -> PolyJet:
        """Jet of T_{n,m} = T_{m-1} o ... o T_n."""
        return _compose_steps(self, n, m, order)

    def inverse_evaluate(self, n: int, m: int, points: np.ndarray) -> np.ndarray:
        """T_{n,m}^{-1} applied to points of shape (q, count), by exact
        forward substitution one step at a time."""
        w = np.asarray(points, dtype=complex)
        single = w.ndim == 1
        if single:
            w = w[:, None]
        for j in range(m - 1, n - 1, -1):
            w = evaluate_triangular_inverse_many(self.steps[j], w)
        return w[:, 0] if single else w

    def inverse_from_origin(self, depths: np.ndarray, points: np.ndarray) -> np.ndarray:
        """T_{0,n}^{-1} applied to every column of points (q, count), with n
        = depths[c] for column c.

        One pass runs the columns sorted by depth, deepest first: step j's
        inverse acts on the prefix of columns deeper than j.  Each column
        meets the same elementwise operations as inverse_evaluate(0, n, .).
        """
        depths = np.asarray(depths)
        order = np.argsort(-depths, kind="stable")
        w = np.asarray(points, dtype=complex)[:, order]
        deep = depths[order]
        for j in range(int(deep.max(initial=0)) - 1, -1, -1):
            k = int(np.count_nonzero(deep > j))
            w[:, :k] = evaluate_triangular_inverse_many(self.steps[j], w[:, :k])
        out = np.empty_like(w)
        out[:, order] = w
        return out


def _conjugacy_sides(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
                     T: Sequence[PolyJet], n: int, order: int,
                     tables: dict[tuple, PowerTable]) -> tuple[PolyJet, PolyJet]:
    """k_{n+1} o phi_n and T_n o k_n through the given order.

    phi_n's power table comes from `tables`, keyed by the step's value and
    filled on first use, so a family with few distinct steps builds few.
    """
    step = family.step(n)
    key = _value_key(step)
    if key not in tables:
        tables[key] = PowerTable(step)
    return tables[key].compose(k[n + 1], order), compose(T[n], k[n], order)


def defect(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
           T: Sequence[PolyJet], n: int, degree: int,
           tables: dict[tuple, PowerTable] | None = None) -> HomogeneousMap:
    """Degree-`degree` part of k_{n+1} o phi_n - T_n o k_n.

    The conjugacy identity must already hold below the requested degree;
    a violation there means the stages ran out of order.  `tables` holds
    the steps' power tables across calls (see _conjugacy_sides).
    """
    lhs, rhs = _conjugacy_sides(family, k, T, n, degree, {} if tables is None else tables)
    diff = lhs - rhs
    t = diff.tables
    cut = t.offsets[degree]
    low = float(np.max(np.abs(diff.coeffs[:, :cut]))) if cut else 0.0
    # roundoff in the compositions scales with their own coefficients,
    # which grow with the degree far beyond the family's coefficients
    scale = max(1.0, lhs.max_coeff, rhs.max_coeff)
    if low > _IDENTITY_BREAK_TOL * scale:
        raise ValueError(
            f"conjugacy identity violated below degree {degree} at step {n} "
            f"(coefficient {low:.3g}); run the stages in increasing degree")
    return diff.homogeneous_part(degree)


@dataclass(frozen=True)
class StageReport:
    """Diagnostics of one normalization degree."""

    degree: int
    resonant_norm: float        # largest coefficient kept in the T_n
    forcing_norm: float         # largest nonresonant forcing coefficient
    correction_norm: float      # sup_n |H_n| actually realized
    sup_bound: float            # a-priori bound for sup_n |H_n|
    recurrence_residual: float


def _substituted(N: HomogeneousMap, rows: np.ndarray) -> HomogeneousMap:
    """N o A^{-1} as compose forms it: N's nonzero columns times their
    full-width substitution rows of A^{-1}, cut to the degree afterwards."""
    support = (N.coeffs != 0).any(axis=0).nonzero()[0]
    prod = N.coeffs[:, support] @ rows[support]
    return HomogeneousMap(N.q, N.degree, prod[:, -len(rows):])


def normal_form_step(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
                     T: Sequence[PolyJet], degree: int, *,
                     tau: float = RESONANCE_TOL,
                     tables: dict[tuple, PowerTable] | None = None
                     ) -> tuple[tuple[PolyJet, ...], tuple[PolyJet, ...], StageReport]:
    """Run one normalization degree, returning the updated (k, T) pair.

    The degree-`degree` defect splits into a resonant part, absorbed into
    T_n, and a nonresonant part, cancelled by the bounded solution of
    H_{n+1} = Gamma(H_n) - N_n o A^{-1}.  `tables` holds the steps' power
    tables across degrees (see _conjugacy_sides).
    """
    window = len(T)
    if len(k) != window + 1:
        raise ValueError("need one more conjugator than one-step maps")
    q = family.q
    work = T[0].order
    A_opt = _as_optimal(family.linear_part)
    split = spectral_split(A_opt, degree, tau)
    rows = substitution_rows(A_opt.inverse_matrix, degree)
    gamma = gamma_from_rows(A_opt.matrix, rows)

    tables = {} if tables is None else tables
    new_T = list(T)
    forcing = []
    resonant_norm = 0.0
    forcing_norm = 0.0
    for n in range(window):
        P = defect(family, k, T, n, degree, tables)
        flat = P.flat
        R = HomogeneousMap.from_flat(q, degree, np.where(split.resonant, flat, 0.0))
        N = HomogeneousMap.from_flat(q, degree, np.where(split.resonant, 0.0, flat))
        if not R.is_zero():
            new_T[n] = new_T[n] + R.to_jet(work)
            if not is_triangular(new_T[n]):
                raise ValueError(
                    f"resonant defect at step {n}, degree {degree} falls off "
                    "the triangular shape; resonance classification conflict")
        resonant_norm = max(resonant_norm, R.norm)
        forcing_norm = max(forcing_norm, N.norm)
        forcing.append(-_substituted(N, rows))

    tail = forcing[-1] if family.tail == TAIL_CONSTANT else None
    sol = solve_difference(gamma, split, ForcingSequence(degree, q, tuple(forcing),
                                                         family.tail, tail))

    identity = PolyJet.identity(q, work)
    new_k = list(k)
    correction = 0.0
    for n in range(window + 1):
        H = sol.terms[n]
        correction = max(correction, H.norm)
        if not H.is_zero():
            new_k[n] = compose(identity + H.to_jet(work), k[n], work)
    report = StageReport(degree, resonant_norm, forcing_norm, correction,
                         sol.sup_bound, max(sol.residuals, default=0.0))
    return tuple(new_k), tuple(new_T), report


# ---------------------------------------------------------------------- #
# quantitative constants


@dataclass(frozen=True)
class NormalFormConstants:
    """Quantitative certificate for the intertwining iteration.

    On the ball |z| <= r every step contracts by the factor alpha, inverse
    triangular steps are beta-Lipschitz on the half polydisc, and anchored
    intertwining increments obey

        |E_{m+1}(z) - E_m(z)| <= C * r**ell * (beta * alpha**ell)**(m - n).

    s is an image radius: the s-ball is covered by each conjugator applied
    to the r-ball, so the chain ranges contain T_{0,n}^{-1}(s ball).
    """

    alpha: float
    r: float
    s: float
    beta: float
    ell: int
    p: int
    C: float

    @property
    def rate(self) -> float:
        return self.beta * self.alpha ** self.ell

    def increment_bound(self, gap: int) -> float:
        return self.C * self.r ** self.ell * self.rate ** gap

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "r": self.r, "s": self.s,
                "beta": self.beta, "ell": self.ell, "p": self.p, "C": self.C}


def _majorant_series(jet: PolyJet) -> np.ndarray:
    """Ascending coefficients a_d = max_j sum_{|I|=d} |c_{j,I}|; then
    |jet(z)|_inf <= sum a_d t^d whenever |z|_inf <= t."""
    t = jet.tables
    out = np.zeros(jet.order + 1)
    for d in range(1, jet.order + 1):
        out[d] = float(np.abs(jet.coeffs[:, t.offsets[d]:t.offsets[d + 1]])
                       .sum(axis=1).max())
    return out


def _poly_compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of outer(inner(t)), both ascending."""
    out = np.zeros(1)
    for c in outer[::-1]:
        out = npp.polyadd(npp.polymul(out, inner), [c])
    return out


def _defect_sup_majorant(family: DiscreteEvolutionFamily,
                         triangular: TriangularFamily,
                         normalizers: Sequence[PolyJet], radius: float) -> float:
    """Bound sup_n sup_{|z| <= radius} |defect_n(z)|_inf via scalar majorants.

    The exact polynomials k_{n+1} o phi_n and T_n o k_n agree through the
    working order, so the true defect is dominated by the degree >= L tail
    of kappa_{n+1}(phihat_n) + That_n(kappa_n), L = order + 1.
    """
    L = normalizers[0].order + 1
    worst = 0.0
    kmaj = [_majorant_series(kn) for kn in normalizers]
    cache: dict[tuple, np.ndarray] = {}

    def series(jet: PolyJet) -> np.ndarray:
        key = _value_key(jet)
        if key not in cache:
            cache[key] = _majorant_series(jet)
        return cache[key]

    for n in range(len(normalizers) - 1):
        phihat = series(family.step(n))
        that = series(triangular.step(min(n, len(triangular) - 1)))
        total = npp.polyadd(_poly_compose(kmaj[n + 1], phihat),
                            _poly_compose(that, kmaj[n]))
        tail = total[L:]
        if tail.size:
            powers = radius ** (L + np.arange(tail.size))
            worst = max(worst, float(tail @ powers))
    return worst


def estimate_constants(family: DiscreteEvolutionFamily,
                       triangular: TriangularFamily,
                       report: ResonanceReport | None = None,
                       normalizers: Sequence[PolyJet] | None = None
                       ) -> NormalFormConstants:
    """Decay constants of the normalization, from coefficient bounds alone.

    alpha is the midpoint between |A| and 1; r the radius (capped at 1/2)
    on which the higher-order remainders keep every step alpha-contracting;
    beta a Lipschitz bound for the inverse triangular steps on the half
    polydisc, read off the gradient coefficient sums of the inverse jets;
    ell the smallest exponent >= 2 with alpha^ell * beta < 1; C the Cauchy
    quotient sup |residual| / r^ell fed into the increment bound.  The
    image radius s comes from the conjugators' deviation from the identity
    when they are supplied, else a conservative half of r is recorded.
    """
    A_opt = _as_optimal(family.linear_part)
    if report is None:
        report = detect_resonances(A_opt.eigenvalues, "multiplicative", RESONANCE_TOL)
    q = family.q
    norm_a = A_opt.norm_bound
    alpha = 0.5 * (norm_a + 1.0)

    # |phi(z) - Az| <= C2 |z|^2 uniformly on the unit ball
    c2 = 0.0
    for s_jet in family.steps:
        series = _majorant_series(s_jet)
        c2 = max(c2, math.sqrt(q) * float(series[2:].sum()))
    r = 0.5 if c2 == 0.0 else min(0.5, (alpha - norm_a) / c2)

    beta = float(np.abs(A_opt.inverse_matrix).sum(axis=1).max())
    # keyed by value: resonance-free builds share one linear jet across the
    # whole window, so the inversion runs once
    inverses: dict[tuple, PolyJet] = {}
    for tn in triangular.steps:
        key = _value_key(tn)
        if key not in inverses:
            inverses[key] = invert(tn)
            g = gradient_bound_matrix(inverses[key], 0.5)
            beta = max(beta, float(g.sum(axis=1).max()))
    ell = _smallest_ell(alpha, beta)

    if normalizers is not None:
        rs = r
        dev = math.inf
        for _ in range(60):
            dev = max(operator_norm(gradient_bound_matrix(_nonlinear(kn), rs))
                      for kn in normalizers)
            if dev < 1.0:
                break
            rs *= 0.5
        s = rs * max(0.0, 1.0 - dev)
        # the defect is beta-pulled through one inverse step before the
        # backward chain, and euclid/max norms differ by sqrt(q)
        M = math.sqrt(q) * _defect_sup_majorant(family, triangular, normalizers, r)
        C = beta * M / r ** ell
    else:
        s = 0.5 * r
        worst = 0.0
        for n in range(len(family.steps)):
            last = triangular.step(min(n, len(triangular) - 1))
            ti = _majorant_series(inverses[_value_key(last)])
            total = _poly_compose(ti, _majorant_series(family.step(n)))
            total[1] = max(0.0, total[1] - 1.0)  # one round trip against the identity
            worst = max(worst, float(npp.polyval(r, total)))
        C = math.sqrt(q) * worst / r ** ell
    return NormalFormConstants(alpha, r, s, beta, ell, report.p, C)


# ---------------------------------------------------------------------- #
# the driver

MAX_WORK_ORDER = 18      # working-order cap of build_normal_form
MAX_ELL_PASSES = 4       # its rebuilds chasing the contraction exponent ell
# extra window steps: until they move h_n by less than the target, 4 to 32
_EXTENSION_TARGET, _MIN_EXTENSION, _MAX_EXTENSION = 1e-10, 4, 32
_PROBE_BOUND_FACTOR, _PROBE_FLOOR = 2.0, 1e-13  # probe: inc <= max(factor * bound, floor)


@dataclass(frozen=True)
class ConjugacyResult:
    """Output of build_normal_form.

    normalizers[n] is the jet k_n (linear part identity) over the working
    window n = 0 .. work_horizon; triangular.steps[n] is T_n, and the jet
    identity k_{n+1} o phi_n = T_n o k_n holds through work_order with sup
    coefficient error defect_sup.  The intertwining maps h_n share the jets
    of k_n; pointwise values anchor the backward chain at a fixed m >= n.
    """

    family: DiscreteEvolutionFamily
    triangular: TriangularFamily
    normalizers: tuple[PolyJet, ...]
    order: int
    work_order: int
    horizon: int
    work_horizon: int
    resonance_report: ResonanceReport
    cluster_sizes: tuple[int, ...]
    constants: NormalFormConstants
    stages: tuple[StageReport, ...]
    defect_sup: float
    convergence_log: tuple[tuple[int, float], ...] = ()

    @property
    def q(self) -> int:
        return self.family.q

    @property
    def resonant_norm(self) -> float:
        return max((s.resonant_norm for s in self.stages), default=0.0)

    @property
    def linearizable(self) -> bool:
        return self.resonant_norm <= _LINEARIZABLE_TOL

    @property
    def certificate(self) -> str:
        return "linearizable" if self.linearizable else "resonant-normal-form"

    def defect_jet(self, n: int, order: int | None = None) -> PolyJet:
        """k_{n+1} o phi_n - T_n o k_n at the given order."""
        lhs, rhs = _conjugacy_sides(self.family, self.normalizers, self.triangular.steps,
                                    n, order or self.work_order, {})
        return lhs - rhs

    def intertwining_jet(self, n: int) -> PolyJet:
        """h_n as a jet; the anchored limit stabilizes on k_n itself."""
        return self.normalizers[n]

    def intertwining_point(self, n: int, points: np.ndarray) -> np.ndarray:
        """h_n at the columns of points (q, count): push with phi_{n,m},
        apply k_m, pull back with T_{n,m}^{-1}, anchored at the end m of the
        working window.  No command calls it, but perfbench/spans.py traces
        it by name, so `perfbench/run.py --trace 1` needs it to exist."""
        m = self.work_horizon
        if not n <= m:
            raise ValueError("n must not pass the working horizon")
        w = self.normalizers[m].evaluate_many(self.family.evaluate_transition(n, m, points))
        return self.triangular.inverse_evaluate(n, m, w)

    def chain_point(self, n: int, points: np.ndarray) -> np.ndarray:
        """f_n = T_{0,n}^{-1} o h_n at the columns of points (q, count)."""
        return self.triangular.inverse_evaluate(0, n, self.intertwining_point(n, points))

    def to_json_dict(self) -> dict:
        """The normalform report's entries; normalizers and triangular hold
        the jets themselves, which cli.report_text writes as their
        to_json_dict()."""
        return {
            "q": self.q,
            "order": self.order,
            "work_order": self.work_order,
            "horizon": self.horizon,
            "work_horizon": self.work_horizon,
            "tail": self.family.tail,
            "certificate": self.certificate,
            "cluster_sizes": list(self.cluster_sizes),
            "defect_sup": self.defect_sup,
            "constants": self.constants.as_dict(),
            "resonances": self.resonance_report.to_json_dict(),
            "normalizers": list(self.normalizers),
            "triangular": list(self.triangular.steps),
            "convergence_log": [{"m": m, "increment": inc}
                                for m, inc in self.convergence_log],
        }


def _check_work_order(work_order: int, source: str | None = None) -> None:
    """Refuse a working order above MAX_WORK_ORDER.  source names what set
    the order, such as "--order"; without it the spectrum did."""
    if work_order > MAX_WORK_ORDER:
        cause = f"{source} sets it" if source else "the spectrum is too spread out"
        raise PreconditionError(
            f"normalization needs working order {work_order} above the "
            f"limit {MAX_WORK_ORDER}; {cause}")


def build_normal_form(family: DiscreteEvolutionFamily, order: int | None = None,
                      horizon: int | None = None, tau: float = RESONANCE_TOL,
                      extension: int | None = None) -> ConjugacyResult:
    """Normalize a discrete evolution family degree by degree.

    Stages run from degree 2 up to the working order max(order, ell).  No
    direction of degree p or more is resonant (spectral.ResonanceReport), so
    the triangular maps stabilize at degree <= p - 1.  Because ell depends on
    the Lipschitz bound of the finished triangular family, the build
    re-estimates it after the stages and reruns at a larger working order
    until the estimate is covered.  The window is extended past the
    requested horizon until the extra steps stop mattering pointwise.
    """
    A_opt = _as_optimal(family.linear_part)
    A = A_opt.matrix
    q = family.q
    order = family.order if order is None else order
    horizon = len(family) if horizon is None else horizon
    if order < 1 or horizon < 1:
        raise ValueError("order and horizon must be positive")

    report = detect_resonances(A_opt.eigenvalues, "multiplicative", tau)
    bad = triangular_compatibility_violations(report, np.abs(np.diagonal(A)))
    if bad:
        raise ValueError(
            f"resonant monomials {bad[:3]} escape the triangular shape; "
            "the optimal-form ordering is inconsistent with the resonances")

    alpha = 0.5 * (A_opt.norm_bound + 1.0)
    beta = float(np.abs(A_opt.inverse_matrix).sum(axis=1).max())
    work_order = max(order, _smallest_ell(alpha, beta))

    for _ in range(MAX_ELL_PASSES):
        _check_work_order(work_order, "the requested order" if work_order == order else None)
        rate = min(0.9, beta * alpha ** (work_order + 1))
        if extension is None:
            ext = math.ceil(math.log(_EXTENSION_TARGET) / math.log(rate))
            ext = min(_MAX_EXTENSION, max(_MIN_EXTENSION, ext))
        else:
            ext = extension
        work_horizon = horizon + ext

        fam_w = family.with_order(work_order)
        lin = PolyJet.from_linear(A, work_order)
        T = tuple(lin for _ in range(work_horizon))
        k = tuple(PolyJet.identity(q, work_order) for _ in range(work_horizon + 1))
        # one power table per distinct step of this pass, freed on return
        tables: dict[tuple, PowerTable] = {}
        stages = []
        for degree in range(2, work_order + 1):
            k, T, stage = normal_form_step(fam_w, k, T, degree, tau=tau, tables=tables)
            stages.append(stage)
        triangular = TriangularFamily(A, T)
        constants = estimate_constants(fam_w, triangular, report, k)
        beta = constants.beta
        if constants.ell <= work_order:
            break
        work_order = constants.ell
    else:
        raise ValueError(f"the contraction exponent kept growing over {MAX_ELL_PASSES} "
                         "working-order passes; constants do not stabilize")

    defect_sup = 0.0
    for n in range(work_horizon):
        lhs, rhs = _conjugacy_sides(fam_w, k, T, n, work_order, tables)
        defect_sup = max(defect_sup, (lhs - rhs).max_coeff)

    # probe the guaranteed rate once, recording the Cauchy increments of h_0
    # anchored at m = 0 .. work_horizon: push once, pull back in one pass
    w = complex_ball_points(q, 0.5 * constants.r, 1)
    anchored = [k[0].evaluate_many(w)]
    for m in range(1, work_horizon + 1):
        w = fam_w.step(m - 1).evaluate_many(w)
        anchored.append(k[m].evaluate_many(w))
    vals = triangular.inverse_from_origin(np.arange(work_horizon + 1),
                                          np.concatenate(anchored, axis=1))
    log = []
    for m in range(1, work_horizon + 1):
        inc = float(np.linalg.norm(vals[:, m] - vals[:, m - 1]))
        log.append((m - 1, inc))
        bound = constants.increment_bound(m - 1)
        if inc > max(_PROBE_BOUND_FACTOR * bound, _PROBE_FLOOR):
            raise ValueError(
                f"pointwise increment {inc:.3g} between anchors {m - 1} and "
                f"{m} exceeds {_PROBE_BOUND_FACTOR:g}x the certified bound {bound:.3g}; "
                "the normalization did not converge at the guaranteed rate")
    return ConjugacyResult(fam_w, triangular, k, order, work_order, horizon,
                           work_horizon, report, A_opt.cluster_sizes,
                           constants, tuple(stages), defect_sup, tuple(log))


# ---------------------------------------------------------------------- #
# chain evaluators and geometric checks


def extend_intertwining(result: ConjugacyResult, n: int, points: np.ndarray,
                        radius: float | None = None, tol: float = EXTENSION_ANCHOR_RTOL,
                        max_steps: int | None = None) -> np.ndarray:
    """h_n outside the certified ball, through the forward orbit.

    Each point is pushed until |phi_{n,u}(z)| < radius (first entry), the
    value is T_{n,u}^{-1}(h_u(phi_{n,u}(z))), and the anchors u and u+1
    must agree within tol.  Orbits that stay outside the ball for max_steps
    steps (or past the working window) raise with the orbit trace.
    """
    r = result.constants.r if radius is None else radius
    w = np.asarray(points, dtype=complex)
    single = w.ndim == 1
    if single:
        w = w[:, None]
    limit = result.work_horizon - 1
    if max_steps is not None:
        limit = min(limit, n + max_steps)
    out = np.empty_like(w)
    for col in range(w.shape[1]):
        z = w[:, col]
        trace = [float(np.linalg.norm(z))]
        u = n
        while trace[-1] >= r:
            if u >= limit:
                raise ValueError(
                    f"orbit of sample {col} never entered the {r:.4g}-ball "
                    f"within {u - n} steps (norms {trace[:6]} ...)")
            z = result.family.step(u).evaluate(z)
            u += 1
            trace.append(float(np.linalg.norm(z)))
        v1 = result.triangular.inverse_evaluate(
            n, u, result.normalizers[u].evaluate(z))
        z2 = result.family.step(u).evaluate(z)
        v2 = result.triangular.inverse_evaluate(
            n, u + 1, result.normalizers[u + 1].evaluate(z2))
        gap = float(np.linalg.norm(v1 - v2))
        if gap > tol * (1.0 + float(np.linalg.norm(v1))):
            raise ValueError(
                f"extension disagreed between anchors {u} and {u + 1} "
                f"(difference {gap:.3g}); the window or tolerance is too tight")
        out[:, col] = v1
    return out[:, 0] if single else out


def discrete_chain(result: ConjugacyResult, count: int | None = None
                   ) -> tuple[PolyJet, ...]:
    """Jets of the chain f_0 .. f_count, from f_0 = k_0 and
    f_{n+1} = f_n o phi_n^{-1}.

    Coefficients grow like the inverse transition, so long horizons with
    small eigenvalues produce genuinely large numbers.
    """
    count = result.horizon if count is None else count
    if count > result.work_horizon:
        raise ValueError("count exceeds the working horizon")
    out = [result.normalizers[0]]
    for n in range(count):
        out.append(compose(out[-1], invert(result.family.step(n))))
    return tuple(out)


@dataclass(frozen=True)
class RangeGrowthReport:
    """Certified radii rho_n: the ball B_{rho_n} lies inside T_{0,n}^{-1}(s ball).

    radius_bounds[n] names the bound that gave inradii[n]: "a" the Cauchy
    majorant of T_{0,n}, "b" the same with the linear part split off.
    """

    inner_radius: float
    factor: float
    base_inradius: float
    step_bound: int
    inradii: tuple[float, ...]
    achieved_step: int | None
    nondecreasing: bool
    radius_bounds: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (self.nondecreasing and self.achieved_step is not None
                and self.achieved_step <= self.step_bound)


# relative drop between consecutive in-radii still read as nondecreasing
_MONOTONE_INRADIUS_SLACK = 1e-6
# relative excess of the inner radius over the certified image radius s
_CERTIFIED_RADIUS_SLACK = 1e-9


def _largest_radius(sigma: float, c: np.ndarray, s: float) -> float:
    """Largest rho with sigma rho + |sum_d c[:, d] rho^d|_2 <= s.

    c holds nonnegative coefficient sums, column d for degree d (column 0
    is not read).  Without terms of degree 2 or more the radius is
    s / (sigma + |c[:, 1]|) in closed form.  Otherwise the left side is an
    increasing function of rho, and bisection keeps a radius that
    satisfies the inequality as evaluated until its neighbour above is the
    next float.
    """
    if not c[:, 2:].any():
        return s / (sigma + float(np.linalg.norm(c[:, 1])))
    rows = [[(d, x) for d, x in enumerate(row) if d and x] for row in c.tolist()]

    def size(rho: float) -> float:
        return sigma * rho + math.sqrt(sum(sum(x * rho ** d for d, x in row) ** 2
                                           for row in rows))

    # each of the at most D + 1 terms alone reaches s at its own radius: the
    # least of those lies above the root, and the root within a factor D + 1
    # below it
    norms = np.linalg.norm(c, axis=0)
    hi = min(([s / sigma] if sigma > 0.0 else [])
             + [(s / x) ** (1.0 / d) for d, x in enumerate(norms) if d and x])
    lo = hi / c.shape[1]
    while size(lo) > s:
        lo *= 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if size(mid) <= s:
            lo = mid
        else:
            hi = mid


def range_growth_check(result: ConjugacyResult, s: float | None = None,
                       n_max: int | None = None, *, factor: float = 1000.0
                       ) -> RangeGrowthReport:
    """Certified radii rho_n with T_{0,n}(B_{rho_n}) inside the closed s-ball.

    With c[j, d] the sum of |coefficients| of component j of T_{0,n} in
    degree d, |T_{0,n}(z)| <= |sum_d c[:, d] rho^d|_2 on the rho-ball (a),
    and also <= sigma_max(L_n) rho + |sum_{d>=2} c[:, d] rho^d|_2 with L_n
    the linear part (b).  rho_n is the larger of the largest radii keeping
    either bound <= s, so it never exceeds the inscribed radius of
    T_{0,n}^{-1}(s ball); for a linear T_{0,n} it is s / sigma_max(L_n),
    the inscribed radius itself.  The jets T_{0,n} = T_{n-1} o T_{0,n-1}
    are composed at the family's composed degree, so no term is truncated.

    The preimage balls nest (each T_u maps the small ball into itself), so
    the sequence must not decrease, and the slowest eigendirection expands
    by at least 1/|lambda_1| per step; the factor should be reached within
    3 log(factor) / |log lambda_1| steps.
    """
    cs = result.constants
    s = cs.s if s is None else s
    if s <= 0.0:
        raise ValueError("inner radius must be positive")
    if s > cs.s * (1.0 + _CERTIFIED_RADIUS_SLACK):
        raise ValueError(f"inner radius {s:.4g} exceeds the certified image "
                         f"radius {cs.s:.4g}")
    lam_max = float(np.max(np.abs(np.diagonal(result.family.linear_part))))
    bound = math.ceil(3.0 * math.log(factor) / abs(math.log(lam_max)))
    last = min(bound if n_max is None else n_max, result.work_horizon)
    target = factor * s
    D = result.triangular.composed_degree
    if D > MAX_WORK_ORDER:
        raise PreconditionError(
            f"range growth needs the triangular family's composed degree {D}, "
            f"above the limit {MAX_WORK_ORDER}")
    jet = PolyJet.identity(result.q, D)
    starts = jet.tables.offsets[:-1]
    inradii, sources = [], []
    achieved = None
    for n in range(last + 1):
        if n:
            step = result.triangular.step(n - 1).truncated(D).extended(D)
            jet = compose(step, jet, D)
        c = np.add.reduceat(np.abs(jet.coeffs), starts, axis=1)
        full = _largest_radius(0.0, c, s)
        c[:, 1] = 0.0
        split = _largest_radius(float(np.linalg.norm(jet.linear_matrix, 2)), c, s)
        inradii.append(max(full, split))
        sources.append("a" if full > split else "b")
        if inradii[-1] >= target:
            achieved = n
            break
    nondecreasing = all(b >= a * (1.0 - _MONOTONE_INRADIUS_SLACK)
                        for a, b in zip(inradii, inradii[1:]))
    return RangeGrowthReport(s, factor, inradii[0], bound, tuple(inradii),
                             achieved, nondecreasing, tuple(sources))


# ---------------------------------------------------------------------- #
# injectivity sampling


@dataclass(frozen=True)
class UnivalenceReport:
    """Outcome of the sampled injectivity check.

    A violation is a pair of samples at least `separation` apart whose
    images under one of the maps land within `collision_tol`; jet linear
    parts are asserted to be the identity.
    """

    maps_checked: int
    pairs_checked: int
    separation: float
    collision_tol: float
    linear_defect: float
    violations: tuple[tuple[int, int, int, float, float], ...]

    @property
    def passed(self) -> bool:
        return not self.violations and self.linear_defect <= UNIVALENCE_LINEAR_TOL


def univalence_check(values, samples: np.ndarray, jets: Sequence[PolyJet] = (), *,
                     delta: float = UNIVALENCE_DELTA,
                     eta: float = UNIVALENCE_COLLISION) -> UnivalenceReport:
    """Check injectivity of evaluated maps on a common sample set.

    values is one (q, m) array or a sequence of them (one per map); any two
    samples separated by at least delta whose images agree within eta are
    reported.  Supplied jets additionally have their Jacobian at 0 compared
    against the identity.  A check, not a proof.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[None, :]
    batches = [np.asarray(values, dtype=complex)] if isinstance(
        values, np.ndarray) else [np.asarray(v, dtype=complex) for v in values]
    batches = [b[None, :] if b.ndim == 1 else b for b in batches]

    linear_defect = 0.0
    for jet in jets:
        eye = np.eye(jet.q)
        linear_defect = max(linear_defect,
                            float(np.max(np.abs(jet.linear_matrix - eye))))

    sep = np.linalg.norm(samples[:, :, None] - samples[:, None, :], axis=0)
    upper = np.triu(np.ones_like(sep, dtype=bool), k=1)
    violations = []
    pairs = int(np.count_nonzero(upper & (sep >= delta)))
    for mi, vals in enumerate(batches):
        if vals.shape != samples.shape:
            raise ValueError("each value batch must match the sample shape")
        dv = np.linalg.norm(vals[:, :, None] - vals[:, None, :], axis=0)
        hit = upper & (sep >= delta) & (dv <= eta)
        for i, j in zip(*np.nonzero(hit)):
            violations.append((mi, int(i), int(j), float(sep[i, j]), float(dv[i, j])))
    return UnivalenceReport(len(batches), pairs, delta, eta, linear_defect,
                            tuple(violations))


def jacobian_points(jet: PolyJet, pts: np.ndarray) -> np.ndarray:
    """Jacobians of the jet at pts of shape (q, m), returned as (m, q, q)."""
    t = jet.tables
    q = jet.q
    m = pts.shape[1]
    vals = _monomial_values(t, pts)
    out = np.zeros((m, q, q), dtype=complex)
    for j, I, c in jet.nonzero_terms():
        for var, e in enumerate(I):
            if e == 0:
                continue
            lower = list(I)
            lower[var] -= 1
            out[:, j, var] += c * e * vals[t.rank[tuple(lower)]]
    return out
