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
from functools import lru_cache
from typing import Sequence

import numpy as np
import numpy.polynomial.polynomial as npp

from .homological import solve_difference
from .jets import (PolyJet, PowerTable, compose, evaluate_triangular_inverse_many,
                   gradient_bound_matrix, invert, is_triangular, _compose_arrays,
                   _gradient_bounds, _monomial_values, _support, _tables)
from .sampling import complex_ball_points
from .spectral import (CLUSTER_RTOL, MAX_DEGREE, RESONANCE_TOL, OptimalForm,
                       PreconditionError, ResonanceReport, _already_optimal,
                       detect_resonances, operator_norm, spectral_split,
                       substitution_matrix, substitution_rows,
                       triangular_compatibility_violations)

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

    Object ids are reused once a jet is collected, and equal jets are
    often distinct objects (discretize composes each unit step afresh, so
    an autonomous field's steps are equal copies), so caches key by value.
    """
    return (jet.q, jet.order, jet.coeffs.tobytes())


def _value_keys(jets: Sequence[PolyJet]) -> list[tuple]:
    """_value_key of every jet, computed once per distinct object: the
    sequence holds its jets alive, so a shared id is a shared jet."""
    known: dict[int, tuple] = {}
    for jet in jets:
        if id(jet) not in known:
            known[id(jet)] = _value_key(jet)
    return [known[id(jet)] for jet in jets]


def _with_linear(jet: PolyJet, matrix: np.ndarray) -> PolyJet:
    t = jet.tables
    coeffs = np.array(jet.coeffs)
    # degree-1 columns are ordered like the reversed variable list
    for r in range(t.offsets[1], t.offsets[2]):
        var = t.indices[r].index(1)
        coeffs[:, r] = matrix[:, var]
    return PolyJet(jet.q, jet.order, coeffs)


def _as_optimal(matrix: np.ndarray) -> OptimalForm:
    """matrix as an OptimalForm with the identity basis change, refused
    unless it is in optimal form already.  Every degree and the constants
    ask for the same linear part, so each value is checked once."""
    A = np.asarray(matrix, dtype=complex)
    return _optimal_form(A.shape, A.tobytes())


@lru_cache(maxsize=16)
def _optimal_form(shape: tuple[int, ...], raw: bytes) -> OptimalForm:
    A = np.frombuffer(raw, dtype=complex).reshape(shape).copy()
    sizes = _already_optimal(A, CLUSTER_RTOL)
    if sizes is None:
        raise PreconditionError(
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
    on construction).  Steps beyond the stored window repeat the last one,
    as the difference solver continues its forcing by the last row; a
    family that turns linear past the window ends on
    PolyJet.from_linear(linear_part, order).
    """

    linear_part: np.ndarray
    steps: tuple[PolyJet, ...]

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.linear_part, dtype=complex))
        if not self.steps:
            raise ValueError("a family needs at least one step")
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
        return self.steps[min(n, len(self.steps) - 1)]

    def with_order(self, order: int) -> "DiscreteEvolutionFamily":
        """Reissue the family at another jet order (steps taken as exact
        polynomials when the order grows)."""
        if order == self.order:
            return self
        conv = (lambda s: s.extended(order)) if order > self.order else (
            lambda s: s.truncated(order))
        return DiscreteEvolutionFamily(self.linear_part,
                                       tuple(conv(s) for s in self.steps))

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
    its own variable and polynomially on the strictly earlier ones.

    The shape is checked once per distinct step object (a window's
    constant tail repeats one jet), and a refusal names the first step
    that breaks it."""

    linear_part: np.ndarray
    steps: tuple[PolyJet, ...]

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.linear_part, dtype=complex))
        A.setflags(write=False)
        object.__setattr__(self, "linear_part", A)
        object.__setattr__(self, "steps", tuple(self.steps))
        seen = set()
        for n, s in enumerate(self.steps):
            if id(s) not in seen:
                seen.add(id(s))
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


# coefficients one stacked (blocks, q, count) array of _window_sides holds at
# most (one block at least): 64 KB, so a group's stacks and the temporaries
# reduced from them stay small beside the steps' power tables
_STACK_COEFFS = 4096


def _window_sides(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
                  T: Sequence[PolyJet], order: int, tables: dict[tuple, PowerTable],
                  steps: Sequence[int]):
    """k_{n+1} o phi_n and T_n o k_n through `order` for the steps n, once
    per distinct (k_{n+1}, phi_n, T_n, k_n), a group of those at a time.

    Yields (blocks, lhs, rhs) with lhs[i], rhs[i] the (q, count) coefficient
    blocks of the two sides at every step of the list blocks[i].  Steps
    share a block when they share the k_{n+1} and k_n jets (k holds every
    k_n alive, so a shared id is a shared jet), phi_n's power table and
    T_n bit for bit, compared only with the earlier T_m of those three (a
    shared T_n object needs no comparison).  Power tables come from
    `tables`, keyed by the step's value (equal steps are often distinct
    objects) and filled on first use; each distinct step object is keyed
    once per call, so a window's constant tail costs a lookup per step.
    A group of blocks shares the power table, the monomials k_{n+1} uses
    and those T_n uses, so each side is one batched matmul: numpy runs one
    gemm per block, of the shapes compose uses, and every block equals
    compose's bit for bit.  T_n o k_n reads only the coordinates of k_n
    when T_n is linear; a T_n with nonlinear terms is composed block by
    block.  A group runs in chunks of at most _STACK_COEFFS coefficients
    per stack.
    """
    t = _tables(family.q, order)
    width = t.count
    shared: dict[tuple, list[list[int]]] = {}
    groups: dict[tuple, tuple] = {}
    for n, key in zip(steps, _value_keys([family.step(n) for n in steps])):
        if key not in tables:
            tables[key] = PowerTable(family.step(n))
        table = tables[key]
        same = shared.setdefault((id(k[n + 1]), id(table), id(k[n])), [])
        tn = T[n].coeffs[:, :width]
        block = next((b for b in same if T[b[0]] is T[n]
                      or np.array_equal(T[b[0]].coeffs[:, :width], tn)), None)
        if block is not None:
            block.append(n)
            continue
        same.append([n])
        ks = _support(k[n + 1].coeffs[:, :width])
        ts = _support(tn)
        gkey = (id(table), ks.tobytes(), ts.tobytes())
        groups.setdefault(gkey, (table, ks, ts, []))[3].append(same[-1])
    chunk = max(1, _STACK_COEFFS // (family.q * width))
    for table, ks, ts, members in groups.values():
        for start in range(0, len(members), chunk):
            blocks = members[start:start + chunk]
            ns = [b[0] for b in blocks]
            outer = np.stack([k[n + 1].coeffs[:, ks] for n in ns])
            lhs = np.matmul(outer, table.table[table.pos[ks], :width])
            if ts.size and t.degrees[ts[-1]] > 1:
                rhs = np.stack([_compose_arrays(t.q, order, T[n].coeffs[:, :width],
                                                k[n].coeffs[:, :width]) for n in ns])
            else:
                coords = t.parent_var[ts]
                rhs = np.matmul(np.stack([T[n].coeffs[:, ts] for n in ns]),
                                np.stack([k[n].coeffs[coords, :width] for n in ns]))
            yield blocks, lhs, rhs


def _window_shape(k: Sequence[PolyJet], T: Sequence[PolyJet]) -> tuple[int, int]:
    """The (q, order) every k_n and T_n shares; refuse an empty window, a
    k count other than len(T) + 1, and jets of mixed shape."""
    if not T:
        raise ValueError("the window is empty: need at least one one-step map T_n")
    if len(k) != len(T) + 1:
        raise ValueError("need one more conjugator than one-step maps")
    q, order = k[0].q, k[0].order
    for name, jets in (("k", k), ("T", T)):
        for n, jet in enumerate(jets):
            if (jet.q, jet.order) != (q, order):
                raise ValueError(
                    f"{name}_{n} has q={jet.q}, order {jet.order} but k_0 has "
                    f"q={q}, order {order}: every k_n and T_n must share one "
                    "dimension and order")
    return q, order


def defect(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
           T: Sequence[PolyJet], degree: int,
           tables: dict[tuple, PowerTable] | None = None) -> np.ndarray:
    """Degree-`degree` part of k_{n+1} o phi_n - T_n o k_n for every step n
    of the window, as one (len(T), q, M) array of coefficient blocks.

    The conjugacy identity must already hold below the requested degree;
    a violation there means the stages ran out of order, and the error
    names the first step it holds at.  `tables` holds the steps' power
    tables across calls (see _window_sides).
    """
    q, order = _window_shape(k, T)
    if not 1 <= degree <= min(order, family.order):
        raise ValueError(f"homogeneous part of degree {degree} not available at "
                         f"order {min(order, family.order)}")
    t = _tables(q, degree)
    cut = t.offsets[degree]
    window = len(T)
    out = np.empty((window, q, t.count - cut), dtype=complex)
    low = np.empty(window)
    scale = np.empty(window)
    for blocks, lhs, rhs in _window_sides(family, k, T, degree,
                                          {} if tables is None else tables, range(window)):
        # roundoff in the compositions scales with their own coefficients,
        # which grow with the degree far beyond the family's coefficients
        sizes = np.maximum(np.abs(lhs).max(axis=(1, 2)), np.abs(rhs).max(axis=(1, 2)))
        lhs -= rhs
        lows = np.abs(lhs[:, :, :cut]).max(axis=(1, 2))
        # each block is written in place to every step that shares it
        for i, ns in enumerate(blocks):
            scale[ns], low[ns], out[ns] = sizes[i], lows[i], lhs[i, :, cut:]
    bad = np.flatnonzero(low > _IDENTITY_BREAK_TOL * np.maximum(scale, 1.0))
    if bad.size:
        n = int(bad[0])
        raise ValueError(
            f"conjugacy identity violated below degree {degree} at step {n} "
            f"(coefficient {low[n]:.3g}); run the stages in increasing degree")
    return out


@dataclass(frozen=True)
class StageReport:
    """Diagnostics of one normalization degree."""

    degree: int
    resonant_norm: float        # largest coefficient kept in the T_n
    recurrence_residual: float


def _substituted(N: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """N_n o A^{-1} for every block of the (window, q, M) stack N, as
    compose forms it: each block's nonzero columns times their full-width
    substitution rows of A^{-1}, cut to the degree afterwards.  Blocks with
    the same nonzero columns share one batched matmul, one gemm per block."""
    M = len(rows)
    out = np.empty_like(N)
    used = (N != 0).any(axis=1)
    groups: dict[bytes, list[int]] = {}
    for n, row in enumerate(used):
        groups.setdefault(row.tobytes(), []).append(n)
    for ns in groups.values():
        support = np.flatnonzero(used[ns[0]])
        out[ns] = np.matmul(N[ns][:, :, support], rows[support])[:, :, -M:]
    return out


def _split_defect(T: Sequence[PolyJet], P: np.ndarray, resonant: np.ndarray,
                  rows: np.ndarray, degree: int
                  ) -> tuple[tuple[PolyJet, ...], np.ndarray, float]:
    """Absorb the resonant part of the window's defect P into the T_n.

    Returns the new T_n, the forcing -N_n o A^{-1} of the nonresonant part
    N_n as one (window, q, M) array, and the largest resonant coefficient.
    P is overwritten with N.  A new T_n depends only on T_n and its
    resonant row, so steps that repeat both (a window's constant tail)
    share one new jet, checked for the triangular shape once; a refusal
    names the first step that breaks it.
    """
    q, work = T[0].q, T[0].order
    lo, hi = _tables(q, work).offsets[degree:degree + 2]
    kept = P[:, resonant]
    new_T = list(T)
    # T holds every T_n alive, so a shared id is a shared jet
    made: dict[tuple, PolyJet] = {}
    for n in np.flatnonzero(kept.any(axis=1)):
        key = (id(T[n]), kept[n].tobytes())
        if key in made:
            new_T[n] = made[key]
            continue
        c = np.array(T[n].coeffs)
        c[:, lo:hi] += np.where(resonant, P[n], 0.0)
        new_T[n] = made[key] = PolyJet(q, work, c)
        if not is_triangular(new_T[n]):
            raise ValueError(
                f"resonant defect at step {n}, degree {degree} falls off "
                "the triangular shape; resonance classification conflict")
    P[:, resonant] = 0.0
    forcing = _substituted(P, rows)
    np.negative(forcing, out=forcing)
    return tuple(new_T), forcing, float(np.abs(kept).max(initial=0.0))


def normal_form_step(family: DiscreteEvolutionFamily, k: Sequence[PolyJet],
                     T: Sequence[PolyJet], degree: int, *,
                     tau: float = RESONANCE_TOL,
                     tables: dict[tuple, PowerTable] | None = None
                     ) -> tuple[tuple[PolyJet, ...], tuple[PolyJet, ...], StageReport]:
    """Run one normalization degree, returning the updated (k, T) pair.

    The degree-`degree` defect splits into a resonant part, absorbed into
    T_n, and a nonresonant part, cancelled by the bounded solution of
    H_{n+1} = Gamma(H_n) - N_n o A^{-1}.  The degree runs over the whole
    window at once, on (window, q, M) stacks of coefficient blocks.  H_n is
    written into k_n's degree-`degree` block (the direct format) instead of
    composing (id + H_n) o k_n: phi_n and T_n share the linear part A, so
    both updates move this degree's defect alike and differ only above it,
    where later stages solve again.  Each distinct (H_n, k_n) makes one new
    jet.  `tables` holds the steps' power tables across degrees (see
    _window_sides).
    """
    q, work = _window_shape(k, T)
    A_opt = _as_optimal(family.linear_part)
    split = spectral_split(A_opt, degree, tau)
    rows = substitution_rows(A_opt.inverse_matrix, degree)
    S = substitution_matrix(rows)
    S_inv = substitution_matrix(substitution_rows(A_opt.matrix, degree))

    new_T, forcing, resonant_norm = _split_defect(
        T, defect(family, k, T, degree, {} if tables is None else tables),
        split.resonant.reshape(q, -1), rows, degree)
    H, residuals = solve_difference(A_opt.matrix, S, S_inv, split, forcing)

    lo, hi = _tables(q, work).offsets[degree:degree + 2]
    new_k = list(k)
    # fields repeat (H_n, k_n): k holds every k_n alive, so a shared id is
    # a shared jet, and H_n is compared bit for bit with the earlier H_m
    # of that jet only, which keeps no copies of the window's blocks
    updated: dict[int, list[int]] = {}
    for n in np.flatnonzero(H.any(axis=(1, 2))):
        same = updated.setdefault(id(k[n]), [])
        h = H[n].tobytes()
        m = next((m for m in same if H[m].tobytes() == h), n)
        if m == n:
            c = np.array(k[n].coeffs)
            c[:, lo:hi] += H[n]
            new_k[n] = PolyJet(q, work, c)
            same.append(n)
        new_k[n] = new_k[m]
    report = StageReport(degree, resonant_norm, float(residuals.max()))
    return tuple(new_k), new_T, report


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


def _trim(series: np.ndarray) -> np.ndarray:
    """series without its trailing zeros, keeping one coefficient at least,
    as numpy.polynomial trims its results."""
    end = series.size
    while end > 1 and series[end - 1] == 0:
        end -= 1
    return series[:end]


def _series_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a + b, both ascending, trimmed."""
    if a.size < b.size:
        a, b = b, a
    out = np.array(a, dtype=float)
    out[:b.size] += b
    return _trim(out)


def _poly_compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Coefficients of outer(inner(t)), both ascending, by Horner's rule,
    with numpy.polynomial's products, sums and trimmed lengths."""
    inner = _trim(np.asarray(inner, dtype=float))
    out = np.zeros(1)
    for c in outer[::-1]:
        out = np.convolve(out, inner)
        out[0] += c
        out = _trim(out)
    return out


def _defect_sup_majorant(family: DiscreteEvolutionFamily,
                         triangular: TriangularFamily,
                         normalizers: Sequence[PolyJet], radius: float) -> float:
    """Bound sup_n sup_{|z| <= radius} |defect_n(z)|_inf via scalar majorants.

    The exact polynomials k_{n+1} o phi_n and T_n o k_n agree through the
    working order, so the true defect is dominated by the degree >= L tail
    of kappa_{n+1}(phihat_n) + That_n(kappa_n), L = order + 1.  Each
    distinct (k_{n+1}, phi_n, T_n, k_n) is bounded once, and each distinct
    jet object is keyed once.
    """
    L = normalizers[0].order + 1
    window = range(len(normalizers) - 1)
    steps = [family.step(n) for n in window]
    tns = [triangular.step(min(n, len(triangular) - 1)) for n in window]
    keys, step_keys, t_keys = (_value_keys(jets) for jets in (normalizers, steps, tns))
    sides: dict[tuple, tuple] = {}
    for n in window:
        sides.setdefault((keys[n + 1], step_keys[n], t_keys[n], keys[n]),
                         (normalizers[n + 1], steps[n], tns[n], normalizers[n]))
    majorants: dict[tuple, np.ndarray] = {}
    worst = 0.0
    for side_keys, jets in sides.items():
        for key, jet in zip(side_keys, jets):
            if key not in majorants:
                majorants[key] = _majorant_series(jet)
        k_next, phihat, that, k_n = (majorants[key] for key in side_keys)
        total = _series_add(_poly_compose(k_next, phihat), _poly_compose(that, k_n))
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
    Every bound is a max over the window, and windows repeat few values,
    so each distinct jet (by _value_key), or tuple of them, is bounded once.
    """
    A_opt = _as_optimal(family.linear_part)
    if report is None:
        report = detect_resonances(A_opt.eigenvalues, "multiplicative", RESONANCE_TOL)
    q = family.q
    norm_a = A_opt.norm_bound
    alpha = 0.5 * (norm_a + 1.0)

    # |phi(z) - Az| <= C2 |z|^2 uniformly on the unit ball
    c2 = 0.0
    for s_jet in dict(zip(_value_keys(family.steps), family.steps)).values():
        series = _majorant_series(s_jet)
        c2 = max(c2, math.sqrt(q) * float(series[2:].sum()))
    r = 0.5 if c2 == 0.0 else min(0.5, (alpha - norm_a) / c2)

    beta = float(np.abs(A_opt.inverse_matrix).sum(axis=1).max())
    inverses: dict[tuple, PolyJet] = {}
    for key, tn in zip(_value_keys(triangular.steps), triangular.steps):
        if key not in inverses:
            inverses[key] = invert(tn)
            g = gradient_bound_matrix(inverses[key], 0.5)
            beta = max(beta, float(g.sum(axis=1).max()))
    ell = _smallest_ell(alpha, beta)

    if normalizers is not None:
        # the operator norms of the distinct deviations k_n - id at a trial
        # radius: one stack of gradient bounds and one stacked SVD per chunk,
        # the chunk's (chunk, q, count, q) terms within _STACK_COEFFS
        distinct = list(dict(zip(_value_keys(normalizers), normalizers)).values())
        chunk = max(1, _STACK_COEFFS // (q * distinct[0].coeffs.size))
        tables = distinct[0].tables
        rs = r
        for _ in range(60):
            dev = 0.0
            for start in range(0, len(distinct), chunk):
                stack = np.stack([_nonlinear(kn).coeffs
                                  for kn in distinct[start:start + chunk]])
                g = _gradient_bounds(stack, tables, rs).astype(complex)
                dev = max(dev, float(np.linalg.norm(g, 2, axis=(1, 2)).max()))
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
        pairs: dict[tuple, PolyJet] = {}
        for n in range(len(family.steps)):
            last = triangular.step(min(n, len(triangular) - 1))
            step = family.step(n)
            pairs.setdefault((_value_key(last), _value_key(step)), step)
        worst = 0.0
        for (last_key, _), step in pairs.items():
            ti = _majorant_series(inverses[last_key])
            total = _poly_compose(ti, _majorant_series(step))
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
    window n = 0 .. work_horizon, in the direct-format gauge: its degree-d
    block is the stage-d correction H_n, so its nonlinear part holds only
    nonresonant monomials.  triangular.steps[n] is T_n, and the jet
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

    def to_json_dict(self) -> dict:
        """The normalform report's entries: normalizers holds k_0 .. k_horizon
        through order, the normal form the report states; triangular holds
        every T_n of the working window as built."""
        return {
            "q": self.q,
            "order": self.order,
            "work_order": self.work_order,
            "horizon": self.horizon,
            "work_horizon": self.work_horizon,
            "tail": "constant",
            "certificate": self.certificate,
            "cluster_sizes": list(self.cluster_sizes),
            "defect_sup": self.defect_sup,
            "constants": self.constants.as_dict(),
            "resonances": self.resonance_report.to_json_dict(),
            "normalizers": [k.truncated(self.order).to_json_dict()
                            for k in self.normalizers[:self.horizon + 1]],
            "triangular": [t.to_json_dict() for t in self.triangular.steps],
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
        k = (PolyJet.identity(q, work_order),) * (work_horizon + 1)
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
    for _, lhs, rhs in _window_sides(fam_w, k, T, work_order, tables, range(work_horizon)):
        lhs -= rhs
        defect_sup = max(defect_sup, float(np.abs(lhs).max()))

    # probe the guaranteed rate once, recording the Cauchy increments of h_0
    # anchored at m = 0 .. work_horizon: push the orbit once, build the
    # monomials of all its points at once, apply each k_m to its own column
    # by the matmul evaluate_many runs (one batched matmul would round
    # differently), and pull back in one pass
    orbit = [complex_ball_points(q, 0.5 * constants.r, 1)]
    for m in range(work_horizon):
        orbit.append(fam_w.step(m).evaluate_many(orbit[-1]))
    mono = _monomial_values(k[0].tables, np.concatenate(orbit, axis=1))
    anchored = [kn.coeffs @ np.ascontiguousarray(mono[:, m:m + 1])
                for m, kn in enumerate(k)]
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
