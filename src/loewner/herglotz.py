"""Evolution families and Loewner chains driven by time-dependent dilation fields.

A dilation field H(z, t) = Lambda z + sum_{j,I} c_{j,I}(t) z^I e_j with the
spectrum of Lambda in the open left half plane generates an evolution family
phi_{s,t} (integrate dz/dtau = H(z, tau) from time s to time t).  This module
integrates that family as truncated jets and as point trajectories,
discretizes it at integer times into optimal linear coordinates, and builds
the associated chain of maps f_t = f_n o phi_{t,n} whose linear part is
exp(-Lambda t).  Everything time-dependent is piecewise smooth: coefficient
schedules are constant, right-open piecewise constant, or piecewise linear
interpolants, and the integrators split every interval at the schedule
breakpoints, so each piece of their Taylor series in time, for jets and
for trajectories alike, sees an affine field.
"""
from __future__ import annotations

import bisect
import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .jets import PolyJet, _mul_table, _tables, compose, invert
from .normal_form import (
    UNIVALENCE_COLLISION,
    ConjugacyResult,
    DiscreteEvolutionFamily,
    UnivalenceReport,
    _check_work_order,
    _linear_bounds,
    _smallest_ell,
    _with_linear,
    build_normal_form,
    discrete_chain,
    jacobian_points,
    univalence_check,
)
from .sampling import complex_ball_points
from .spectral import (RESONANCE_TOL, OptimalForm, PreconditionError, ResonanceReport,
                       _check_tau, expm, operator_norm, to_optimal_form)

__all__ = [
    "PreconditionError",
    "TimeCoefficient",
    "HerglotzFieldSpec",
    "integrate_jet",
    "integrate_points",
    "ContinuousEvolution",
    "DiscretizedFamily",
    "discretize",
    "normalize_field",
    "LoewnerChain",
    "build_chain",
    "assemble_chain",
    "pde_residual",
    "SubordinationReport",
    "verify_subordination_chain",
    "verification_samples",
    "AttractionRow",
    "AttractionReport",
    "attraction_check",
]


# --------------------------------------------------------------------- #
# JSON scalar helpers (shared with the command line front end)

def complex_to_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def complex_from_json(data: Mapping) -> complex:
    return complex(float(data["re"]), float(data["im"]))


def matrix_to_json(matrix: np.ndarray) -> list:
    return [[complex_to_json(v) for v in row] for row in np.asarray(matrix, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(v) for v in row] for row in rows], dtype=complex)


# --------------------------------------------------------------------- #
# time-dependent scalar coefficients

_KINDS = ("constant", "piecewise", "sampled")


@dataclass(frozen=True)
class TimeCoefficient:
    """One scalar coefficient of the field as a function of time.

    kind "constant" ignores the grids.  kind "piecewise" is constant on the
    right-open intervals [times[i], times[i+1]) and clamps to the end values
    outside the grid.  kind "sampled" interpolates linearly between the nodes
    and clamps outside.
    """

    kind: str
    times: tuple[float, ...] = ()
    values: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if not (all(map(math.isfinite, self.times))
                and all(map(cmath.isfinite, self.values))):
            raise ValueError("coefficient times and values must be finite")
        if self.kind == "constant":
            if len(self.values) != 1 or self.times:
                raise ValueError("constant coefficients take exactly one value and no times")
            return
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be nonempty and of equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @staticmethod
    def constant(value: complex) -> "TimeCoefficient":
        return TimeCoefficient("constant", (), (complex(value),))

    def __call__(self, t: float) -> complex:
        if self.kind == "constant":
            return self.values[0]
        ts = self.times
        if t <= ts[0]:
            return self.values[0]
        if self.kind == "piecewise":
            if t >= ts[-1]:
                return self.values[-1]
            return self.values[bisect.bisect_right(ts, t) - 1]
        if t >= ts[-1]:
            return self.values[-1]
        i = bisect.bisect_right(ts, t) - 1
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]

    def breakpoints(self) -> tuple[float, ...]:
        return () if self.kind == "constant" else self.times

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": complex_to_json(self.values[0])}
        return {
            "kind": self.kind,
            "times": list(self.times),
            "values": [complex_to_json(v) for v in self.values],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "TimeCoefficient":
        kind = data["kind"]
        if kind == "constant":
            return TimeCoefficient.constant(complex_from_json(data["value"]))
        return TimeCoefficient(
            kind,
            tuple(float(t) for t in data["times"]),
            tuple(complex_from_json(v) for v in data["values"]),
        )


# --------------------------------------------------------------------- #
# field data

@dataclass(frozen=True)
class HerglotzFieldSpec:
    """Polynomial dilation field H(z, t) = Lambda z + sum c_{j,I}(t) z^I e_j.

    Lambda must have all eigenvalues in the open left half plane, every
    monomial index satisfies 2 <= |I| <= order, and horizon is the length of
    the time window of interest (the coefficient schedules clamp outside
    their grids, so evaluation beyond the horizon stays well defined).
    Components are 0-based here; the JSON form uses 1-based components.
    """

    Lambda: np.ndarray
    order: int
    terms: tuple[tuple[int, tuple[int, ...], TimeCoefficient], ...] = ()
    horizon: float = 1.0

    def __post_init__(self):
        L = np.ascontiguousarray(np.asarray(self.Lambda, dtype=complex))
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("Lambda must be a square matrix")
        L.setflags(write=False)
        object.__setattr__(self, "Lambda", L)
        eigs = np.linalg.eigvals(L)
        worst = eigs[np.argmax(eigs.real)]
        if worst.real >= 0.0:
            raise PreconditionError(
                f"Lambda must have spectrum in the open left half plane; "
                f"eigenvalue {worst} has Re = {worst.real:.6g} >= 0"
            )
        if int(self.order) < 1:
            raise ValueError("order must be >= 1")
        object.__setattr__(self, "order", int(self.order))
        q = L.shape[0]
        cleaned = []
        for j, index, coeff in self.terms:
            j = int(j)
            index = tuple(int(e) for e in index)
            if not 0 <= j < q:
                raise ValueError(f"component {j} out of range for q={q}")
            if len(index) != q or any(e < 0 for e in index):
                raise ValueError(f"bad multi-index {index} for q={q}")
            d = sum(index)
            if not 2 <= d <= self.order:
                raise ValueError(f"term degree {d} outside 2..{self.order}")
            if not isinstance(coeff, TimeCoefficient):
                coeff = TimeCoefficient.constant(coeff)
            cleaned.append((j, index, coeff))
        object.__setattr__(self, "terms", tuple(cleaned))
        if not 0.0 < float(self.horizon) < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "_stages", {})

    @property
    def q(self) -> int:
        return self.Lambda.shape[0]

    @property
    def abscissa(self) -> float:
        """Largest real part in the spectrum of Lambda (negative)."""
        return float(np.linalg.eigvals(self.Lambda).real.max())

    @cached_property
    def optimal(self) -> OptimalForm:
        """Optimal form of exp(Lambda), the linear part of every unit step
        in the discretized family; made once."""
        return to_optimal_form(expm(self.Lambda))

    def breakpoints(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for _, _, coeff in self.terms:
            pts.update(coeff.breakpoints())
        return tuple(sorted(pts))

    def _stage(self, order: int) -> "_FieldStage":
        """The field's coefficient block builder at jet order `order`, made once."""
        stage = self._stages.get(order)
        if stage is None:
            stage = self._stages[order] = _FieldStage(self, order)
        return stage

    def jet(self, t: float, order: int | None = None) -> PolyJet:
        """Jet of z -> H(z, t); terms above the requested order are dropped."""
        order = self.order if order is None else int(order)
        return PolyJet(self.q, order, self._stage(order).block(t))

    def values(self, t: float, points: np.ndarray) -> np.ndarray:
        """H(z, t) at the columns of points, exactly (no truncation): Lambda z
        plus one term at a time, each monomial 1 * z_i ** e_i * ... in
        variable order times its coefficient."""
        pts = np.asarray(points, dtype=complex)
        vals = self.Lambda @ pts
        for j, index, coeff in self.terms:
            mono = np.ones(pts.shape[1], dtype=complex)
            for i, e in enumerate(index):
                if e:
                    mono = mono * pts[i] ** e
            vals[j] += coeff(t) * mono
        return vals

    def jacobians(self, t: float, points: np.ndarray) -> np.ndarray:
        """D_z H(z, t) at the columns of points, shape (m, q, q): Lambda plus
        one (term, variable) derivative at a time, each e_i c times
        z_k ** p_k * ... in variable order."""
        pts = np.asarray(points, dtype=complex)
        m = pts.shape[1]
        jac = np.tile(self.Lambda, (m, 1, 1))
        for j, index, coeff in self.terms:
            powers = [(i, e) for i, e in enumerate(index) if e]
            c = coeff(t)
            for i, e in powers:
                mono = np.full(m, e * c, dtype=complex)
                for k, ek in powers:
                    p = ek - 1 if k == i else ek
                    if p:
                        mono = mono * pts[k] ** p
                jac[:, j, i] += mono
        return jac

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "Lambda": matrix_to_json(self.Lambda),
            "order": self.order,
            "terms": [
                {"component": j + 1, "index": list(index), "time": coeff.to_json_dict()}
                for j, index, coeff in self.terms
            ],
            "horizon": self.horizon,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "HerglotzFieldSpec":
        L = matrix_from_json(data["Lambda"])
        terms = tuple(
            (
                int(entry["component"]) - 1,
                tuple(int(e) for e in entry["index"]),
                TimeCoefficient.from_json_dict(entry["time"]),
            )
            for entry in data.get("terms", ())
        )
        return HerglotzFieldSpec(
            Lambda=L,
            order=int(data["order"]),
            terms=terms,
            horizon=float(data.get("horizon", 1.0)),
        )


class _FieldStage:
    """Coefficient block of z -> H(z, tau) at one jet order, for any tau,
    and the Lie matrix of a block.

    The block is the linear part Lambda as a template plus one slot per
    distinct (component, monomial) of the terms that fit the order.  A slot
    holds 0.0 + c_1(tau) + c_2(tau) + ... over its terms in term order.
    With a slot, the block is the sum of Lambda's block and the terms'
    block, and that sum turns a -0.0 of Lambda into +0.0.  When every slot
    is constant in time, the template is the whole block.

    The Lie matrix M(B) of a block B is the matrix of
    g -> sum_i d_i g * H_i on scalar jet coefficients: (M g)[lie_row] sums
    lie_mult * B.flat[lie_take] * g[lie_col] over its entries.  A monomial
    z^J of g (col) meets the monomial z^I of H_i (source) as
    J_i z^(J - e_i + I) (row), so the entries come from _mul_table's
    triples I + (J - e_i), kept only for the (i, I) the block can hold
    nonzero: Lambda's and the slots'.  H has no constant term, so M never
    lowers a degree and is exact on jets: the truncation drops only rows
    above the order.

    M is applied as a dense count x count matrix when count^2 <= 2 q
    entries, and as a scatter over its entries otherwise.  Under that rule
    the matrix takes no more bytes than the two (entries, q) temporaries of
    one scatter product, so memory follows the field either way.
    """

    __slots__ = ("template", "flat", "schedules", "count", "lie_take", "lie_mult",
                 "lie_row", "lie_col", "lie_gap", "lie_bins", "dense")

    def __init__(self, field: HerglotzFieldSpec, order: int):
        q = field.q
        t = _tables(q, order)
        lin = np.zeros((q, t.count), dtype=complex)
        lin[:, 1:1 + q] = field.Lambda
        slots: dict[tuple[int, int], list[TimeCoefficient]] = {}
        for j, index, coeff in field.terms:
            if sum(index) <= order:
                slots.setdefault((j, t.rank[index]), []).append(coeff)
        if slots:
            # the sum Lambda + terms that the jets stand for: -0.0 -> +0.0
            lin = lin + np.zeros_like(lin)
        self.template = lin
        self.flat = np.array([j * t.count + r for j, r in slots], dtype=np.int64)
        self.schedules = tuple(tuple(c) for c in slots.values())
        if not field.breakpoints():
            self.template = self.block(0.0)
            self.schedules = ()
        self.template.setflags(write=False)

        self.count = n = t.count
        support = np.zeros((q, n), dtype=bool)
        support[:, 1:1 + q] = True
        support.reshape(-1)[self.flat] = True
        ri, rj, rk = _mul_table(q, order)
        # up[r, i]: the rank of indices[r] + e_i (e_i has rank 1 + i), -1 above the order
        linear = np.flatnonzero(t.degrees[ri] == 1)
        up = np.full((n, q), -1, dtype=np.int64)
        up[rj[linear], ri[linear] - 1] = rk[linear]
        # the triples whose I the block holds, then each component i holding it
        m = np.flatnonzero(support.any(axis=0)[ri])
        ri, rj, rk = ri[m], rj[m], rk[m]
        m, i = np.nonzero(support[:, ri].T & (up[rj] >= 0))
        src = ri[m]
        exps = np.array(t.indices, dtype=float).reshape(n, q)
        self.lie_take, self.lie_mult = i * n + src, exps[rj[m], i] + 1.0
        self.lie_row = row = rk[m]
        self.lie_col = col = up[rj[m], i]
        self.lie_gap = t.degrees[src] - 1
        self.dense = n * n <= 2 * q * row.size
        # real and imaginary slots, in the float view, of M's cells or of M x
        cells = row * n + col if self.dense else (row[:, None] * q + np.arange(q))
        self.lie_bins = (2 * cells[..., None] + np.array([0, 1])).reshape(-1)

    def block(self, tau: float) -> np.ndarray:
        if not self.schedules:
            return self.template
        values = []
        for coeffs in self.schedules:
            acc = 0.0
            for coeff in coeffs:
                acc = acc + coeff(tau)
            values.append(acc)
        out = self.template.copy()
        out.reshape(-1)[self.flat] = values
        return out

    def affine(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray | None]:
        """(B(a), S) with B(tau) = B(a) + (tau - a) S on a segment [a, b]
        that holds no node inside: there every schedule is affine, and
        piecewise ones are constant.  S is None where it vanishes."""
        base = self.block(a)
        if not self.schedules:
            return base, None
        c = 0.5 * (a + b)
        slope = (self.block(c) - base) / (c - a)
        return base, (slope if slope.any() else None)

    def lie_weights(self, block: np.ndarray) -> np.ndarray:
        """The entries of the Lie matrix M(block), linear in the block."""
        return self.lie_mult * block.reshape(-1)[self.lie_take]

    def lie_operator(self, weights: np.ndarray):
        """x -> M x, x of shape (count, q), for the Lie matrix with these
        entries: one product with M assembled dense, or a scatter over the
        entries (see the class)."""
        bins = self.lie_bins
        if self.dense:
            n = self.count
            return np.bincount(bins, weights=weights.view(float),
                               minlength=2 * n * n).view(complex).reshape(n, n).__matmul__
        col = self.lie_col

        def apply(x):
            prod = weights[:, None] * x[col]
            return np.bincount(bins, weights=prod.view(float).reshape(-1),
                               minlength=2 * x.size).view(complex).reshape(x.shape)
        return apply

    def lie_norms(self, base: np.ndarray, slope: np.ndarray | None,
                  h: float) -> tuple[float, float]:
        """Bounds of ||M(base + u slope)|| for 0 <= u <= h and of
        ||M(slope)||, in one degree-scaled max-row-sum norm.

        The norm is that of D M D^-1 with D = diag(2^(-e deg)), the change
        of coordinates z -> 2^-e z, which multiplies an entry read from a
        degree-d source by 2^(-e (d - 1)).  The least e >= 0 that brings the
        nonlinear part's bound down to the linear part's keeps the norm near
        Lambda's however large the coefficients grow.  Powers of two scale
        exactly, so a series run in the plain coordinates rounds as it would
        in the scaled ones.
        """
        n, row, gap = self.count, self.lie_row, self.lie_gap
        w = self.lie_weights(np.abs(base) if slope is None else np.abs(base) + h * np.abs(slope))
        linear, rest = np.bincount(2 * row + (gap > 0), w, 2 * n).reshape(n, 2).max(axis=0)
        if not math.isfinite(rest):
            raise ValueError("transition jet coefficients must be finite: the field's "
                             "coefficients overflow its Lie matrix")
        e = math.ceil(math.log2(rest / linear)) if rest > linear else 0
        scale = np.ldexp(1.0, -e * gap)
        alpha = float(np.bincount(row, w * scale, n).max())
        if slope is None:
            return alpha, 0.0
        return alpha, float(np.bincount(row, self.lie_weights(np.abs(slope)) * scale, n).max())


# --------------------------------------------------------------------- #
# transition integrators

# the transition series: h ||M|| per piece, in the scaled norm, and the
# default tail bound every piece's truncation reaches
SERIES_PIECE_NORM = 2.0
SERIES_TAIL = 2.0 ** -53


def _segments(field: HerglotzFieldSpec, s: float, t: float) -> list[tuple[float, float]]:
    cuts = [s] + [b for b in field.breakpoints() if s < b < t] + [t]
    return list(zip(cuts, cuts[1:]))


def _series_terms(x: float, y: float, tail: float) -> int:
    """Least K whose Taylor tail past u^K is below tail.

    For W' = (A_0 - u A_1) W on a piece of length delta, with
    x >= delta ||A_0|| and y >= delta^2 ||A_1||, Gronwall on the complex
    disc of radius r delta bounds the solution by exp(r x + r^2 y / 2), so
    Cauchy's estimate bounds the tail past u^K by
    exp(r x + r^2 y / 2) r^-(K + 1) r / (r - 1) for every r > 1; r is the
    minimizer of the first two factors.

    The search starts where that bound can first pass.  With m = K + 1,
    r is the root of y r^2 + x r = m, so r x + r^2 y / 2 is at least m / 2
    (m when y = 0), and passing needs m log r > L + m / 2 (L + m), where
    L = -log(tail).  As r <= m / x and r <= sqrt(m / y), that asks for
    m log(m / c) > L' with c = x sqrt(e) (x e) and L' = L, and with
    c = y e and L' = 2 L.  The root of m log(m / c) = L' lies above
    L' / log(1 + L' / c), since Lambert's W(z) <= log(1 + z), so every m up
    to the larger bound fails; the search starts one below it, against the
    rounding of the bound itself.
    """
    K = 1
    L = -math.log(tail)
    if L > 0.0:
        cx = x * (math.e if y == 0.0 else math.sqrt(math.e))
        bound = max(L / math.log1p(L / cx) if x > 0.0 else 0.0,
                    2.0 * L / math.log1p(2.0 * L / (y * math.e)) if y > 0.0 else 0.0)
        K = max(1, math.floor(bound) - 1)
    while True:
        r = 2.0 * (K + 1) / (x + math.sqrt(x * x + 4.0 * y * (K + 1)))
        if r > 1.0 and (r * x + 0.5 * r * r * y - (K + 1) * math.log(r)
                        + math.log(r / (r - 1.0))) <= -L:
            return K
        K += 1


def _series(field: HerglotzFieldSpec, stage: _FieldStage, s: float, t: float,
            tail: float) -> tuple[np.ndarray, int, int]:
    """Coefficients of phi_{s,t} by a Taylor series in time, with the counts
    of its pieces and terms.

    Column j of Z holds the jet of component j of phi_{sigma,t}; on jets it
    solves the linear equation dZ/dsigma = -M(sigma) Z with Z = id at
    sigma = t, M(sigma) the Lie matrix of H(., sigma).  The walk runs the
    breakpoint segments backwards from t.  On a segment M is affine, so in
    u = r - sigma, from a piece's right end r, W_k = delta^k Z_k obeys
    k W_k = delta M(r) W_{k-1} - delta^2 M' W_{k-2}.  Pieces keep
    delta ||M|| <= SERIES_PIECE_NORM and each runs the _series_terms terms
    whose tail bound is below tail.
    For a field without breakpoints the run reads only t - s.
    """
    z = np.zeros((stage.count, field.q), dtype=complex)
    z[1:1 + field.q] = np.eye(field.q)
    pieces = terms = 0
    for a, b in reversed(_segments(field, s, t)):
        h = b - a
        base, slope = stage.affine(a, b)
        alpha, beta = stage.lie_norms(base, slope, h)
        m = max(1, math.ceil(alpha * h / SERIES_PIECE_NORM))
        delta = h / m
        K = _series_terms(alpha * delta, beta * delta * delta, tail)
        pieces, terms = pieces + m, terms + m * K
        lie = stage.lie_weights(base)
        if slope is None:
            P, Q = stage.lie_operator(delta * lie), None
        else:
            lie_slope = stage.lie_weights(slope)
            Q = stage.lie_operator((-delta * delta) * lie_slope)
        for i in range(m):
            if Q is not None:
                P = stage.lie_operator(delta * (lie + (b - i * delta - a) * lie_slope))
            prev, cur, z = None, z, z.copy()
            for k in range(1, K + 1):
                nxt = P(cur)
                if Q is not None and prev is not None:
                    nxt += Q(prev)
                nxt /= k
                z += nxt
                prev, cur = cur, nxt
    return z, pieces, terms


def _transition(field: HerglotzFieldSpec, s: float, t: float, order: int,
                tail: float = SERIES_TAIL) -> tuple[PolyJet, int, int]:
    """phi_{s,t} as one Taylor series over [s, t], with its piece and term
    counts."""
    z, pieces, terms = _series(field, field._stage(order), s, t, tail)
    if not np.isfinite(z).all():
        raise ValueError("transition jet coefficients must be finite")
    return PolyJet(field.q, order, z.T), pieces, terms


def integrate_jet(field: HerglotzFieldSpec, s: float, t: float,
                  order: int | None = None, tol: float = SERIES_TAIL) -> PolyJet:
    """Jet of the transition map phi_{s,t} of the field, s <= t.

    The map is one Taylor series of the linear Loewner PDE over [s, t]
    (_series), truncated where its tail bound falls below tol, in (0, 1);
    nothing is composed.
    """
    if not 0.0 < tol < 1.0:  # NaN fails too: the term count would never stop
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    order = field.order if order is None else int(order)
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    if t == s:
        return PolyJet.identity(field.q, order)
    return _transition(field, s, t, order, tol)[0]


# terms of each trajectory step: Jorba and Zou's order for a tolerance of
# 2^-53, ceil(-ln(2^-53) / 2) + 1, so that their step leaves the last term
# near e^-40 of the state
TRAJECTORY_TERMS = 20


def _dual_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for dual numbers stacked on axis -2, the value first and then
    its tangents: (x0 + eps x1)(y0 + eps y1) = x0 y0 + eps (x1 y0 + x0 y1)."""
    out = x * y[..., :1, :]
    out[..., 1:, :] += x[..., :1, :] * y[..., 1:, :]
    return out


def _trajectory(field: HerglotzFieldSpec, s: float, t: float, x: np.ndarray) -> np.ndarray:
    """phi_{s,t} at the columns of x[:, 0], with D phi_{s,t} applied to the
    tangents x[:, 1:]; x has shape (q, 1 + tangents, points).

    A Taylor series in time, over the breakpoint segments forwards from s.
    On a segment the field is B(tau) V(z), V(z) the monomials through the
    field's order and B(tau) = B(a) + (tau - a) S its affine block
    (_FieldStage.affine).  In u = tau - tau_0 each monomial's series is its
    parent's times one coordinate's, as in _monomial_values, and
    (k + 1) z_{k+1} = B(tau_0) V_k + S V_{k-1}, all on dual numbers
    z + eps v.  Each step sums TRAJECTORY_TERMS terms out to e^-2 times the
    radius the last two give, relative to each column's size (Jorba and
    Zou), and stops at the segment's end.
    """
    stage, tab = field._stage(field.order), _tables(field.q, field.order)
    K, n, q = TRAJECTORY_TERMS, tab.count, field.q
    degrees = [(slice(lo, hi), tab.parent_rank[lo:hi], tab.parent_var[lo:hi])
               for lo, hi in zip(tab.offsets[2:-1], tab.offsets[3:])]
    X = np.zeros((K + 1,) + x.shape, dtype=complex)
    V = np.zeros((K + 1, n) + x.shape[1:], dtype=complex)
    tau = s
    # a blow-up overflows the series; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in _segments(field, s, t):
            base, slope = stage.affine(a, b)
            while tau < b:
                B = base if slope is None else base + (tau - a) * slope
                X[0] = x
                for k in range(K):
                    V[k, 1:1 + q] = X[k]
                    for rows, par, var in degrees:
                        V[k, rows] = _dual_product(V[:k + 1, par], X[k::-1, var]).sum(axis=0)
                    step = B @ V[k].reshape(n, -1)
                    if slope is not None and k:
                        step += slope @ V[k - 1].reshape(n, -1)
                    X[k + 1] = step.reshape(x.shape) / (k + 1)
                size = np.abs(X).max(axis=(1, 2))
                scale = np.maximum(size[0], np.finfo(float).tiny)
                inv = max(float(((size[j] / scale) ** (1.0 / j)).max()) for j in (K - 1, K))
                h = b - tau if inv == 0.0 else min(b - tau, math.exp(-2.0) / inv)
                if not (inv < math.inf and tau + h > tau):
                    raise ValueError(f"trajectory blows up at tau = {tau!r}: its state is not "
                                     f"finite or its step no longer moves tau")
                x = X[K]
                for j in range(K - 1, -1, -1):
                    x = x * h + X[j]
                tau = b if h == b - tau else tau + h
    return x


def integrate_variational(field: HerglotzFieldSpec, s: float, t: float,
                          points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi_{s,t} and D phi_{s,t} at the columns of points, the Jacobians
    stacked as (m, q, q): the unit tangents ride along each trajectory."""
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    pts = np.asarray(points, dtype=complex)
    q, m = pts.shape
    x = np.concatenate([pts[:, None], np.tile(np.eye(q, dtype=complex)[:, :, None], m)], axis=1)
    if t > s and m:
        x = _trajectory(field, s, t, x)
    return x[:, 0], x[:, 1:].transpose(2, 0, 1).copy()


def integrate_points(field: HerglotzFieldSpec, s: float, t: float,
                     points: np.ndarray) -> np.ndarray:
    """Trajectories z(t) of dz/dtau = H(z, tau) with z(s) = columns of points."""
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    pts = np.asarray(points, dtype=complex)
    single = pts.ndim == 1
    if single:
        pts = pts[:, None]
    if t == s or pts.shape[1] == 0:
        return pts[:, 0] if single else np.array(pts)
    z = _trajectory(field, s, t, pts[:, None])[:, 0]
    return z[:, 0] if single else z


@dataclass(frozen=True)
class ContinuousEvolution:
    """Transition maps of a field, as cached jets and on-demand trajectories.

    The owner of every transition jet a command computes: each distinct
    interval is integrated once and kept for the life of the evolution, so
    the cache holds at most one jet per distinct interval of one command.
    For a field without breakpoints (every coefficient constant) the series
    reads the interval only through the float t - s; keying by it makes a
    hit bit-identical to a fresh integration.  Other fields key by (s, t).
    """

    field: HerglotzFieldSpec
    order: int

    def __post_init__(self):
        object.__setattr__(self, "_jets", {})
        object.__setattr__(self, "_autonomous", not self.field.breakpoints())

    def _key(self, s: float, t: float) -> tuple:
        return (t - s,) if self._autonomous else (s, t)

    def jet(self, s: float, t: float) -> PolyJet:
        s, t = float(s), float(t)
        key = self._key(s, t)
        cache = self._jets
        if key not in cache:
            cache[key] = integrate_jet(self.field, s, t, self.order)
        return cache[key]

    def point(self, s: float, t: float, points: np.ndarray) -> np.ndarray:
        return integrate_points(self.field, s, t, points)


# --------------------------------------------------------------------- #
# discretization at integer times

# half a unit step: discretize composes each unit step from the transitions
# of its two halves, and the certificate sweep and verify run on this grid,
# so one command integrates each half-step transition once
CERTIFICATE_STEP = 0.5


@dataclass(frozen=True)
class DiscretizedFamily(DiscreteEvolutionFamily):
    """The unit steps of a field's flow, as discretize builds them, with
    the evolution whose half-step jets they were composed from."""

    evolution: ContinuousEvolution = dataclasses.field(repr=False, compare=False)

    def with_order(self, order: int) -> DiscreteEvolutionFamily:
        """The family itself at its own order; at any other order the flow
        integrated there, over the same number of steps.  Padding the jets
        with zeros would not give the flow's coefficients."""
        if order == self.order:
            return self
        return discretize(ContinuousEvolution(self.evolution.field, order), len(self))


def discretize(evolution: ContinuousEvolution,
               horizon: int | None = None) -> DiscretizedFamily:
    """Integer-time snapshots psi_n = M o phi_{n,n+1} o M^{-1} of the
    evolution family, M the field's optimal basis change, with the linear
    block snapped to the optimal matrix exactly: ready to normalize.  The
    family keeps the evolution, and re-integrates the flow when it is
    reissued at another order.

    The unit step is phi_{n,n+1} = phi_{n+1/2,n+1} o phi_{n,n+1/2}, composed
    from the evolution's half-step jets at its order: for maps fixing 0 the
    jet of a composition depends only on the jets of its factors, so the
    composition adds no truncation error.
    """
    field, order = evolution.field, evolution.order
    T = int(math.ceil(field.horizon)) if horizon is None else int(horizon)
    if T < 1:
        raise ValueError("horizon must cover at least one unit step")
    opt = field.optimal
    A = opt.matrix
    Mj = PolyJet.from_linear(opt.basis_change, order)
    Mij = PolyJet.from_linear(opt.basis_change_inverse, order)
    steps = []
    for n in range(T):
        mid = n + CERTIFICATE_STEP
        J = compose(evolution.jet(mid, n + 1), evolution.jet(n, mid), order)
        psi = compose(Mj, compose(J, Mij, order), order)
        steps.append(_with_linear(psi, A))
    return DiscretizedFamily(A, tuple(steps), evolution)


# --------------------------------------------------------------------- #
# the chain

# a chain time up to this far above an integer n is read as n itself, so
# roundoff above a grid point never asks for a backwards flow
ANCHOR_SLACK = 1e-12
# evaluate accepts points up to this far (relative) outside the validity radius
VALIDITY_SLACK = 1e-9


@dataclass(frozen=True)
class LoewnerChain:
    """Chain f_t with f_s = f_t o phi_{s,t} and linear part exp(-Lambda t).

    chain_jets hold f_n at integer times in the original coordinates;
    non-integer times anchor at a = ceil(t) through f_t = f_a o phi_{t,a}.
    radius is the validity ball (points must stay inside the window where
    the normalizing construction converges once pushed to their anchor).
    certificate, when present, bounds sup_t sup_{|z|<=0.95 radius}
    |exp(Lambda t) f_t(z)| over the build grid, measured on these jets; it
    is attached only for resonance-free spectra.  resonances is the
    spectrum's resonance report, and its tolerance the rule verify rebuilds
    the normal form under.  certificate_step, in
    [CERTIFICATE_STEP, 1], is the step of that grid and of verify's.  A
    chain and its JSON document evaluate identically.  evolution holds the
    field's transition maps at the chain order: assemble_chain hands over
    the one the normalization filled, and a chain given none derives its own.
    """

    field: HerglotzFieldSpec
    horizon: int
    radius: float
    chain_jets: tuple[PolyJet, ...]
    resonances: ResonanceReport
    certificate: float | None
    certificate_step: float
    evolution: ContinuousEvolution | None = dataclasses.field(default=None, repr=False,
                                                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chain_jets", tuple(self.chain_jets))
        if self.horizon < 1:
            raise ValueError("horizon must cover at least one unit step")
        if len(self.chain_jets) != self.horizon + 1:
            raise ValueError("need one chain jet per integer time 0..horizon")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        # a step up to 1 puts a grid time in every (n - 1, n], so the checks
        # see every f_n; a finer step than the half-step grid only costs time
        # (NaN fails both comparisons)
        if not CERTIFICATE_STEP <= self.certificate_step <= 1.0:
            raise ValueError(f"certificate_step must lie in [{CERTIFICATE_STEP}, 1], "
                             f"got {self.certificate_step}")
        # a NaN bound would pass every comparison of the normalization check
        if self.certificate is not None and not 0.0 <= self.certificate < math.inf:
            raise ValueError(f"certificate must be finite and >= 0, got {self.certificate}")
        # verify rebuilds the normal form under this rule
        _check_tau(self.resonances.tolerance)
        order = self.chain_jets[0].order
        if any((j.q, j.order) != (self.q, order) for j in self.chain_jets):
            raise ValueError(f"every chain jet must have the field's dimension "
                             f"q={self.q} and one common order")
        evolution = self.evolution
        if evolution is None:
            evolution = ContinuousEvolution(self.field, order)
        elif evolution.field is not self.field or evolution.order != order:
            raise ValueError("evolution must be the chain field's at the chain order")
        object.__setattr__(self, "evolution", evolution)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def order(self) -> int:
        return self.chain_jets[0].order

    def anchor(self, t: float) -> int:
        """Integer time a = ceil(t) at which f_t is evaluated; t <= a, or t
        lies within ANCHOR_SLACK above a and is read as a itself."""
        if not 0.0 <= t <= self.horizon + ANCHOR_SLACK:
            raise ValueError(f"time {t} outside the chain window [0, {self.horizon}]")
        return min(self.horizon, max(0, int(math.ceil(t - ANCHOR_SLACK))))

    def jet(self, t: float) -> PolyJet:
        a = self.anchor(t)
        base = self.chain_jets[a]
        if t >= a:
            return base
        return compose(base, self.evolution.jet(t, a), base.order)

    def normalized_jet(self, t: float) -> PolyJet:
        """Jet of exp(Lambda t) o f_t, tangent to the identity."""
        return _normalized(self.field.Lambda, t, self.jet(t))

    def evaluate(self, t: float, points: np.ndarray) -> np.ndarray:
        """f_t at the columns of points inside the validity ball."""
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts[:, None]
        norms = np.sqrt(np.abs(pts * pts.conj()).sum(axis=0).real)
        if norms.size and norms.max() > self.radius * (1.0 + VALIDITY_SLACK):
            raise ValueError(
                f"point norm {norms.max():.6g} outside the validity radius "
                f"{self.radius:.6g}")
        a = self.anchor(t)
        w = pts if t >= a else self.evolution.point(t, a, pts)
        out = self.chain_jets[a].evaluate_many(w)
        return out[:, 0] if single else out

    def to_json_dict(self) -> dict:
        return self.document(PolyJet.to_json_dict)

    def document(self, jet_entry: Callable[[PolyJet], object]) -> dict:
        """The chain document, each chain jet written as jet_entry(jet):
        to_json_dict gives plain JSON."""
        return {
            "schema": "loewner-chain/1",
            "q": self.q,
            "order": self.order,
            "horizon": self.horizon,
            "radius": self.radius,
            "certificate": self.certificate,
            "certificate_step": self.certificate_step,
            "field": self.field.to_json_dict(),
            "resonances": self.resonances.to_json_dict(),
            "jets": [jet_entry(j) for j in self.chain_jets],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "LoewnerChain":
        """The chain of a document: every key to_json_dict writes is required,
        and q and order must match the field and the jets.  The basis_change,
        constants and step_tol keys, which earlier versions wrote and no
        computation reads, are ignored."""
        schema = data["schema"]
        if not (isinstance(schema, str) and schema.startswith("loewner-chain/")):
            raise ValueError(f"not a chain document (schema {schema!r})")
        horizon = data["horizon"]
        if type(horizon) is not int:
            raise ValueError(f"horizon must be an integer, got {horizon!r}")
        certificate = data["certificate"]
        chain = LoewnerChain(
            field=HerglotzFieldSpec.from_json_dict(data["field"]),
            horizon=horizon,
            radius=float(data["radius"]),
            chain_jets=tuple(PolyJet.from_json_dict(j) for j in data["jets"]),
            resonances=ResonanceReport.from_json_dict(data["resonances"]),
            certificate=None if certificate is None else float(certificate),
            certificate_step=float(data["certificate_step"]),
        )
        if data["q"] != chain.q or data["order"] != chain.order:
            raise ValueError(f"q {data['q']!r} and order {data['order']!r} must be the "
                             f"field's {chain.q} and the jets' {chain.order}")
        return chain


def _transient_growth(Lambda: np.ndarray) -> float:
    """Largest operator norm of exp(tau Lambda) over one unit of time."""
    worst = 1.0
    for tau in np.linspace(0.0, 1.0, 9):
        worst = max(worst, operator_norm(expm(tau * Lambda)))
    return worst


def _certificate_grid(horizon: int, step: float) -> list[float]:
    """Times 0, step, 2 step, .. up to the horizon, which always closes the grid."""
    ts = [k * step for k in range(int(math.floor(horizon / step)) + 1)]
    if ts[-1] < horizon:
        ts.append(float(horizon))
    return ts


def _normalized(Lambda: np.ndarray, t: float, jet: PolyJet) -> PolyJet:
    """exp(Lambda t) o jet, at the jet's order."""
    return compose(PolyJet.from_linear(expm(t * Lambda), jet.order), jet, jet.order)


def _sup_norm(values: np.ndarray) -> float:
    """Largest Euclidean norm over the columns of values."""
    return float(np.sqrt((values * values.conj()).real.sum(axis=0)).max())


def _normalized_sup(chain: LoewnerChain, ts: Sequence[float],
                    points: np.ndarray) -> float:
    """Largest |exp(Lambda t) f_t(z)| over the times ts and the columns of
    points, on the normalized chain jets that verify checks."""
    return max(_sup_norm(chain.normalized_jet(t).evaluate_many(points)) for t in ts)


RADIUS_FACTOR = 0.4       # validity radius over r / (|M| x transient growth of exp(tau Lambda))
CERTIFICATE_SAMPLES = 16  # ball points of the certificate sweep
CERTIFICATE_BALL = 0.95   # the sweep's ball, relative to the validity radius
CERTIFICATE_FACTOR = 1.25  # certificate over the measured sup


def normalize_field(evolution: ContinuousEvolution, horizon: int | None = None,
                    tau: float = RESONANCE_TOL
                    ) -> tuple[ContinuousEvolution, ConjugacyResult]:
    """Normal form through the evolution's order of the field's own
    evolution family over `horizon` unit steps (default the field's), and
    the evolution at the working order.

    The flow is integrated at the working order estimated from the optimal
    form of exp(Lambda): by `evolution` itself when it has that order, so
    its cached half-step jets are reused.  build_normal_form raises the
    working order while the normalization asks for more, and the
    discretized family re-integrates the flow at each new order, so the
    jets carry true flow coefficients at every order the normalization
    touches.
    """
    field, order = evolution.field, evolution.order
    horizon = None if horizon is None else int(horizon)
    jet_order = max(order, _smallest_ell(*_linear_bounds(field.optimal)))
    source = "the field's order" if order == field.order else "the requested order"
    # build_normal_form would refuse this order only after the integration,
    # which above the cap can run for minutes
    _check_work_order(field.q, jet_order, source if jet_order == order else None)
    if jet_order != order:
        evolution = ContinuousEvolution(field, jet_order)
    result = build_normal_form(discretize(evolution, horizon), order=order,
                               horizon=horizon, tau=tau)
    return result.family.evolution, result


def build_chain(field: HerglotzFieldSpec, horizon: int | None = None,
                order: int | None = None, tau: float = RESONANCE_TOL) -> LoewnerChain:
    """Normalize the evolution family of the field (normalize_field) into a
    Loewner chain (assemble_chain)."""
    base_order = max(2, field.order if order is None else int(order))
    return assemble_chain(*normalize_field(ContinuousEvolution(field, base_order),
                                           horizon, tau=tau))


def assemble_chain(evolution: ContinuousEvolution, result: ConjugacyResult) -> LoewnerChain:
    """The Loewner chain of a field's normal form, as normalize_field
    returns the pair.

    The normal form is pulled back to the original coordinates, and the
    chain keeps the evolution the normalization integrated.  A sup bound
    for the normalized chain jets on the validity ball is attached only
    when the spectrum is resonance-free.
    """
    field = evolution.field
    discrete = discrete_chain(result)
    W = discrete[0].order
    M = field.optimal.basis_change
    Mj = PolyJet.from_linear(M, W)
    Mij = PolyJet.from_linear(field.optimal.basis_change_inverse, W)
    jets = tuple(compose(Mij, compose(fj, Mj, W), W) for fj in discrete)

    growth = _transient_growth(field.Lambda)
    radius = RADIUS_FACTOR * result.constants.r / (operator_norm(M) * growth)
    chain = LoewnerChain(
        field=field,
        horizon=result.horizon,
        radius=radius,
        chain_jets=jets,
        resonances=result.resonance_report,
        certificate=None,
        certificate_step=CERTIFICATE_STEP,
        evolution=evolution,
    )
    if not result.resonance_report.resonances:
        pts = complex_ball_points(field.q, CERTIFICATE_BALL * radius, CERTIFICATE_SAMPLES)
        sup = _normalized_sup(chain, _certificate_grid(chain.horizon, CERTIFICATE_STEP), pts)
        chain = dataclasses.replace(chain, certificate=CERTIFICATE_FACTOR * sup)
    return chain


# --------------------------------------------------------------------- #
# residuals and checks

def _difference_stencil(nodes: Sequence[float], t: float, h: float,
                        horizon: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Times, weights and step k of the quotient sum_i w_i f_{s_i} / (2k) for d/dt f_t.

    f_t is smooth in t on each closed piece between consecutive coefficient
    nodes and only continuous across a node, so every time s_i stays in the
    piece [lo, hi] holding t; a node at t opens the piece on its right,
    since piecewise schedules take the right-hand value there.  The central
    pair t -+ h is used whenever it fits.  Otherwise the quotient is the
    second-order one-sided one into the wider side of the piece, with its
    step capped at half that side.
    """
    lo = max([0.0] + [b for b in nodes if b <= t])
    hi = min([float(horizon)] + [b for b in nodes if b > t])
    if lo <= t - h and t + h <= hi:
        return (t + h, t - h), (1.0, -1.0), h
    if hi - t >= t - lo:
        k = min(h, 0.5 * (hi - t))
        return (t, t + k, t + 2.0 * k), (-3.0, 4.0, -1.0), k
    k = min(h, 0.5 * (t - lo))
    return (t - 2.0 * k, t - k, t), (1.0, -4.0, 3.0), k


# step h of pde_residual's difference quotient
PDE_STEP = 1e-3


def pde_residual(chain: LoewnerChain, samples: Sequence[tuple[float, np.ndarray]],
                 h: float = PDE_STEP) -> float:
    """Largest |d/dt f_t(z) + Df_t(z) H(z, t)| over the (t, z) samples.

    The time derivative is a difference quotient of f_s = f_a o phi_{s,a}
    with every evaluation anchored at the same integer time a (the ceiling
    of the latest quotient time), so it differentiates a single smooth map.
    It is the central difference t -+ h, second order in h, unless a node
    of the chain field's coefficient schedules lies strictly inside
    (t - h, t + h); then it is a second-order one-sided quotient that stays
    on t's side of the node (_difference_stencil).  Samples sharing a time t
    are one batch: one point integration per quotient time and one
    variational integration t -> a.
    Requires t - h >= 0 and t + h <= horizon for every sample.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    groups: dict[float, list[np.ndarray]] = {}
    for t, z in samples:
        t = float(t)
        if t - h < 0.0 or t + h > chain.horizon:
            raise ValueError(f"sample time {t} +- {h} leaves the window [0, {chain.horizon}]")
        groups.setdefault(t, []).append(np.asarray(z, dtype=complex).reshape(-1))
    field = chain.field
    nodes = field.breakpoints()
    worst = 0.0
    for t, columns in groups.items():
        times, weights, k = _difference_stencil(nodes, t, h, chain.horizon)
        a = chain.anchor(max(times))
        z = np.stack(columns, axis=1)
        anchor_jet = chain.chain_jets[a]
        # a quotient time within the anchor slack above a starts at a itself
        terms = [w * anchor_jet.evaluate_many(chain.evolution.point(min(s, a), a, z))
                 for w, s in zip(weights, times)]
        dfdt = sum(terms[1:], terms[0]) / (2.0 * k)
        # Df_t(z) by the chain rule: exact polynomial Jacobian of the anchor
        # map at the pushed point times the variational factor of the flow
        w0, Dw0 = integrate_variational(field, min(t, a), a, z)
        Df = jacobian_points(anchor_jet, w0) @ Dw0
        # one matrix-vector product per column, as for a sample alone
        res = dfdt + (Df @ field.values(t, z).T[:, :, None])[:, :, 0].T
        worst = max(worst, float(np.sqrt((res * res.conj()).real.sum(axis=0)).max()))
    return worst


def verification_samples(q: int, radius: float, count: int, start: int = 0) -> np.ndarray:
    """Deterministic sample set for the chain checks: a ball batch and its mirror.

    The mirrored pairs make even-degree degeneracies visible to the pairwise
    injectivity comparison (z and -z collide whenever the odd part of the map
    degenerates), which random points alone essentially never witness.
    """
    pts = complex_ball_points(q, radius, count, start)
    return np.hstack([pts, -pts])


# bounds of verify_subordination_chain's checks
LINEAR_PART_TOL = 1e-6         # f_t's linear part against exp(-Lambda t), relative
CONTAINMENT_SLACK = 1e-6       # transition images may leave the ball by this fraction
FIELD_MATCH_TOL = 1e-5         # transition jets against the field's, relative
NORMALIZATION_FACTOR = 1.01    # sup of exp(Lambda t) f_t may pass the declared
NORMALIZATION_SLACK = 1e-9     # bound by this factor plus this absolute slack
UNIVALENCE_SEPARATION = 1e-3   # least sample distance compared, relative to the radius


@dataclass(frozen=True)
class SubordinationReport:
    """Outcome of the chain consistency checks; failures name what broke."""

    grid: tuple[float, ...]
    radius: float
    sample_count: int
    linear_defect: float
    containment_margin: float
    transition_defect: float
    normalization_sup: float
    declared_bound: float | None
    univalence: UnivalenceReport
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "grid": list(self.grid),
            "radius": self.radius,
            "sample_count": self.sample_count,
            "linear_defect": self.linear_defect,
            "containment_margin": self.containment_margin,
            "transition_defect": self.transition_defect,
            "normalization_sup": self.normalization_sup,
            "declared_bound": self.declared_bound,
            "univalence_violations": len(self.univalence.violations),
            "univalence_linear_defect": self.univalence.linear_defect,
        }


def verify_subordination_chain(chain: LoewnerChain, *, samples: int = 12,
                               start: int = 0) -> SubordinationReport:
    """Check a chain against its own field on its validity ball and certificate grid.

    Four checks run unconditionally and every failure is collected rather
    than raised: the linear part of f_t must match exp(-Lambda t); the
    transition maps psi_{s,t} = f_t^{-1} o f_s between consecutive grid times
    must keep the sample ball inside the validity ball and agree with the
    transition integrated from the field; the normalized maps
    exp(Lambda t) o f_t must stay within the declared sup bound when one is
    declared; and the normalized maps must be injective on the mirrored
    sample set with linear part tangent to the identity.
    """
    R = chain.radius
    ts = _certificate_grid(chain.horizon, chain.certificate_step)
    pts = verification_samples(chain.q, 0.9 * R, samples, start)
    failures: list[str] = []

    jets_t = [chain.jet(t) for t in ts]
    L = chain.field.Lambda

    lin_defect = 0.0
    for t, jt in zip(ts, jets_t):
        target = expm(-t * L)
        dev = operator_norm(jt.linear_matrix - target) / max(1.0, operator_norm(target))
        lin_defect = max(lin_defect, float(dev))
    if lin_defect > LINEAR_PART_TOL:
        failures.append("linear-part")

    contain = 0.0
    match = 0.0
    W = chain.order
    for (s_, js), (t_, jt) in zip(zip(ts, jets_t), zip(ts[1:], jets_t[1:])):
        psi = compose(invert(jt), js, W)
        contain = max(contain, _sup_norm(psi.evaluate_many(pts)) / R)
        ref = chain.evolution.jet(s_, t_)
        match = max(match, (psi - ref).max_coeff / max(1.0, ref.max_coeff))
    if contain > 1.0 + CONTAINMENT_SLACK:
        failures.append("transition-containment")
    if match > FIELD_MATCH_TOL:
        failures.append("transition-field-match")

    # the certificate sweep's path: chain.normalized_jet(t) at the sample points
    normalized = [_normalized(L, t, jt) for t, jt in zip(ts, jets_t)]
    values = [g.evaluate_many(pts) for g in normalized]
    sup = max(_sup_norm(vals) for vals in values)
    if (chain.certificate is not None and
            sup > chain.certificate * NORMALIZATION_FACTOR + NORMALIZATION_SLACK):
        failures.append("normalization-bound")

    univ = univalence_check(values, pts, jets=normalized, delta=UNIVALENCE_SEPARATION * R,
                            eta=UNIVALENCE_COLLISION)
    if not univ.passed:
        failures.append("univalence")

    return SubordinationReport(
        grid=tuple(ts),
        radius=R,
        sample_count=pts.shape[1],
        linear_defect=lin_defect,
        containment_margin=contain,
        transition_defect=match,
        normalization_sup=sup,
        declared_bound=chain.certificate,
        univalence=univ,
        failures=tuple(failures),
    )


# --------------------------------------------------------------------- #
# attraction to the origin

@dataclass(frozen=True)
class AttractionRow:
    index: int
    steps: int | None
    converged: bool
    final_norm: float


@dataclass(frozen=True)
class AttractionReport:
    """Per-sample step counts until the discrete orbit enters the tol ball."""

    tol: float
    start: int
    max_steps: int
    rows: tuple[AttractionRow, ...]

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "start": self.start,
            "max_steps": self.max_steps,
            "all_converged": self.all_converged,
            "rows": [
                {"index": r.index, "steps": r.steps, "converged": r.converged,
                 "final_norm": r.final_norm}
                for r in self.rows
            ],
        }


# radius of the ball an orbit must enter to count as attracted
ATTRACTION_BALL = 1e-6


def attraction_check(family: DiscreteEvolutionFamily, points: np.ndarray,
                     tol: float = ATTRACTION_BALL, max_steps: int = 4096,
                     start: int = 0) -> AttractionReport:
    """Iterate the evolution family on sample points until they reach the tol ball.

    Orbits that are still outside the ball after max_steps are reported as
    not converged; the family tail keeps the iteration defined past the
    stored window.
    """
    z = np.array(np.asarray(points, dtype=complex), ndmin=2)
    if z.shape[0] != family.linear_part.shape[0]:
        raise ValueError("points must have one row per coordinate")
    m = z.shape[1]
    steps: list[int | None] = [None] * m
    for k in range(max_steps + 1):
        norms = np.sqrt((z * z.conj()).real.sum(axis=0))
        for i in range(m):
            if steps[i] is None and norms[i] <= tol:
                steps[i] = k
        if all(s is not None for s in steps) or k == max_steps:
            break
        z = family.evaluate_transition(start + k, start + k + 1, z)
    rows = tuple(
        AttractionRow(index=i, steps=steps[i], converged=steps[i] is not None,
                      final_norm=float(norms[i]))
        for i in range(m)
    )
    return AttractionReport(tol=tol, start=start, max_steps=max_steps, rows=rows)
