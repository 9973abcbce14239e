"""Truncated polynomial jet algebra for holomorphic maps of C^q fixing the origin.

A jet stores the Taylor coefficients of a map C^q -> C^q through a fixed total
degree.  Multi-indices of each degree are enumerated in graded lexicographic
order (exponent tuples in lexicographically descending order within the
degree), and coefficients live in dense complex blocks so that composition,
the hot loop of the normal-form machinery, reduces to tabulated truncated
multiplications plus one matrix product.

Conventions
-----------
* components are 0-based in Python; the JSON wire format uses 1-based
  component labels,
* every represented map fixes the origin: there is no constant term,
* arithmetic on jets of different truncation order operates at the smaller
  order.  Coefficients beyond a jet's order are unknown, never assumed zero;
  a map that is exactly polynomial can be lifted to a higher order with
  :meth:`PolyJet.extended`, which declares the missing coefficients to be
  genuine zeros.

All values are immutable after construction (coefficient arrays are marked
read-only), so they can be shared freely between caches and threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def _indices_of_degree(q: int, degree: int) -> tuple[MultiIndex, ...]:
    if q == 1:
        return ((degree,),)
    out = []
    for lead in range(degree, -1, -1):
        for rest in _indices_of_degree(q - 1, degree - lead):
            out.append((lead,) + rest)
    return tuple(out)


def enumerate_indices(q: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of the given total degree, graded-lex ordered.

    Within a fixed degree the order is plain lexicographic descent on the
    tuple, e.g. for q = 2, degree 2: (2,0), (1,1), (0,2).
    """
    if q < 1:
        raise ValueError(f"dimension must be >= 1, got {q}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return list(_indices_of_degree(q, degree))


class _Tables:
    """Index bookkeeping shared by every jet of a given (q, order)."""

    __slots__ = ("q", "order", "indices", "rank", "offsets", "degrees",
                 "exponents", "parent_rank", "parent_var", "count")

    def __init__(self, q: int, order: int):
        self.q = q
        self.order = order
        indices: list[MultiIndex] = []
        offsets = [0]
        for d in range(order + 1):
            indices.extend(_indices_of_degree(q, d))
            offsets.append(len(indices))
        self.indices = tuple(indices)
        self.count = len(indices)
        self.offsets = tuple(offsets)
        self.rank = {I: r for r, I in enumerate(indices)}
        self.degrees = np.array([sum(I) for I in indices], dtype=np.int64)
        # row r holds the exponent tuple of rank r
        self.exponents = np.array(indices, dtype=np.int64).reshape(self.count, q)
        # parent of I is I - e_k for the first k with I_k > 0: used to build
        # monomial values/powers incrementally.
        parent_rank = np.zeros(self.count, dtype=np.int64)
        parent_var = np.zeros(self.count, dtype=np.int64)
        for r, I in enumerate(indices):
            if sum(I) == 0:
                continue
            k = next(m for m, e in enumerate(I) if e > 0)
            J = list(I)
            J[k] -= 1
            parent_rank[r] = self.rank[tuple(J)]
            parent_var[r] = k
        self.parent_rank = parent_rank
        self.parent_var = parent_var


@lru_cache(maxsize=None)
def _tables(q: int, order: int) -> _Tables:
    if q < 1 or order < 1:
        raise ValueError(f"need q >= 1 and order >= 1, got q={q}, order={order}")
    return _Tables(q, order)


@lru_cache(maxsize=None)
def _mul_table(q: int, order: int):
    """Triples (ri, rj, rk) with indices[ri] + indices[rj] = indices[rk]."""
    t = _tables(q, order)
    ri: list[int] = []
    rj: list[int] = []
    rk: list[int] = []
    for da in range(order + 1):
        for a in range(t.offsets[da], t.offsets[da + 1]):
            I = t.indices[a]
            for db in range(order + 1 - da):
                for b in range(t.offsets[db], t.offsets[db + 1]):
                    J = t.indices[b]
                    ri.append(a)
                    rj.append(b)
                    rk.append(t.rank[tuple(x + y for x, y in zip(I, J))])
    return (np.asarray(ri, dtype=np.int64),
            np.asarray(rj, dtype=np.int64),
            np.asarray(rk, dtype=np.int64))


@lru_cache(maxsize=None)
def _mul_plan(q: int, order: int, lval_a: int, lval_b: int):
    """Triples of _mul_table kept for factor valuations >= lval.

    A factor with valuation v has zero coefficients below degree v, so every
    triple touching those rows contributes nothing; dropping them up front is
    what keeps high-degree power updates cheap.  Returns (ri, rj, bins):
    triple m multiplies a[ri[m]] by b[rj[m]], and bins[2m], bins[2m + 1] are
    the real and imaginary slots of its output coefficient when the complex
    output vector is viewed as floats.
    """
    t = _tables(q, order)
    ri, rj, rk = _mul_table(q, order)
    keep = (t.degrees[ri] >= lval_a) & (t.degrees[rj] >= lval_b)
    bins = (2 * rk[keep, None] + np.array([0, 1])).reshape(-1)
    return ri[keep], rj[keep], bins


def _monomial_values(t: _Tables, points: np.ndarray) -> np.ndarray:
    """Values of every monomial z^I at the given points, shape (count, m).

    Each value is its parent's times one coordinate, and the parents of a
    degree lie in the degree below, so one product fills a whole degree."""
    m = points.shape[1]
    vals = np.empty((t.count, m), dtype=complex)
    vals[0] = 1.0
    for d in range(1, t.order + 1):
        lo, hi = t.offsets[d], t.offsets[d + 1]
        vals[lo:hi] = vals[t.parent_rank[lo:hi]] * points[t.parent_var[lo:hi]]
    return vals


@dataclass(frozen=True, eq=False)
class PolyJet:
    """Taylor coefficients of a map C^q -> C^q fixing 0, through `order`.

    coeffs has shape (q, count) where count runs over all multi-indices with
    |I| <= order in degree-major graded-lex order; the constant column is
    identically zero.
    """

    q: int
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        t = _tables(self.q, self.order)
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if c.shape != (self.q, t.count):
            raise ValueError(
                f"coefficient block must have shape ({self.q}, {t.count}), got {c.shape}")
        if c[:, 0].any():
            raise ValueError("jets fix the origin: constant coefficients must vanish")
        if not np.isfinite(c).all():
            raise ValueError("jet coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # ------------------------------------------------------------------ #
    # constructors

    @staticmethod
    def zero(q: int, order: int) -> "PolyJet":
        return PolyJet(q, order, np.zeros((q, _tables(q, order).count), dtype=complex))

    @staticmethod
    def identity(q: int, order: int) -> "PolyJet":
        return PolyJet.from_linear(np.eye(q), order)

    @staticmethod
    def from_linear(matrix: np.ndarray, order: int) -> "PolyJet":
        """Jet of the linear map z -> matrix @ z, exact to every order."""
        A = np.asarray(matrix, dtype=complex)
        q = A.shape[0]
        if A.shape != (q, q):
            raise ValueError(f"linear part must be square, got {A.shape}")
        c = np.zeros((q, _tables(q, order).count), dtype=complex)
        c[:, 1:1 + q] = A
        return PolyJet(q, order, c)

    @staticmethod
    def from_terms(q: int, order: int,
                   terms: Mapping[tuple[int, MultiIndex], complex]) -> "PolyJet":
        """Build a jet from a sparse {(component, index): coefficient} map."""
        t = _tables(q, order)
        c = np.zeros((q, t.count), dtype=complex)
        for (j, I), value in terms.items():
            I = tuple(int(e) for e in I)
            if not 0 <= j < q:
                raise ValueError(f"component {j} out of range for q={q}")
            if len(I) != q or any(e < 0 for e in I):
                raise ValueError(f"bad multi-index {I} for q={q}")
            d = sum(I)
            if d < 1 or d > order:
                raise ValueError(f"multi-index degree {d} outside 1..{order}")
            c[j, t.rank[I]] += value
        return PolyJet(q, order, c)

    # ------------------------------------------------------------------ #
    # accessors

    @property
    def tables(self) -> _Tables:
        return _tables(self.q, self.order)

    @property
    def linear_matrix(self) -> np.ndarray:
        return np.array(self.coeffs[:, 1:1 + self.q])

    @property
    def max_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    @cached_property
    def triangular_plan(self) -> tuple[int, tuple, tuple, np.ndarray, bool]:
        """Forward-substitution plan of evaluate_triangular_inverse_many."""
        return _triangular_plan(self)

    def coefficient(self, j: int, index: Sequence[int]) -> complex:
        I = tuple(int(e) for e in index)
        d = sum(I)
        if d < 1 or d > self.order:
            raise ValueError(
                f"coefficient of degree {d} not stored at truncation order {self.order}")
        if not 0 <= j < self.q:
            raise ValueError(f"component {j} out of range for q={self.q}")
        return complex(self.coeffs[j, self.tables.rank[I]])

    def flat_terms(self) -> tuple[list[int], list[complex]]:
        """The nonzero coefficients, component-major and rank ascending: their
        flat positions j * count + rank in coeffs, and their values."""
        flat = np.flatnonzero(self.coeffs)
        return flat.tolist(), self.coeffs.ravel()[flat].tolist()

    def nonzero_terms(self) -> list[tuple[int, MultiIndex, complex]]:
        t = self.tables
        flat, values = self.flat_terms()
        return [(k // t.count, t.indices[k % t.count], c) for k, c in zip(flat, values)]

    # ------------------------------------------------------------------ #
    # arithmetic

    def truncated(self, order: int) -> "PolyJet":
        if order >= self.order:
            return self
        n = _tables(self.q, order).count
        return PolyJet(self.q, order, np.array(self.coeffs[:, :n]))

    def extended(self, order: int) -> "PolyJet":
        """Declare this jet an exact polynomial and pad with true zeros."""
        if order <= self.order:
            return self
        t = _tables(self.q, order)
        c = np.zeros((self.q, t.count), dtype=complex)
        c[:, :self.coeffs.shape[1]] = self.coeffs
        return PolyJet(self.q, order, c)

    def _binary(self, other: "PolyJet", sign: int) -> "PolyJet":
        if not isinstance(other, PolyJet):
            return NotImplemented
        if self.q != other.q:
            raise ValueError("dimension mismatch")
        n = min(self.order, other.order)
        k = _tables(self.q, n).count
        return PolyJet(self.q, n, self.coeffs[:, :k] + sign * other.coeffs[:, :k])

    def __add__(self, other):
        return self._binary(other, 1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def __neg__(self):
        return PolyJet(self.q, self.order, -self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return PolyJet(self.q, self.order, self.coeffs * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        """Jets agree when all coefficients up to the smaller order match exactly."""
        if not isinstance(other, PolyJet):
            return NotImplemented
        if self.q != other.q:
            return False
        k = _tables(self.q, min(self.order, other.order)).count
        return bool(np.array_equal(self.coeffs[:, :k], other.coeffs[:, :k]))

    # ------------------------------------------------------------------ #
    # evaluation

    def evaluate(self, z: Sequence[complex]) -> np.ndarray:
        z = np.asarray(z, dtype=complex).reshape(self.q)
        return self.evaluate_many(z[:, None])[:, 0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (q, m) by incremental monomial products."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[0] != self.q:
            raise ValueError(f"points must have shape ({self.q}, m)")
        vals = _monomial_values(self.tables, pts)
        return self.coeffs @ vals

    # ------------------------------------------------------------------ #
    # serialization: components are 1-based on the wire

    def to_json_dict(self) -> dict:
        t = self.tables
        flat, values = self.flat_terms()
        terms = [{"component": k // t.count + 1, "index": list(t.indices[k % t.count]),
                  "re": c.real, "im": c.imag} for k, c in zip(flat, values)]
        return {"q": self.q, "order": self.order, "terms": terms}

    @staticmethod
    def from_json_dict(data: Mapping) -> "PolyJet":
        q = int(data["q"])
        order = int(data["order"])
        t = _tables(q, order)
        c = np.zeros((q, t.count), dtype=complex)
        seen = set()
        for term in data["terms"]:
            j = int(term["component"]) - 1
            I = tuple(int(e) for e in term["index"])
            if not 0 <= j < q:
                raise ValueError(f"component {j + 1} out of range for q={q}")
            if len(I) != q or any(e < 0 for e in I) or not 1 <= sum(I) <= order:
                raise ValueError(f"bad multi-index {list(I)} for q={q}, order={order}")
            if (j, I) in seen:
                raise ValueError(f"term (component {j + 1}, index {list(I)}) is listed twice")
            seen.add((j, I))
            c[j, t.rank[I]] = complex(float(term["re"]), float(term["im"]))
        return PolyJet(q, order, c)


# ---------------------------------------------------------------------- #
# composition and inversion


# triples one product of _power_rows covers at most.  4096 keeps each of
# its temporaries at 64 KB, in cache and below malloc's mmap threshold.  One
# product per degree (temporaries up to 0.8 MB each at q = 4, order 6)
# page-faults them afresh on every call: on 2 vCPUs the power tables of the
# `families` benchmark documents then took 1.5 to 2 times as long
_PRODUCT_TRIPLES = 4096


@lru_cache(maxsize=1024)
def _power_plan(q: int, order: int, rows: bytes) -> tuple[np.ndarray, int, np.ndarray, tuple]:
    """Parent closure of the monomials `rows`, how far each row is read,
    and the groups of rows to fill it in.

    rows holds int64 ranks as bytes, so plans are keyed by the support
    pattern's value.  A requested row is read through `order`.  A row that
    only feeds its children is read one degree less far than its farthest
    child, because a coordinate of g has no constant term: a degree-e row
    whose nearest requested descendant has degree D is read through degree
    order - (D - e), the row's reach.

    The linear rows come first, in ascending rank; the later rows follow
    by degree, then reach, then rank.  A group is a run of consecutive rows
    of one degree and one reach, at most _PRODUCT_TRIPLES triples of
    _mul_plan together (one row at least).  Returns (pos, size, linear,
    groups): pos maps a rank to its table row (-1 outside the closure),
    size counts the rows, linear[i] is the variable of linear row i, and
    groups lists (first row, parent rows, variables, bin shifts, degree,
    reach) per group.
    """
    t = _tables(q, order)
    reach = np.zeros(t.count, dtype=np.int64)
    reach[np.frombuffer(rows, dtype=np.int64)] = order
    for d in range(order, 1, -1):
        lo, hi = t.offsets[d], t.offsets[d + 1]
        live = np.flatnonzero(reach[lo:hi]) + lo
        np.maximum.at(reach, t.parent_rank[live], reach[live] - 1)
    ranks = np.flatnonzero(reach)
    ranks = ranks[np.lexsort((ranks, reach[ranks], t.degrees[ranks]))]
    pos = np.full(t.count, -1, dtype=np.int64)
    pos[ranks] = np.arange(ranks.size)
    pos.setflags(write=False)
    lin = int(np.count_nonzero(t.degrees[ranks] == 1))
    linear = t.parent_var[ranks[:lin]]
    linear.setflags(write=False)
    groups = []
    start = lin
    while start < ranks.size:
        deg, far = int(t.degrees[ranks[start]]), int(reach[ranks[start]])
        cap = max(1, _PRODUCT_TRIPLES // _mul_plan(q, far, deg - 1, 1)[0].size)
        r = ranks[start:start + cap]
        r = r[(t.degrees[r] == deg) & (reach[r] == far)]
        # bins of row i of a group start 2 * (its width) * i floats further
        shift = (2 * t.offsets[far + 1]) * np.arange(r.size)[:, None]
        parents, var = pos[t.parent_rank[r]], t.parent_var[r]
        for a in (parents, var, shift):
            a.setflags(write=False)
        groups.append((start, parents, var, shift, deg, far))
        start += r.size
    return pos, ranks.size, linear, tuple(groups)


def _power_rows(t: _Tables, gc: np.ndarray, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Powers g^I for the monomials `rows` and every monomial on their parent chains.

    gc holds the coefficient block of g cut to t.order.  Returns (pos, table):
    table[pos[r]] is the coefficient row of g^{indices[r]} for every rank r in
    the parent closure of `rows`, and pos is -1 elsewhere.  The rows of
    `rows` are complete; every other row holds its coefficients only through
    its reach (see _power_plan), which is all its children read, and is
    undefined past it.  Each power is a truncated product of its parent's
    power and a coordinate of g, and the rows of one group share one
    product and one bincount, so the cost follows the closure of `rows` and
    how far each row is read, not the number of monomials.
    """
    pos, size, linear, groups = _power_plan(t.q, t.order,
                                            np.asarray(rows, dtype=np.int64).tobytes())
    table = np.empty((size, gc.shape[1]), dtype=complex)
    table[:linear.size] = gc[linear]
    for start, parents, var, shift, deg, reach in groups:
        ri, rj, bins = _mul_plan(t.q, reach, deg - 1, 1)
        width = t.offsets[reach + 1]
        m = parents.size
        if m == 1:
            prod = table[parents[0]][ri] * gc[var[0]][rj]
        else:
            # the group's triples row by row, each row's bins shifted past
            # the rows before it (out of place: numpy's in-place complex
            # product rounds a one-element array differently)
            prod = (np.take(np.take(table, parents, axis=0), ri, axis=1)
                    * np.take(np.take(gc, var, axis=0), rj, axis=1))
            bins = (shift + bins).reshape(-1)
        sums = np.bincount(bins, weights=prod.view(float).reshape(-1), minlength=2 * width * m)
        table[start:start + m, :width] = sums.view(complex).reshape(m, width)
    return pos, table


def _support(fc: np.ndarray) -> np.ndarray:
    """Ranks of the monomials a coefficient block uses."""
    # rank 0 is the constant monomial, which never has a power row
    return (fc[:, 1:] != 0).any(axis=0).nonzero()[0] + 1


def _substitute(fc: np.ndarray, support: np.ndarray, pos: np.ndarray,
                table: np.ndarray) -> np.ndarray:
    """f o g from f's block and a power table of g (see _power_rows).

    The table may run past f's order: its rows are cut to f's columns.
    Invariant: every coefficient of a power row is the sum, from 0.0, of
    its products in _mul_table order, whatever the plan's order, a row's
    reach or the group it is filled in.  _mul_plan keeps each output's
    triples in that order at every order, and bincount adds them in that
    order, bin by bin.  So a row computed at a higher order and cut to
    degree <= d equals, bit for bit, the row computed at order d: PowerTable
    reuse and the truncated rows of _power_plan both rely on it.
    """
    return fc[:, support] @ table[pos[support], :fc.shape[1]]


def _compose_arrays(q: int, order: int, fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Core composition on raw coefficient blocks already cut to `order`."""
    support = _support(fc)
    if support.size == 0:
        return np.zeros(fc.shape, dtype=complex)
    pos, table = _power_rows(_tables(q, order), gc, support)
    return _substitute(fc, support, pos, table)


def compose(f: PolyJet, g: PolyJet, order: int | None = None) -> PolyJet:
    """Jet of f o g, exact through min(order, f.order, g.order).

    Both maps fix the origin, so a degree-d monomial of f only feeds degrees
    >= d of the composition; the result order is the largest one at which no
    unknown coefficient of either input can contribute.
    """
    if f.q != g.q:
        raise ValueError(f"dimension mismatch: {f.q} vs {g.q}")
    n = min(f.order, g.order)
    if order is not None:
        n = min(n, order)
    k = _tables(f.q, n).count
    return PolyJet(f.q, n, _compose_arrays(f.q, n, f.coeffs[:, :k], g.coeffs[:, :k]))


class PowerTable:
    """Every power g^I of one jet g through its order, built once.

    Composing many outer maps with the same inner map g repeats g's power
    table, the part of a composition that grows with the order.
    `table.compose(f, order)` reads the rows from here and equals
    `compose(f, g, order)` bit for bit.
    """

    __slots__ = ("q", "order", "pos", "table")

    def __init__(self, g: PolyJet):
        t = g.tables
        self.q = g.q
        self.order = g.order
        self.pos, self.table = _power_rows(t, g.coeffs, np.arange(1, t.count))

    def compose(self, f: PolyJet, order: int | None = None) -> PolyJet:
        """Jet of f o g through min(order, f.order, g.order)."""
        if f.q != self.q:
            raise ValueError(f"dimension mismatch: {f.q} vs {self.q}")
        n = min(f.order, self.order)
        if order is not None:
            n = min(n, order)
        fc = f.coeffs[:, :_tables(f.q, n).count]
        return PolyJet(f.q, n, _substitute(fc, _support(fc), self.pos, self.table))


def invert(f: PolyJet, order: int | None = None) -> PolyJet:
    """Compositional inverse g with f o g = id through the truncation order.

    Solved degree by degree: the degree-d block of f o g depends on g only
    through degrees < d apart from the linear term, so
    G_d = -L^{-1} [f o g_{<d}]_d with L the linear part of f.
    """
    n = f.order if order is None else min(order, f.order)
    L = f.linear_matrix
    cond = np.linalg.cond(L)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError("linear part is singular or numerically singular; jet is not invertible")
    Linv = np.linalg.inv(L)
    t = _tables(f.q, n)
    g = np.zeros((f.q, t.count), dtype=complex)
    g[:, 1:1 + f.q] = Linv
    fc = f.coeffs[:, :t.count]
    for d in range(2, n + 1):
        td = _tables(f.q, d)
        h = _compose_arrays(f.q, d, fc[:, :td.count], g[:, :td.count])
        blk = slice(td.offsets[d], td.offsets[d + 1])
        g[:, blk] = -Linv @ h[:, blk]
    return PolyJet(f.q, n, g)


# ---------------------------------------------------------------------- #
# triangular structure


def triangular_violations(f: PolyJet, tol: float = 0.0) -> list[tuple[int, MultiIndex]]:
    """Coefficients breaking the triangular shape.

    Component j may carry its own diagonal monomial z_j and otherwise only
    monomials in the strictly earlier variables z_0 .. z_{j-1}.
    """
    bad = []
    for j, I, c in f.nonzero_terms():
        if abs(c) <= tol:
            continue
        diagonal = sum(I) == 1 and I[j] == 1
        earlier_only = all(I[m] == 0 for m in range(j, f.q))
        if not (diagonal or earlier_only):
            bad.append((j, I))
    return bad


def is_triangular(f: PolyJet, tol: float = 0.0) -> bool:
    return not triangular_violations(f, tol)


def _triangular_plan(f: PolyJet) -> tuple[int, tuple, tuple, np.ndarray, bool]:
    """Forward-substitution plan of a triangular jet, built once per jet.

    Returns (slots, terms, fills, lam, singular), where slots counts the
    monomial values kept and slot 0 holds the constant monomial.  terms[j]
    lists (slot, coefficient) for the monomials component j reads, in
    ascending rank, without its diagonal z_j and without monomials in a
    variable not yet solved (those read zero).  fills[j] lists (slot, parent
    slot, variable) for the monomials to compute once z_j is known: the
    parent closure of every term, grouped by its highest variable, in
    ascending rank so parents come first.  lam is the diagonal of the linear
    part, and singular says whether any of its entries vanishes.
    """
    t = f.tables
    q = f.q
    top = [max((k for k, e in enumerate(I) if e), default=-1) for I in t.indices]
    reads = [[r for r in np.flatnonzero(f.coeffs[j]) if top[r] < j] for j in range(q)]
    need = np.zeros(t.count, dtype=bool)
    for rows in reads:
        need[rows] = True
    for d in range(t.order, 1, -1):
        lo, hi = t.offsets[d], t.offsets[d + 1]
        need[t.parent_rank[lo:hi][need[lo:hi]]] = True
    need[0] = True
    ranks = np.flatnonzero(need)
    slot = {int(r): i for i, r in enumerate(ranks)}
    terms = tuple(tuple((slot[int(r)], f.coeffs[j, r]) for r in rows)
                  for j, rows in enumerate(reads))
    fills = tuple(
        tuple((slot[int(r)], slot[int(t.parent_rank[r])], int(t.parent_var[r]))
              for r in ranks[1:] if top[r] == j)
        for j in range(q))
    lam = np.diagonal(f.coeffs[:, 1:1 + q]).copy()
    return ranks.size, terms, fills, lam, bool(np.any(np.abs(lam) == 0))


def evaluate_triangular_inverse_many(f: PolyJet, w: np.ndarray) -> np.ndarray:
    """Solve f(z) = w columnwise for a triangular jet, w of shape (q, m).

    Component j reads lambda_j z_j + t_j(z_0..z_{j-1}) = w_j, so the z_j are
    recovered in order without constructing the inverse polynomial.  Each
    monomial value the components read is computed once, right after its
    highest variable is solved, from its parent as in _monomial_values.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != f.q:
        raise ValueError(f"w must have shape ({f.q}, m)")
    slots, terms, fills, lam, singular = f.triangular_plan
    if singular:
        raise ValueError("triangular jet with vanishing diagonal is not invertible")
    m = w.shape[1]
    z = np.zeros((f.q, m), dtype=complex)
    vals = np.empty((slots, m), dtype=complex)
    vals[0] = 1.0
    for j in range(f.q):
        acc = np.zeros(m, dtype=complex)
        for i, c in terms[j]:
            acc += c * vals[i]
        z[j] = (w[j] - acc) / lam[j]
        for i, parent, var in fills[j]:
            vals[i] = vals[parent] * z[var]
    return z


def majorant_bound(f: PolyJet, radius: float, *, skip_linear: bool = False) -> float:
    """Upper bound for the euclidean norm of f on the closed `radius`-ball.

    Uses sum(|c_{j,I}|) per component and degree: |z^I| <= |z|^|I| on the
    euclidean ball, and the component sums are combined in l2.
    """
    t = f.tables
    lo = 2 if skip_linear else 1
    per_component = np.zeros(f.q)
    for d in range(lo, f.order + 1):
        blk = np.abs(f.coeffs[:, t.offsets[d]:t.offsets[d + 1]]).sum(axis=1)
        per_component += blk * radius ** d
    return float(np.linalg.norm(per_component))


def gradient_bound_matrix(f: PolyJet, radius: float) -> np.ndarray:
    """Entrywise bound for the Jacobian of f on the closed polydisc of `radius`.

    Entry (j, k) dominates |d f_j / d z_k| there; the spectral norm of the
    returned nonnegative matrix dominates the euclidean Lipschitz constant.
    """
    return _gradient_bounds(f.coeffs, f.tables, radius)


def _gradient_bounds(coeffs: np.ndarray, t: _Tables, radius: float) -> np.ndarray:
    """gradient_bound_matrix of every coefficient block in a (..., q, count)
    stack, as a (..., q, q) stack; each block's bound is the one jet's."""
    c = coeffs[..., 1:]
    e = t.exponents[1:]
    # the terms |c| e r^(d-1) as the term loop forms them: np.hypot rounds
    # like abs(complex), and the powers are Python's own
    powers = np.array([radius ** (d - 1) for d in t.degrees[1:].tolist()])
    terms = np.hypot(c.real, c.imag)[..., None] * e * powers[:, None]
    terms = np.where((c != 0)[..., None] & (e > 0), terms, 0.0)
    # accumulate sums in rank order, as the loop does (reduce sums pairwise)
    return np.add.accumulate(terms, axis=-2)[..., -1, :]
