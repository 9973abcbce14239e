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
breakpoints so each Runge-Kutta step sees smooth data.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .homological import TAIL_CONSTANT
from .jets import PolyJet, compose, invert
from .normal_form import (
    ConjugacyResult,
    DiscreteEvolutionFamily,
    UnivalenceReport,
    _with_linear,
    _smallest_ell,
    build_normal_form,
    discrete_chain,
    jacobian_points,
    univalence_check,
)
from .sampling import complex_ball_points
from .spectral import (OptimalForm, PreconditionError, ResonanceReport, operator_norm,
                       to_optimal_form)

__all__ = [
    "PreconditionError",
    "TimeCoefficient",
    "HerglotzFieldSpec",
    "integrate_jet",
    "integrate_points",
    "ContinuousEvolution",
    "DiscretizedField",
    "discretize",
    "LoewnerChain",
    "build_chain",
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


def complex_from_json(data) -> complex:
    if isinstance(data, Mapping):
        return complex(float(data.get("re", 0.0)), float(data.get("im", 0.0)))
    if isinstance(data, (list, tuple)) and len(data) == 2:
        return complex(float(data[0]), float(data[1]))
    return complex(data)


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

    def bound(self) -> float:
        return max(abs(v) for v in self.values)

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
        if not float(self.horizon) > 0.0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def q(self) -> int:
        return self.Lambda.shape[0]

    @property
    def abscissa(self) -> float:
        """Largest real part in the spectrum of Lambda (negative)."""
        return float(np.linalg.eigvals(self.Lambda).real.max())

    def breakpoints(self) -> tuple[float, ...]:
        pts: set[float] = set()
        for _, _, coeff in self.terms:
            pts.update(coeff.breakpoints())
        return tuple(sorted(pts))

    def jet(self, t: float, order: int | None = None) -> PolyJet:
        """Jet of z -> H(z, t); terms above the requested order are dropped."""
        order = self.order if order is None else int(order)
        jet = PolyJet.from_linear(self.Lambda, order)
        sparse: dict[tuple[int, tuple[int, ...]], complex] = {}
        for j, index, coeff in self.terms:
            if sum(index) <= order:
                key = (j, index)
                sparse[key] = sparse.get(key, 0.0) + coeff(t)
        if sparse:
            jet = jet + PolyJet.from_terms(self.q, order, sparse)
        return jet

    def values(self, t: float, points: np.ndarray, _per_sample: bool = False) -> np.ndarray:
        """H(z, t) at the columns of points, exactly (no truncation).

        With _per_sample the linear term is one matrix-vector product per
        column, so each column gets the floats it gets evaluated alone; one
        matrix-matrix product rounds a column differently depending on how
        many columns share the call.
        """
        pts = np.asarray(points, dtype=complex)
        if _per_sample:
            vals = np.matmul(self.Lambda, pts.T[:, :, None])[:, :, 0].T
        else:
            vals = self.Lambda @ pts
        for j, index, coeff in self.terms:
            mono = np.ones(pts.shape[1], dtype=complex)
            for i, e in enumerate(index):
                if e:
                    mono = mono * pts[i] ** e
            vals[j] += coeff(t) * mono
        return vals

    def jacobians(self, t: float, points: np.ndarray) -> np.ndarray:
        """D_z H(z, t) at the columns of points, shape (m, q, q)."""
        pts = np.asarray(points, dtype=complex)
        q, m = pts.shape
        jac = np.tile(np.asarray(self.Lambda), (m, 1, 1))
        for j, index, coeff in self.terms:
            c = coeff(t)
            for i, e in enumerate(index):
                if not e:
                    continue
                mono = np.full(m, e * c, dtype=complex)
                for k, ek in enumerate(index):
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


# --------------------------------------------------------------------- #
# transition integrators

# relative tolerance of point and variational trajectories (step doubling)
TRAJECTORY_TOL = 1e-11


def _segments(field: HerglotzFieldSpec, s: float, t: float) -> list[tuple[float, float]]:
    cuts = [s] + [b for b in field.breakpoints() if s < b < t] + [t]
    return list(zip(cuts, cuts[1:]))


def _initial_steps(s: float, t: float) -> int:
    return max(12, int(math.ceil(6.0 * (t - s))))


def _rk4(field: HerglotzFieldSpec, s: float, t: float, state: tuple,
         rhs, nsteps: int) -> tuple:
    """Fixed-grid RK4 for x' = rhs(tau, x) from x(s) = state to time t.

    The state is a tuple of parts (jets or arrays) that support + and
    scalar *, and rhs returns one derivative per part.  Steps are
    distributed over the breakpoint segments proportionally to length;
    inside a segment the stage times are capped just below the right
    endpoint so right-open piecewise schedules never leak the next value in.
    """
    x = state
    span = t - s
    for a, b in _segments(field, s, t):
        n = max(1, int(round(nsteps * (b - a) / span)))
        h = (b - a) / n
        cap = b - 1e-12 * max(1.0, abs(b))
        for i in range(n):
            t0 = a + i * h
            k1 = rhs(min(t0, cap), x)
            k2 = rhs(min(t0 + h / 2.0, cap),
                     tuple(xp + kp * (h / 2.0) for xp, kp in zip(x, k1)))
            k3 = rhs(min(t0 + h / 2.0, cap),
                     tuple(xp + kp * (h / 2.0) for xp, kp in zip(x, k2)))
            k4 = rhs(min(t0 + h, cap), tuple(xp + kp * h for xp, kp in zip(x, k3)))
            x = tuple(xp + (p1 + p2 * 2.0 + p3 * 2.0 + p4) * (h / 6.0)
                      for xp, p1, p2, p3, p4 in zip(x, k1, k2, k3, k4))
    return x


def integrate_jet(field: HerglotzFieldSpec, s: float, t: float,
                  order: int | None = None, tol: float = 1e-10,
                  max_nsteps: int = 1 << 17) -> PolyJet:
    """Jet of the transition map phi_{s,t} of the field, s <= t.

    The step count is refined until the map integrated over [s, t] in one go
    agrees with the composition of the two half-interval maps to within tol
    (relative, on coefficients).  Raises when the budget of max_nsteps steps
    cannot reach the tolerance.
    """
    order = field.order if order is None else int(order)
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    if t == s:
        return PolyJet.identity(field.q, order)
    identity = (PolyJet.identity(field.q, order),)

    def rhs(tau, x):
        return (compose(field.jet(tau, order), x[0], order),)

    nsteps = _initial_steps(s, t)
    while True:
        (full,) = _rk4(field, s, t, identity, rhs, nsteps)
        mid = 0.5 * (s + t)
        # each half gets the full step count, so the composed map runs at
        # half the step size and the residual measures the actual error
        (left,) = _rk4(field, s, mid, identity, rhs, nsteps)
        (right,) = _rk4(field, mid, t, identity, rhs, nsteps)
        split = compose(right, left, order)
        res = (full - split).max_coeff / max(1.0, split.max_coeff)
        if res <= tol:
            return split
        if 2 * nsteps > max_nsteps:
            raise ValueError(
                f"step refinement exhausted at {nsteps} steps; "
                f"split residual {res:.3e} exceeds tol {tol:.1e}"
            )
        # quartic local error: jump most of the way, then verify again
        factor = max(2.0, min(16.0, (res / tol) ** 0.25))
        nsteps = min(max_nsteps, int(math.ceil(nsteps * factor)))


def _sample_max(parts: Sequence[np.ndarray], axes: tuple, start=None) -> np.ndarray:
    """Largest modulus of each sample over all parts.

    A part's sample axis of None makes the whole part one sample.  Parts
    combine like the builtin max (a later part wins only if strictly
    larger), starting from start when given.
    """
    best = start
    for p, ax in zip(parts, axes):
        mag = np.abs(p)
        rows = mag.reshape(1, -1) if ax is None else np.moveaxis(mag, ax, 0).reshape(
            p.shape[ax], -1)
        v = rows.max(axis=1)
        best = v if best is None else np.where(v > best, v, best)
    return best


def _rk4_doubling(field: HerglotzFieldSpec, s: float, t: float, state: tuple,
                  rhs, tol: float, max_nsteps: int, axes: tuple | None = None) -> tuple:
    """RK4 with the step count doubled until two successive runs agree.

    Agreement is the largest entrywise difference, relative to max(1,
    largest entry of the finer run).  By default it is measured over all
    parts at once.  axes names each part's sample axis; then each sample is
    measured over its own entries and accepted on its own, and the next
    doubling re-integrates only the samples still open.  With an rhs that
    treats samples independently, every sample gets the floats it would
    get integrated alone.
    """
    if axes is None:
        axes = (None,) * len(state)
        count = 1
    else:
        count = state[0].shape[axes[0]]
    open_ = np.arange(count)
    result = None
    nsteps = _initial_steps(s, t)
    prev = _rk4(field, s, t, state, rhs, nsteps)
    while True:
        if 2 * nsteps > max_nsteps:
            raise ValueError(
                f"trajectory integration failed to reach the tolerance "
                f"within {max_nsteps} steps")
        nsteps *= 2
        cur = _rk4(field, s, t, state, rhs, nsteps)
        err = _sample_max([c - p for c, p in zip(cur, prev)], axes)
        scale = _sample_max(cur, axes, start=1.0)
        done = err <= tol * scale
        if not done.any():
            prev = cur
            continue
        if result is None and done.all():
            return cur
        if result is None:
            result = tuple(np.empty_like(c) for c in cur)
        for r, c, ax in zip(result, cur, axes):
            np.moveaxis(r, ax, 0)[open_[done]] = np.moveaxis(c, ax, 0)[done]
        if done.all():
            return result
        keep = ~done
        open_ = open_[keep]
        state = tuple(np.compress(keep, x, axis=ax) for x, ax in zip(state, axes))
        prev = tuple(np.compress(keep, c, axis=ax) for c, ax in zip(cur, axes))


def integrate_variational(field: HerglotzFieldSpec, s: float, t: float,
                          points: np.ndarray, tol: float = TRAJECTORY_TOL,
                          max_nsteps: int = 1 << 18, *,
                          _per_sample: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """phi_{s,t} and D phi_{s,t} at the columns of points.

    The Jacobian factors solve M' = DH(z(tau), tau) M along each trajectory,
    started at the identity.  _per_sample gives each column its own step
    control and batch-invariant kernels (see _rk4_doubling).
    """
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    pts = np.asarray(points, dtype=complex)
    q, m = pts.shape
    M = np.tile(np.eye(q, dtype=complex), (m, 1, 1))
    if t == s or m == 0:
        return np.array(pts), M

    def rhs(tau, x):
        z, Mc = x
        dz = field.values(tau, z, _per_sample)
        J = field.jacobians(tau, z)
        if _per_sample:
            return dz, np.stack([np.einsum("ij,jk->ik", Ji, Mi) for Ji, Mi in zip(J, Mc)])
        return dz, np.einsum("mij,mjk->mik", J, Mc)

    return _rk4_doubling(field, s, t, (pts, M), rhs, tol, max_nsteps,
                         (1, 0) if _per_sample else None)


def integrate_points(field: HerglotzFieldSpec, s: float, t: float,
                     points: np.ndarray, tol: float = TRAJECTORY_TOL,
                     max_nsteps: int = 1 << 18, *, _per_sample: bool = False) -> np.ndarray:
    """Trajectories z(t) of dz/dtau = H(z, tau) with z(s) = columns of points.

    _per_sample gives each column its own step control and batch-invariant
    kernels (see _rk4_doubling).
    """
    s, t = float(s), float(t)
    if t < s:
        raise ValueError("reversed time interval")
    pts = np.asarray(points, dtype=complex)
    single = pts.ndim == 1
    if single:
        pts = pts[:, None]
    if t == s or pts.shape[1] == 0:
        return pts[:, 0] if single else np.array(pts)
    (cur,) = _rk4_doubling(field, s, t, (pts,),
                           lambda tau, x: (field.values(tau, x[0], _per_sample),),
                           tol, max_nsteps, (1,) if _per_sample else None)
    return cur[:, 0] if single else cur


@dataclass(frozen=True)
class ContinuousEvolution:
    """Transition maps of a field, as cached jets and on-demand trajectories.

    The owner of every transition jet a command computes: each distinct
    interval is integrated once and kept for the life of the evolution, so
    the cache holds at most one jet per distinct interval of one command.
    For a field without breakpoints (every coefficient constant) the map
    depends on the interval only through t - s, and integrate_jet reads
    exactly the floats t - s, mid - s and t - mid with mid = (s + t) / 2;
    keying by those makes a hit bit-identical to a fresh integration.
    Other fields key by (s, t).
    """

    field: HerglotzFieldSpec
    order: int
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "_jets", {})
        object.__setattr__(self, "_autonomous", not self.field.breakpoints())

    def _key(self, s: float, t: float) -> tuple:
        if not self._autonomous:
            return (s, t)
        mid = 0.5 * (s + t)
        return (t - s, mid - s, t - mid)

    def jet(self, s: float, t: float) -> PolyJet:
        s, t = float(s), float(t)
        key = self._key(s, t)
        cache = self._jets
        if key not in cache:
            cache[key] = integrate_jet(self.field, s, t, self.order, self.tol)
        return cache[key]

    def point(self, s: float, t: float, points: np.ndarray, *,
              _per_sample: bool = False) -> np.ndarray:
        return integrate_points(self.field, s, t, points, tol=min(self.tol, TRAJECTORY_TOL),
                                _per_sample=_per_sample)


# --------------------------------------------------------------------- #
# discretization at integer times

@dataclass(frozen=True)
class DiscretizedField:
    """Unit-step jets of a field, conjugated into optimal linear coordinates.

    family steps are psi_n = M o phi_{n,n+1} o M^{-1} with M the optimal
    basis change of exp(Lambda); the linear block of every step is snapped to
    the optimal matrix exactly, higher orders keep the integrated values.
    """

    family: DiscreteEvolutionFamily
    optimal: OptimalForm
    exp_linear: np.ndarray
    step_tol: float

    @property
    def q(self) -> int:
        return self.family.linear_part.shape[0]


def discretize(field: HerglotzFieldSpec, horizon: int | None = None,
               order: int | None = None, tol: float = 1e-10,
               tail: str = TAIL_CONSTANT) -> DiscretizedField:
    """Integer-time snapshots psi_n of the evolution family, ready to normalize."""
    T = int(math.ceil(field.horizon)) if horizon is None else int(horizon)
    if T < 1:
        raise ValueError("horizon must cover at least one unit step")
    order = field.order if order is None else int(order)
    expL = expm(field.Lambda)
    opt = to_optimal_form(expL)
    A = opt.matrix
    Mj = PolyJet.from_linear(opt.basis_change, order)
    Mij = PolyJet.from_linear(opt.basis_change_inverse, order)
    evolution = ContinuousEvolution(field, order, tol)
    steps = []
    for n in range(T):
        J = evolution.jet(n, n + 1)
        psi = compose(Mj, compose(J, Mij, order), order)
        steps.append(_with_linear(psi, A))
    family = DiscreteEvolutionFamily(A, tuple(steps), tail=tail)
    return DiscretizedField(family, opt, expL, tol)


# --------------------------------------------------------------------- #
# the chain

# a chain time up to this far above an integer n is read as n itself, so
# roundoff above a grid point never asks for a backwards flow
ANCHOR_SLACK = 1e-12


@dataclass(frozen=True)
class LoewnerChain:
    """Chain f_t with f_s = f_t o phi_{s,t} and linear part exp(-Lambda t).

    chain_jets hold f_n at integer times in the original coordinates;
    non-integer times anchor at a = ceil(t) through f_t = f_a o phi_{t,a}.
    radius is the validity ball (points must stay inside the window where
    the normalizing construction converges once pushed to their anchor).
    certificate, when present, bounds sup_t sup_{|z|<=0.95 radius}
    |exp(Lambda t) f_t(z)| over the build grid; it is attached only for
    resonance-free spectra.  result is the discrete normalization backing a
    freshly built chain; deserialized chains carry only the jets.
    """

    field: HerglotzFieldSpec
    horizon: int
    radius: float
    basis_change: np.ndarray
    chain_jets: tuple[PolyJet, ...]
    resonances: ResonanceReport
    certificate: float | None
    certificate_step: float
    step_tol: float
    constants: Mapping | None = None
    result: ConjugacyResult | None = None
    evolution: ContinuousEvolution | None = None

    def __post_init__(self):
        M = np.ascontiguousarray(np.asarray(self.basis_change, dtype=complex))
        M.setflags(write=False)
        object.__setattr__(self, "basis_change", M)
        object.__setattr__(self, "chain_jets", tuple(self.chain_jets))
        if self.horizon < 1:
            raise ValueError("horizon must cover at least one unit step")
        if len(self.chain_jets) != self.horizon + 1:
            raise ValueError("need one chain jet per integer time 0..horizon")
        for name in ("radius", "certificate_step", "step_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        # a NaN bound would pass every comparison of the normalization check
        if self.certificate is not None and not math.isfinite(self.certificate):
            raise ValueError(f"certificate must be finite, got {self.certificate}")
        if M.shape != (self.q, self.q):
            raise ValueError(f"basis_change must be {self.q}x{self.q}")
        order = self.chain_jets[0].order
        if any((j.q, j.order) != (self.q, order) for j in self.chain_jets):
            raise ValueError(f"every chain jet must have the field's dimension "
                             f"q={self.q} and one common order")
        if self.evolution is None:
            object.__setattr__(
                self, "evolution",
                ContinuousEvolution(self.field, order, self.step_tol))

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
        j = self.jet(t)
        return compose(PolyJet.from_linear(expm(t * self.field.Lambda), j.order), j, j.order)

    def evaluate(self, t: float, points: np.ndarray) -> np.ndarray:
        """f_t at the columns of points inside the validity ball."""
        pts = np.asarray(points, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts[:, None]
        norms = np.sqrt(np.abs(pts * pts.conj()).sum(axis=0).real)
        if norms.size and norms.max() > self.radius * (1.0 + 1e-9):
            raise ValueError(
                f"point norm {norms.max():.6g} outside the validity radius "
                f"{self.radius:.6g}")
        a = self.anchor(t)
        w = pts if t >= a else self.evolution.point(t, a, pts)
        out = self._at_anchor(a, w)
        return out[:, 0] if single else out

    def _at_anchor(self, a: int, w: np.ndarray) -> np.ndarray:
        """f_a at already-pushed points; no validity gate (internal use)."""
        if self.result is not None:
            M = self.basis_change
            return np.linalg.solve(M, self.result.chain_point(a, M @ w))
        return self.chain_jets[a].evaluate_many(w)

    def to_json_dict(self) -> dict:
        return {
            "schema": "loewner-chain/1",
            "q": self.q,
            "order": self.order,
            "horizon": self.horizon,
            "radius": self.radius,
            "certificate": self.certificate,
            "certificate_step": self.certificate_step,
            "step_tol": self.step_tol,
            "field": self.field.to_json_dict(),
            "basis_change": matrix_to_json(self.basis_change),
            "resonances": self.resonances.to_json_dict(),
            "constants": dict(self.constants) if self.constants is not None else None,
            "jets": [j.to_json_dict() for j in self.chain_jets],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "LoewnerChain":
        schema = data.get("schema", "loewner-chain/1")
        if not str(schema).startswith("loewner-chain/"):
            raise ValueError(f"not a chain document (schema {schema!r})")
        field = HerglotzFieldSpec.from_json_dict(data["field"])
        jets = tuple(PolyJet.from_json_dict(j) for j in data["jets"])
        res = data.get("resonances") or {}
        report = ResonanceReport(
            mode=res.get("mode", "multiplicative"),
            tolerance=float(res.get("tolerance", 1e-9)),
            p=int(res.get("p", 2)),
            resonances=tuple(
                (int(e["component"]) - 1, tuple(int(x) for x in e["index"]))
                for e in res.get("resonances", ())
            ),
        )
        return LoewnerChain(
            field=field,
            horizon=int(data["horizon"]),
            radius=float(data["radius"]),
            basis_change=matrix_from_json(data["basis_change"]),
            chain_jets=jets,
            resonances=report,
            certificate=None if data.get("certificate") is None else float(data["certificate"]),
            certificate_step=float(data.get("certificate_step", 1.0)),
            step_tol=float(data.get("step_tol", 1e-10)),
            constants=data.get("constants"),
        )


def _transient_growth(Lambda: np.ndarray) -> float:
    """Largest operator norm of exp(tau Lambda) over one unit of time."""
    worst = 1.0
    for tau in np.linspace(0.0, 1.0, 9):
        worst = max(worst, operator_norm(expm(tau * Lambda)))
    return worst


def _normalized_sup(chain: LoewnerChain, ts: Sequence[float],
                    points: np.ndarray) -> float:
    worst = 0.0
    for t in ts:
        vals = expm(t * chain.field.Lambda) @ chain.evaluate(t, points)
        worst = max(worst, float(np.sqrt((vals * vals.conj()).real.sum(axis=0)).max()))
    return worst


def build_chain(field: HerglotzFieldSpec, horizon: int | None = None,
                order: int | None = None, tol: float = 1e-10, tau: float = 1e-9,
                grid_step: float = 0.5, ball_samples: int = 16,
                max_passes: int = 3) -> LoewnerChain:
    """Normalize the evolution family of the field into a Loewner chain.

    The field is discretized at integer times, the discrete family is brought
    to normal form, and the chain maps are pulled back to the original
    coordinates.  Discretization and normalization must agree on the jet
    order: the working order depends on constants measured from the
    normalized data, so the estimate is refined and the family rebuilt until
    the jets carry true flow coefficients at every order the normalization
    touches.  A sup bound for the normalized maps on the validity ball is
    attached only when the spectrum is resonance-free.
    """
    T = int(math.ceil(field.horizon)) if horizon is None else int(horizon)
    if T < 1:
        raise ValueError("horizon must cover at least one unit step")
    base_order = max(2, field.order if order is None else int(order))
    opt0 = to_optimal_form(expm(field.Lambda))
    alpha0 = 0.5 * (opt0.norm_bound + 1.0)
    beta0 = float(np.abs(np.linalg.inv(opt0.matrix)).sum(axis=1).max())
    jet_order = max(base_order, _smallest_ell(alpha0, beta0))
    disc = result = None
    for _ in range(max_passes):
        disc = discretize(field, T, jet_order, tol)
        result = build_normal_form(disc.family, order=base_order, horizon=T, tau=tau)
        if result.work_order <= jet_order:
            break
        jet_order = result.work_order
    else:
        raise RuntimeError("jet order failed to stabilize across rebuild passes")

    discrete = discrete_chain(result, T)
    W = discrete[0].order
    M = disc.optimal.basis_change
    Mj = PolyJet.from_linear(M, W)
    Mij = PolyJet.from_linear(disc.optimal.basis_change_inverse, W)
    jets = tuple(compose(Mij, compose(fj, Mj, W), W) for fj in discrete)

    growth = _transient_growth(field.Lambda)
    radius = 0.4 * result.constants.r / (operator_norm(M) * growth)
    chain = LoewnerChain(
        field=field,
        horizon=T,
        radius=radius,
        basis_change=M,
        chain_jets=jets,
        resonances=result.resonance_report,
        certificate=None,
        certificate_step=float(grid_step),
        step_tol=tol,
        constants=result.constants.as_dict(),
        result=result,
        evolution=ContinuousEvolution(field, W, tol),
    )
    if not result.resonance_report.resonances:
        ts = [k * grid_step for k in range(int(math.floor(T / grid_step)) + 1)]
        if ts[-1] < T:
            ts.append(float(T))
        pts = complex_ball_points(field.q, 0.95 * radius, ball_samples)
        sup = _normalized_sup(chain, ts, pts)
        chain = dataclasses.replace(chain, certificate=1.25 * sup)
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


def pde_residual(chain: LoewnerChain, samples: Sequence[tuple[float, np.ndarray]],
                 h: float = 1e-3, field: HerglotzFieldSpec | None = None) -> float:
    """Largest |d/dt f_t(z) + Df_t(z) H(z, t)| over the (t, z) samples.

    The time derivative is a difference quotient of f_s = f_a o phi_{s,a}
    with every evaluation anchored at the same integer time a (the ceiling
    of the latest quotient time), so it differentiates a single smooth map.
    It is the central difference t -+ h, second order in h, unless a node
    of the chain field's coefficient schedules lies strictly inside
    (t - h, t + h); then it is a second-order one-sided quotient that stays
    on t's side of the node (_difference_stencil).  Samples sharing a time t
    share their integrations: one point batch per quotient time and one
    variational batch t -> a, each column under its own step control, so
    each sample gets the floats it would get integrated alone.
    Requires t - h >= 0 and t + h <= horizon for every sample.
    """
    field = chain.field if field is None else field
    if h <= 0.0:
        raise ValueError("h must be positive")
    columns = []
    groups: dict[float, list[int]] = {}
    for i, (t, z) in enumerate(samples):
        t = float(t)
        if t - h < 0.0 or t + h > chain.horizon:
            raise ValueError(f"sample time {t} +- {h} leaves the window [0, {chain.horizon}]")
        columns.append(np.asarray(z, dtype=complex).reshape(-1))
        groups.setdefault(t, []).append(i)
    nodes = chain.field.breakpoints()
    residuals = [0.0] * len(columns)
    for t, members in groups.items():
        times, weights, k = _difference_stencil(nodes, t, h, chain.horizon)
        a = chain.anchor(max(times))
        z = np.stack([columns[i] for i in members], axis=1)
        # a quotient time within the anchor slack above a starts at a itself
        pushed = [chain.evolution.point(min(s, a), a, z, _per_sample=True)
                  for s in times]
        # Df_t(z) by the chain rule: exact polynomial Jacobian of the anchor
        # map at the pushed point times the variational factor of the flow
        w0, Dw0 = integrate_variational(field, min(t, a), a, z, _per_sample=True)
        anchor_jet = chain.chain_jets[a]
        for c, i in enumerate(members):
            terms = [w * anchor_jet.evaluate_many(p[:, [c]])[:, 0]
                     for w, p in zip(weights, pushed)]
            dfdt = sum(terms[1:], terms[0]) / (2.0 * k)
            Df = jacobian_points(anchor_jet, w0[:, [c]])[0] @ Dw0[c]
            Hz = field.values(t, columns[i][:, None])[:, 0]
            res = dfdt + Df @ Hz
            residuals[i] = float(np.sqrt((res * res.conj()).real.sum()))
    worst = 0.0
    for r in residuals:
        worst = max(worst, r)
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
UNIVALENCE_COLLISION = 1e-10   # image distance read as a collision
RADIUS_SLACK = 1e-12           # verification radius over the validity radius, relative


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


def verify_subordination_chain(chain, radius: float | None = None, *,
                               grid_step: float | None = None, samples: int = 12,
                               start: int = 0) -> SubordinationReport:
    """Check a chain document against its own field.

    Four checks run unconditionally and every failure is collected rather
    than raised: the linear part of f_t must match exp(-Lambda t); the
    transition maps psi_{s,t} = f_t^{-1} o f_s between consecutive grid times
    must keep the sample ball inside the validity ball and agree with the
    transition integrated from the field; the normalized maps
    exp(Lambda t) o f_t must stay within the declared sup bound when one is
    declared; and the normalized maps must be injective on the mirrored
    sample set with linear part tangent to the identity.
    """
    if isinstance(chain, Mapping):
        chain = LoewnerChain.from_json_dict(chain)
    R = chain.radius if radius is None else float(radius)
    if R > chain.radius * (1.0 + RADIUS_SLACK):
        raise ValueError("verification radius exceeds the chain validity radius")
    step = chain.certificate_step if grid_step is None else float(grid_step)
    ts = [k * step for k in range(int(math.floor(chain.horizon / step)) + 1)]
    if ts[-1] < chain.horizon:
        ts.append(float(chain.horizon))
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
        vals = psi.evaluate_many(pts)
        contain = max(contain, float(np.sqrt((vals * vals.conj()).real.sum(axis=0)).max()) / R)
        ref = chain.evolution.jet(s_, t_)
        match = max(match, (psi - ref).max_coeff / max(1.0, ref.max_coeff))
    if contain > 1.0 + CONTAINMENT_SLACK:
        failures.append("transition-containment")
    if match > FIELD_MATCH_TOL:
        failures.append("transition-field-match")

    normalized = [compose(PolyJet.from_linear(expm(t * L), W), jt, W)
                  for t, jt in zip(ts, jets_t)]
    sup = 0.0
    values = []
    for g in normalized:
        vals = g.evaluate_many(pts)
        values.append(vals)
        sup = max(sup, float(np.sqrt((vals * vals.conj()).real.sum(axis=0)).max()))
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


def attraction_check(family, points: np.ndarray, tol: float = 1e-6,
                     max_steps: int = 4096, start: int = 0) -> AttractionReport:
    """Iterate the evolution family on sample points until they reach the tol ball.

    Accepts a DiscreteEvolutionFamily or a DiscretizedField.  Orbits that are
    still outside the ball after max_steps are reported as not converged; the
    family tail keeps the iteration defined past the stored window.
    """
    if isinstance(family, DiscretizedField):
        family = family.family
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
