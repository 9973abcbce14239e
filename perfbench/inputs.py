"""Seeded input documents for the benchmark workloads.

The generators use numpy only, never the package under test, so one seed
yields byte-identical documents on every commit and every machine; `digest`
gives the SHA-256 that lets two machines confirm it.

Every spectrum keeps a log-modulus gap of RESONANCE_GAP to each resonance
candidate through degree 7, apart from a planted resonance, which is exact.
Spectra are drawn from narrow bands so that inputs of one shape need the
same working order whatever the seed: the benchmark compares medians over
a few jobs, and a seed that moved a job from order 3 to order 4 would move
the median more than most changes to the code.
"""
from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

FIELD_ORDER = 3
FIELD_HORIZON = 3.0
FIELD_DECAY = (0.6, 0.72)         # -Re(lambda) of resonance-free fields: order 3
FIELD_COEFFICIENTS = (0.05, 0.2)  # moduli of the monomial coefficients
# a planted (a, 2a) pair and its z_1^2 coefficient, around the resonant
# example field a = log 0.4, c = 0.3; working order 6 in the whole box
# (at -Re a = 0.95 with |c| = 0.35 it becomes 7)
PLANTED_DECAY = (0.85, 0.92)
PLANTED_COEFFICIENT = (0.25, 0.32)
FAMILY_HORIZON = 4
FAMILY_SCALE = 0.3                # higher-order terms, as in the test suite
JITTER = 0.005                    # family moduli stay this close to nominal
RESONANCE_GAP = 0.05
GAP_DEGREE = 7
MAX_DRAWS = 1000


def dump(doc: dict) -> str:
    """The exact text a document is written with."""
    return json.dumps(doc, sort_keys=True)


def digest(doc: dict) -> str:
    return hashlib.sha256(dump(doc).encode()).hexdigest()


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _matrix(rows: np.ndarray) -> list:
    return [[_c(v) for v in row] for row in rows]


def _indices(q: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices of one degree, lexicographically descending."""
    if q == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1)
            for rest in _indices(q - 1, degree - e)]


def _unit(q: int, i: int, power: int) -> tuple[int, ...]:
    return tuple(power if k == i else 0 for k in range(q))


def _gap_ok(log_moduli: np.ndarray, planted: set) -> bool:
    """No (component, index) outside `planted` is within RESONANCE_GAP."""
    q = len(log_moduli)
    for d in range(2, GAP_DEGREE + 1):
        for index in _indices(q, d):
            s = float(np.dot(index, log_moduli))
            for j in range(q):
                if (j, index) not in planted and abs(log_moduli[j] - s) < RESONANCE_GAP:
                    return False
    return True


def _draw(make):
    """Redraw until `make` returns a spectrum; it returns None to reject."""
    for _ in range(MAX_DRAWS):
        got = make()
        if got is not None:
            return got
    raise ValueError("no spectrum with the required resonance gap in "
                     f"{MAX_DRAWS} draws")


# ---------------------------------------------------------------------- #
# fields


def _coefficient(rng, kind: str, moduli=FIELD_COEFFICIENTS) -> dict:
    def value():
        return rng.uniform(*moduli) * np.exp(2j * np.pi * rng.uniform())

    if kind == "constant":
        return {"kind": "constant", "value": _c(value())}
    # two nodes, each at least 0.1 from the integer grid and from each
    # other, so breakpoints split the unit steps
    times: list[float] = []
    while len(times) < 2:
        t = float(rng.uniform(0.0, FIELD_HORIZON))
        if abs(t - round(t)) >= 0.1 and all(abs(t - u) >= 0.1 for u in times):
            times.append(t)
    times.sort()
    return {"kind": kind, "times": times, "values": [_c(value()) for _ in times]}


def field_doc(rng, q: int, timevarying: bool = False, resonant: bool = False) -> dict:
    """A field document of order 3, horizon 3 and 2 + q monomials.

    Resonance-free spectra have -Re(lambda) in FIELD_DECAY, where no sum of
    two exponents can meet a third.  A resonant field has Lambda =
    diag(a, 2a, ...) and carries the z_1^2 term in the 2a component.  A
    time-varying field alternates "piecewise" and "sampled" coefficients.
    """
    if resonant and timevarying:
        raise ValueError("planted resonances are generated for autonomous fields only")
    planted = {(1, _unit(q, 0, 2))} if resonant else set()

    def spectrum():
        def exponent(band):
            return complex(-rng.uniform(*band), rng.uniform(-0.2, 0.2))

        if resonant:
            a = exponent(PLANTED_DECAY)
            lam = np.array([a, 2 * a] + [exponent(FIELD_DECAY) for _ in range(q - 2)])
        else:
            lam = np.array([exponent(FIELD_DECAY) for _ in range(q)])
        return lam if _gap_ok(lam.real, planted) else None

    lam = _draw(spectrum)
    monomials = [index for d in range(2, FIELD_ORDER + 1) for index in _indices(q, d)]
    chosen = sorted(planted)
    while len(chosen) < 2 + q:
        pick = (int(rng.integers(q)), monomials[int(rng.integers(len(monomials)))])
        if pick not in chosen:
            chosen.append(pick)
    terms = []
    for n, (j, index) in enumerate(chosen):
        kind = ("piecewise", "sampled")[n % 2] if timevarying else "constant"
        moduli = PLANTED_COEFFICIENT if (j, index) in planted else FIELD_COEFFICIENTS
        terms.append({"component": j + 1, "index": list(index),
                      "time": _coefficient(rng, kind, moduli)})
    return {"Lambda": _matrix(np.diag(lam)), "order": FIELD_ORDER,
            "terms": terms, "horizon": FIELD_HORIZON}


# ---------------------------------------------------------------------- #
# discrete families


def family_doc(rng, q: int, degree: int, nominal, resonant: bool = False) -> dict:
    """A discrete family in optimal form with FAMILY_HORIZON steps.

    The linear part is diagonal with moduli within JITTER of `nominal`
    (nonincreasing) and random phases; each step is A z plus dense random
    terms of degrees 2..degree.  A resonant family sets lambda_3 =
    lambda_2^2 exactly, below the largest modulus lambda_1.
    """
    nominal = np.asarray(nominal, dtype=float)
    if len(nominal) != q or np.any(np.diff(nominal) >= 0):
        raise ValueError("need q strictly decreasing nominal moduli")
    if resonant and q < 3:
        raise ValueError("a planted family resonance needs q >= 3")
    planted = {(2, _unit(q, 1, 2))} if resonant else set()

    def spectrum():
        moduli = nominal + rng.uniform(-JITTER, JITTER, size=q)
        phases = np.exp(2j * np.pi * rng.uniform(size=q))
        if resonant:
            moduli[2], phases[2] = moduli[1] ** 2, phases[1] ** 2
        if np.any(np.diff(moduli) >= 0) or not _gap_ok(np.log(moduli), planted):
            return None
        return moduli * phases

    A = np.diag(_draw(spectrum))
    linear = [{"component": j + 1, "index": list(_unit(q, j, 1)),
               "re": float(A[j, j].real), "im": float(A[j, j].imag)} for j in range(q)]
    steps = []
    for _ in range(FAMILY_HORIZON):
        terms = list(linear)
        for d in range(2, degree + 1):
            idx = _indices(q, d)
            m = q * len(idx)
            vec = FAMILY_SCALE * (rng.normal(size=m) + 1j * rng.normal(size=m)) / m
            for (j, index), c in zip(itertools.product(range(q), idx), vec):
                terms.append({"component": j + 1, "index": list(index),
                              "re": float(c.real), "im": float(c.imag)})
        steps.append({"q": q, "order": degree, "terms": terms})
    return {"linear_part": _matrix(A), "steps": steps, "tail": "constant"}
