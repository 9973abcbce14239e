"""Deterministic low-discrepancy sample points for balls and spheres in C^q.

Everything here is a pure function of (count, dimension, start offset), so
repeated runs with the same configuration touch exactly the same points.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

# below this share of cube points landing in the ball, the ball sampler
# maps points instead of rejecting them: rejection costs 1 / share Halton
# points per sample, 3e6 at q = 9
_MIN_BALL_ACCEPTANCE = 1e-4


def _first_primes(count: int) -> list[int]:
    """The first `count` primes, by trial division against the smaller ones."""
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def halton(count: int, dim: int, start: int = 0) -> np.ndarray:
    """First `count` Halton points in [0, 1)^dim, skipping `start` of them.

    Coordinate d uses the radical inverse in the d-th prime base.
    """
    out = np.empty((count, dim))
    for d, base in enumerate(_first_primes(dim)):
        for i in range(count):
            n = start + i + 1  # skip the origin
            f, x = 1.0, 0.0
            while n > 0:
                f /= base
                x += f * (n % base)
                n //= base
            out[i, d] = x
    return out


def complex_ball_points(q: int, radius: float, count: int, start: int = 0) -> np.ndarray:
    """`count` points in the closed euclidean ball of C^q, shape (q, count).

    Halton points in the real cube [-1, 1]^{2q} are filtered to the unit
    ball and scaled; rejection keeps the sequence deterministic.  A cube
    point lands in the ball with probability pi^q / (q! 4^q): 2e-3 at q = 5,
    4e-5 at q = 7.  Below _MIN_BALL_ACCEPTANCE (q >= 7) each Halton point
    in 2q + 1 dimensions is mapped into the ball instead.  Its first 2q
    coordinates give a Gaussian direction; its last, u, gives the radius
    u^(1/2q), which makes the density uniform in volume.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if math.pi ** q / (math.factorial(q) * 4 ** q) < _MIN_BALL_ACCEPTANCE:
        u = halton(count, 2 * q + 1, start)
        g = ndtri(np.clip(u[:, :-1], 1e-12, 1.0 - 1e-12))
        g *= (u[:, -1] ** (1.0 / (2 * q)) / np.linalg.norm(g, axis=1))[:, None]
        return radius * (g[:, :q] + 1j * g[:, q:]).T
    pts = np.empty((q, count), dtype=complex)
    have = 0
    offset = start
    while have < count:
        batch = max(32, 2 * (count - have))
        u = 2.0 * halton(batch, 2 * q, offset) - 1.0
        offset += batch
        norms = np.sqrt((u * u).sum(axis=1))
        good = u[norms <= 1.0]
        take = min(count - have, good.shape[0])
        for i in range(take):
            row = good[i]
            pts[:, have + i] = row[:q] + 1j * row[q:]
        have += take
    return radius * pts


def complex_sphere_points(q: int, radius: float, count: int, start: int = 0) -> np.ndarray:
    """`count` points on the euclidean sphere |z| = radius in C^q, shape (q, count)."""
    u = halton(count, 2 * q, start)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * (g[:, :q] + 1j * g[:, q:]).T
