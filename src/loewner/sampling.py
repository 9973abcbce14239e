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
# largest batch of Halton points the ball sampler draws at once (6 MB at q = 6)
_MAX_BATCH = 1 << 16
# Halton coordinates are kept this far inside (0, 1), where ndtri is finite
_NDTRI_CLIP = 1e-12


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

    Coordinate d uses the radical inverse in the d-th prime base.  The digit
    loop runs over all points at once; a point whose digits have run out
    adds f * 0, so each value is the one the point-by-point loop gives.
    A negative start would reach index -1, whose digits never run out.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    out = np.empty((count, dim))
    index = np.arange(start + 1, start + count + 1, dtype=np.int64)  # skip the origin
    for d, base in enumerate(_first_primes(dim)):
        n = index.copy()
        f = 1.0
        x = np.zeros(count)
        while n.any():
            f /= base
            x += f * (n % base)
            n //= base
        out[:, d] = x
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
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    acceptance = math.pi ** q / (math.factorial(q) * 4 ** q)
    if acceptance < _MIN_BALL_ACCEPTANCE:
        u = halton(count, 2 * q + 1, start)
        g = ndtri(np.clip(u[:, :-1], _NDTRI_CLIP, 1.0 - _NDTRI_CLIP))
        g *= (u[:, -1] ** (1.0 / (2 * q)) / np.linalg.norm(g, axis=1))[:, None]
        return radius * (g[:, :q] + 1j * g[:, q:]).T
    pts = np.empty((q, count), dtype=complex)
    have = 0
    offset = start
    while have < count:
        # enough cube points for twice the missing samples; the accepted
        # points are the same whatever the batch size
        batch = min(_MAX_BATCH, max(32, math.ceil(2 * (count - have) / acceptance)))
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
    """`count` points on the euclidean sphere |z| = radius in C^q, shape (q, count).

    Raises ValueError for a negative start, as halton does."""
    u = halton(count, 2 * q, start)
    g = ndtri(np.clip(u, _NDTRI_CLIP, 1.0 - _NDTRI_CLIP))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return radius * (g[:, :q] + 1j * g[:, q:]).T
