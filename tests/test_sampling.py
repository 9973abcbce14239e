"""Halton sequences and ball samplers beyond the first sixteen primes."""

import numpy as np
import pytest

from loewner.sampling import complex_ball_points, halton

from conftest import complex_sphere_points


def _halton_reference(count, dim, start=0):
    """Radical inverses in the first sixteen primes, the original table,
    computed point by point."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    out = np.empty((count, dim))
    for d in range(dim):
        for i in range(count):
            n, f, x = start + i + 1, 1.0, 0.0
            while n > 0:
                f /= primes[d]
                x += f * (n % primes[d])
                n //= primes[d]
            out[i, d] = x
    return out


def test_halton_keeps_its_first_sixteen_columns():
    pts = halton(50, 20)
    assert pts.shape == (50, 20)
    assert np.array_equal(pts[:, :16], _halton_reference(50, 16))
    assert ((pts >= 0.0) & (pts < 1.0)).all()
    # an offset start mixes points of different digit counts in one batch
    later = halton(40, 16, start=1000)
    assert np.array_equal(later, _halton_reference(40, 16, start=1000))


@pytest.mark.parametrize("q,count,start", [(2, 30, 0), (5, 12, 3)])
def test_ball_points_are_the_first_cube_points_inside_the_ball(q, count, start):
    u = 2.0 * _halton_reference(12000, 2 * q, start) - 1.0
    inside = u[np.sqrt((u * u).sum(axis=1)) <= 1.0][:count]
    assert inside.shape[0] == count
    want = 0.7 * (inside[:, :q] + 1j * inside[:, q:]).T
    assert np.array_equal(complex_ball_points(q, 0.7, count, start), want)


def test_ball_points_in_eighteen_real_dimensions():
    r, k = 0.7, 40
    pts = complex_ball_points(9, r, k)
    assert pts.shape == (9, k)
    assert (np.linalg.norm(pts, axis=0) <= r).all()
    assert np.array_equal(pts, complex_ball_points(9, r, k))


@pytest.mark.parametrize("start", [-1, -5])
@pytest.mark.parametrize("sampler", [
    lambda start: halton(3, 2, start),
    lambda start: complex_ball_points(2, 0.5, 3, start),
    lambda start: complex_ball_points(2, 0.5, 0, start),
    lambda start: complex_sphere_points(2, 0.5, 3, start),
])
def test_samplers_reject_a_negative_start(sampler, start):
    # from start -2 on, the Halton digit loop would reach index -1 and
    # never end; start -1 would silently give index 0, the origin
    with pytest.raises(ValueError, match="start must be >= 0"):
        sampler(start)
