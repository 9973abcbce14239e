"""Machine-speed probe for normalizing job times.

On a shared machine the speed of one job drifts by 20% within ten seconds
and by 2x over minutes, far more than the changes the benchmark is meant
to resolve.  The probe times a fixed loop of the operations the package
spends its time on: small dense complex products, a sparse gather-scatter
like `jets._vec_mul`, and plain interpreter work on ints and a dict.  One
pass (about 20 ms) is as noisy as a job: scaling each command by the
passes next to it made repeated runs of one document vary more, not less.
Over windows of three or more commands the ratio of job to probe time
varied about 9%, against 13-16% for the job time alone.  So a run takes
two passes before every command and scales its job times by the median
of all its passes, which follows the slow drift between runs.

Job times move less than the probe: regressing window medians of job
time on probe time gave elasticities of 0.63 and 0.54 for a field's
`verify` and 0.67 and 1.0 for a family's `normalform`.  Full scaling
over-corrects, so times are scaled by the probe ratio to the power
ELASTICITY.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse import csr_matrix

# probe seconds of a quiet run on the machine the bounds were set on
# (2 vCPUs, Python 3.11, OpenBLAS on one thread)
REFERENCE_S = 0.018
ELASTICITY = 0.75


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        n, m = 84, 3000                     # q = 3, order 6: 84 monomials
        self.a = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        self.b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        self.v = rng.normal(size=n) + 1j * rng.normal(size=n)
        self.ri = rng.integers(0, n, size=m)
        self.rj = rng.integers(0, n, size=m)
        rk = rng.integers(0, n, size=m)
        self.scatter = csr_matrix((np.ones(m), (rk, np.arange(m))), shape=(n, m))
        self.passes: list[float] = []
        self()                              # pays numpy's first-call costs

    def __call__(self) -> float:
        """Seconds for one pass of the fixed loop."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            c = self.a @ self.b
            w = self.scatter.dot(self.v[self.ri] * self.v[self.rj])
            acc += abs(w[0]) + abs(c[0, 0])
        table: dict[int, int] = {}
        count = 0
        for i in range(60000):
            table[i & 255] = count
            count += i * 3 % 7
        return time.perf_counter() - t0

    def record(self, passes: int = 2) -> None:
        self.passes.extend(self() for _ in range(passes))

    def scale(self) -> float:
        """Factor taking this run's wall seconds to the reference speed."""
        return scale(statistics.median(self.passes))


def scale(probe_s: float) -> float:
    """Factor taking wall seconds measured at probe time `probe_s` to the
    reference speed."""
    return (REFERENCE_S / probe_s) ** ELASTICITY
