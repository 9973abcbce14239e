#!/usr/bin/env python3
"""The resonant dilation field H = (a z1, 2a z2 + c z1^2): the z1^2 term can
never be removed, so the normal form keeps it in T and the chain is built
without a local-boundedness certificate.  Sweeping c shows the absorbed
coefficient scaling linearly while the rest of the construction is unchanged."""

import argparse
import math

import numpy as np

from loewner import (
    ContinuousEvolution,
    HerglotzFieldSpec,
    TimeCoefficient,
    assemble_chain,
    detect_resonances,
    normalize_field,
)


def field_for(c, alpha):
    L = np.diag([alpha, 2.0 * alpha]).astype(complex)
    return HerglotzFieldSpec(L, 2, ((1, (2, 0), TimeCoefficient.constant(c)),),
                             horizon=2.0)


def run(cs, alpha):
    probe = field_for(cs[0], alpha)
    report = detect_resonances(np.diag(probe.Lambda), mode="additive")
    names = ", ".join(f"component {j + 1} ~ index {I}" for j, I in report.resonances)
    print(f"alpha = {alpha:.4f}; additive resonances: {names or 'none'}")
    print(f"{'c':>6} {'T coeff':>10} {'predicted':>10} {'k extra':>10} {'certificate':>12}")
    for c in cs:
        field = field_for(c, alpha)
        evolution, res = normalize_field(ContinuousEvolution(field, field.order), 2)
        t_coeff = res.triangular.step(0).coefficient(1, (2, 0))
        # unit-time integration of the forced mode: c * e^{2 alpha}
        predicted = c * math.exp(2.0 * alpha)
        k0 = res.intertwining_jet(0)
        extra = max((abs(v) for j, I, v in k0.nonzero_terms() if sum(I) > 1),
                    default=0.0)
        chain = assemble_chain(evolution, res)
        cert = "withheld" if chain.certificate is None else f"{chain.certificate:.4f}"
        print(f"{c:6.3f} {abs(t_coeff):10.5f} {abs(predicted):10.5f} "
              f"{extra:10.2e} {cert:>12}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=math.log(0.4),
                    help="eigenvalue of the slow coordinate (negative)")
    ap.add_argument("--cs", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.3, 0.4])
    args = ap.parse_args()
    run(cs=args.cs, alpha=args.alpha)
