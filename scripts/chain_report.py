#!/usr/bin/env python3
"""Build the Loewner chain of a dilation field and run the whole check
battery: subordination identity, inscribed range growth, and attraction of
sample orbits, plus the PDE residual at two step sizes.  For each interval
of the certificate grid it prints the pieces and terms of the Taylor series
of its two halves.  The chain solves the Loewner PDE by construction
(f_t = f_a o phi_{t,a} for any jet f_a), so the residual and its halving
ratio diagnose the integrator and the difference quotient, not the chain;
`loewner verify` does not compute it.
Writes the chain document when --save is given, so the result can be
re-verified with the CLI."""

import argparse
import json

import numpy as np

from loewner import (
    HerglotzFieldSpec,
    TimeCoefficient,
    attraction_check,
    build_chain,
    normalize_field,
    pde_residual,
    range_growth_check,
    verify_subordination_chain,
)
from loewner.cli import report_text
from loewner.herglotz import _certificate_grid, _transition
from loewner.sampling import complex_ball_points


def default_field():
    L = np.diag([-0.6, -1.0]).astype(complex)
    return HerglotzFieldSpec(
        L, 3,
        ((0, (0, 2), TimeCoefficient.constant(0.2)),
         (1, (1, 1), TimeCoefficient.constant(0.1 - 0.05j))),
        horizon=3.0)


def run(field, order, save):
    chain = build_chain(field, order=order)
    cert = "withheld" if chain.certificate is None else f"{chain.certificate:.6f}"
    print(f"chain: horizon {chain.horizon}, order {chain.order}, "
          f"radius {chain.radius:.4f}, certificate {cert}")

    rep = verify_subordination_chain(chain)
    print(f"subordination: {'PASS' if rep.passed else 'FAIL ' + str(rep.failures)}; "
          f"linear defect {rep.linear_defect:.2e}, "
          f"transition defect {rep.transition_defect:.2e}, "
          f"normalized sup {rep.normalization_sup:.4f}")

    # integrate_jet's own helper: the work of each interval's two half series
    grid = _certificate_grid(chain.horizon, chain.certificate_step)
    print("transition jets, Taylor series of the two halves:")
    print("  interval      pieces  terms")
    for s, t in zip(grid, grid[1:]):
        _, pieces, terms = _transition(chain.field, s, t, chain.order)
        print(f"  [{s:4g}, {t:4g}]  {pieces:6d}  {terms:5d}")

    z = complex_ball_points(chain.q, 0.4 * chain.radius, 4)
    samples = [(t, z[:, i]) for t in (0.6, chain.horizon - 0.5)
               for i in range(z.shape[1])]
    coarse = pde_residual(chain, samples, h=1e-3)
    fine = pde_residual(chain, samples, h=5e-4)
    print(f"pde residual: {coarse:.3e} at h=1e-3, halving ratio {coarse / fine:.2f}")

    # the chain keeps only its jets: range growth reads a normal form
    # rebuilt from the chain's own evolution, as `loewner verify` does, from
    # the half-step jets that evolution already holds
    _, rebuilt = normalize_field(chain.evolution, chain.horizon)
    growth = range_growth_check(rebuilt)
    reached = (f"step {growth.achieved_step} (bound {growth.step_bound})"
               if growth.achieved_step is not None else "not reached in window")
    target = growth.factor * growth.inner_radius
    print(f"range growth: nondecreasing={growth.nondecreasing}, "
          f"{growth.factor:g}x inner radius at {reached}")
    # rho_n: a ball T_{0,n} provably maps into the s ball, by the full Cauchy
    # majorant (a) or with the linear part split off (b)
    print("    n  rho_n         bound  rho_n/(factor s)")
    for n, (rho, which) in enumerate(zip(growth.inradii, growth.radius_bounds)):
        print(f"  {n:3d}  {rho:.6e}  {which:>5}  {rho / target:.4g}")

    orbit = attraction_check(rebuilt.family, complex_ball_points(chain.q, 0.5 * chain.radius, 8))
    worst = max(r.steps for r in orbit.rows)
    print(f"attraction: all converged={orbit.all_converged}, "
          f"slowest orbit {worst} steps to the {orbit.tol:g} ball")

    if save:
        with open(save, "w") as fh:
            fh.write(report_text(chain.to_json_dict()))
        print(f"chain document written to {save}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", help="field JSON (default: built-in demo field)")
    ap.add_argument("--order", type=int, default=None, help="jet truncation order")
    ap.add_argument("--save", help="write the chain document here")
    args = ap.parse_args()
    if args.input:
        with open(args.input) as fh:
            fld = HerglotzFieldSpec.from_json_dict(json.load(fh))
    else:
        fld = default_field()
    run(fld, args.order, args.save)
