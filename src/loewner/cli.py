"""Command line front end: analyze, normalform, chain, verify.

All commands read a JSON document from --input and write a JSON report,
either to --output or to stdout.  Reports are serialized with sorted keys so
identical inputs produce identical bytes.  Exit codes: 0 success, 1 a check
or computation failed (the first failing check is named on stderr), 2 the
input could not be parsed, 3 the input is well formed but violates a
precondition (such as a spectrum off the open left half plane, or an empty
sample budget).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .herglotz import (
    HerglotzFieldSpec,
    LoewnerChain,
    PreconditionError,
    attraction_check,
    build_chain,
    complex_to_json,
    discretize,
    matrix_from_json,
    pde_residual,
    verify_subordination_chain,
)
from .jets import PolyJet
from .normal_form import (
    DiscreteEvolutionFamily,
    TriangularFamily,
    build_normal_form,
    estimate_constants,
    range_growth_check,
)
from .sampling import complex_ball_points
from .spectral import detect_resonances


# default --tol of verify: the PDE residual bound and the attraction ball
VERIFY_TOL = 1e-6


class _Malformed(Exception):
    pass


def _load(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _Malformed(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _Malformed(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise _Malformed(f"{path}: expected a JSON object at top level")
    return doc


def _dump(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _say(args, message: str) -> None:
    # keep stdout parseable when the report goes there
    stream = sys.stdout if args.output else sys.stderr
    print(message, file=stream)


def _field_from_doc(doc: dict) -> HerglotzFieldSpec:
    if "Lambda" not in doc:
        raise _Malformed("document has no 'Lambda' entry; not a field description")
    try:
        return HerglotzFieldSpec.from_json_dict(doc)
    except PreconditionError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise _Malformed(f"bad field description: {e}") from e


def _family_from_doc(doc: dict) -> DiscreteEvolutionFamily:
    try:
        linear = matrix_from_json(doc["linear_part"])
        steps = tuple(PolyJet.from_json_dict(s) for s in doc["steps"])
        return DiscreteEvolutionFamily(linear, steps, tail=doc.get("tail", "constant"))
    except PreconditionError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise _Malformed(f"bad family description: {e}") from e


# --------------------------------------------------------------------- #
# commands

def cmd_analyze(args) -> int:
    doc = _load(args.input)
    field = _field_from_doc(doc)
    eigs = np.linalg.eigvals(field.Lambda)
    additive = detect_resonances(eigs, mode="additive", tau=args.tau)

    order = max(2, field.order if args.order is None else args.order)
    disc = discretize(field, horizon=1, order=order, tol=args.tol or 1e-10)
    A = disc.family.linear_part
    trivial = TriangularFamily(A, (PolyJet.from_linear(A, order),))
    multiplicative = detect_resonances(np.diag(A), tau=args.tau)
    constants = estimate_constants(disc.family, trivial, multiplicative)

    out = {
        "schema": "loewner-analysis/1",
        "q": field.q,
        "order": order,
        "abscissa": field.abscissa,
        "eigenvalues": [complex_to_json(v) for v in eigs],
        "resonances": additive.to_json_dict(),
        "constants": constants.as_dict(),
    }
    _dump(out, args.output)
    n = len(additive.resonances)
    _say(args, f"analyze: q={field.q}, abscissa={field.abscissa:.6g}, "
               f"{n} resonance{'s' if n != 1 else ''}, p={additive.p}")
    _say(args, f"constants: alpha={constants.alpha:.6g} beta={constants.beta:.6g} "
               f"ell={constants.ell} r={constants.r:.6g}")
    for j, index in additive.resonances:
        _say(args, f"resonance: component {j + 1}, index {tuple(index)}")
    return 0


def cmd_normalform(args) -> int:
    doc = _load(args.input)
    if "Lambda" in doc:
        field = _field_from_doc(doc)
        T = int(math.ceil(field.horizon)) if args.horizon is None else args.horizon
        order = max(2, field.order if args.order is None else args.order)
        family = discretize(field, T, order, tol=args.tol or 1e-10).family
    elif "steps" in doc:
        family = _family_from_doc(doc)
    else:
        raise _Malformed("document is neither a field ('Lambda') nor a family ('steps')")

    result = build_normal_form(family, order=args.order, horizon=args.horizon,
                               tau=args.tau)
    out = {"schema": "loewner-normalform/1", **result.to_json_dict()}
    _dump(out, args.output)

    cs = result.constants
    worst = max((st.recurrence_residual for st in result.stages), default=0.0)
    _say(args, f"normal form through order {result.order} "
               f"(working order {result.work_order}), window {result.horizon}")
    _say(args, f"constants: alpha={cs.alpha:.6g} beta={cs.beta:.6g} ell={cs.ell} "
               f"p={cs.p} r={cs.r:.6g} s={cs.s:.6g} C={cs.C:.6g}")
    _say(args, f"max recurrence residual {worst:.3e}; {result.certificate}")
    rep = result.resonance_report
    if rep.resonances:
        for j, index in rep.resonances:
            _say(args, f"resonant: component {j + 1}, index {tuple(index)}")
    else:
        _say(args, "no resonances")
    k0 = result.intertwining_jet(0)
    shown = sorted(
        ((j, index, c) for j, index, c in k0.nonzero_terms() if sum(index) > 1),
        key=lambda e: -abs(e[2]))[:3]
    for j, index, c in shown:
        _say(args, f"k_0 component {j + 1} index {tuple(index)}: {c.real:.6g}"
                   f"{c.imag:+.6g}i")
    return 0


def cmd_chain(args) -> int:
    doc = _load(args.input)
    field = _field_from_doc(doc)
    chain = build_chain(field, horizon=args.horizon, order=args.order,
                        tol=args.tol or 1e-10, tau=args.tau)
    _dump(chain.to_json_dict(), args.output)
    cert = "none (resonances present)" if chain.certificate is None \
        else f"{chain.certificate:.6g}"
    _say(args, f"chain: horizon {chain.horizon}, order {chain.order}, "
               f"radius {chain.radius:.6g}, certificate {cert}")
    return 0


def cmd_verify(args) -> int:
    doc = _load(args.input)
    if "jets" not in doc or "field" not in doc:
        raise _Malformed("document is not a chain (missing 'field' or 'jets')")
    if args.samples <= 0:
        raise PreconditionError("at least one sample point is required")
    try:
        chain = LoewnerChain.from_json_dict(doc)
    except PreconditionError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise _Malformed(f"bad chain document: {e}") from e

    tol = VERIFY_TOL if args.tol is None else args.tol
    report = verify_subordination_chain(chain, samples=args.samples, start=args.seed)
    failures = list(report.failures)
    checks: dict[str, dict] = {
        "linear-part": {"passed": "linear-part" not in failures,
                        "defect": report.linear_defect},
        "transition-containment": {"passed": "transition-containment" not in failures,
                                   "margin": report.containment_margin},
        "transition-field-match": {"passed": "transition-field-match" not in failures,
                                   "defect": report.transition_defect},
        "normalization-bound": {"passed": "normalization-bound" not in failures,
                                "sup": report.normalization_sup,
                                "declared": report.declared_bound},
        "univalence": {"passed": "univalence" not in failures,
                       "violations": len(report.univalence.violations)},
    }

    ts = [a - 0.5 for a in range(1, min(chain.horizon, 4) + 1)]
    pts = complex_ball_points(chain.q, 0.4 * chain.radius, max(1, args.samples // 2),
                              start=args.seed)
    pde_samples = [(t, pts[:, i]) for t in ts for i in range(pts.shape[1])]
    residual = pde_residual(chain, pde_samples, h=1e-3)
    checks["pde-residual"] = {"passed": residual <= tol, "residual": residual,
                              "tol": tol}
    if residual > tol:
        failures.append("pde-residual")

    rebuilt = None
    try:
        disc = discretize(chain.field, chain.horizon, chain.order,
                          tol=chain.step_tol)
        rebuilt = build_normal_form(disc.family, horizon=chain.horizon)
    except (ValueError, RuntimeError) as e:
        checks["rebuild"] = {"passed": False, "error": str(e)}
        failures.append("rebuild")
    if rebuilt is not None:
        growth = range_growth_check(rebuilt, samples=max(8, args.samples))
        checks["range-growth"] = {"passed": growth.passed,
                                  "achieved_step": growth.achieved_step,
                                  "step_bound": growth.step_bound}
        if not growth.passed:
            failures.append("range-growth")
        ball = complex_ball_points(chain.q, 0.5 * rebuilt.constants.r,
                                   args.samples, start=args.seed)
        attract = attraction_check(disc.family, ball, tol=tol)
        checks["attraction"] = {"passed": attract.all_converged,
                                "max_steps_used": max(
                                    (r.steps for r in attract.rows
                                     if r.steps is not None), default=0)}
        if not attract.all_converged:
            failures.append("attraction")

    out = {
        "schema": "loewner-verify/1",
        "passed": not failures,
        "failures": failures,
        "checks": checks,
        "report": report.to_json_dict(),
    }
    _dump(out, args.output)
    if failures:
        _say(args, f"verify: FAIL ({failures[0]})")
        return 1
    _say(args, "verify: PASS")
    return 0


# --------------------------------------------------------------------- #
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Normal forms and Loewner chains for dilation evolution families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("analyze", cmd_analyze, "resonances and convergence constants of a field"),
        ("normalform", cmd_normalform, "normalize a field or discrete family"),
        ("chain", cmd_chain, "build the Loewner chain of a field"),
        ("verify", cmd_verify, "check a chain document against its field"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--order", type=int, default=None, help="jet truncation order")
        p.add_argument("--tol", type=float, default=None,
                       help="integration / verification tolerance")
        p.add_argument("--tau", type=float, default=1e-9,
                       help="resonance detection tolerance")
        p.add_argument("--samples", type=int, default=12,
                       help="sample points per check")
        p.add_argument("--seed", type=int, default=0,
                       help="offset into the deterministic sample sequence")
        p.add_argument("--horizon", type=int, default=None,
                       help="number of unit time steps to cover")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3
    except _Malformed as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
