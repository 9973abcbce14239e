"""Command line front end: analyze, normalform, chain, verify.

All commands read a JSON document from --input and write a JSON report,
either to --output or to stdout.  Reports are serialized with sorted keys so
identical inputs produce identical bytes.  Exit codes: 0 success, 1 a check
or computation failed (the first failing check is named on stderr), 2 the
input could not be parsed or the report could not be written, 3 the input is
well formed but violates a precondition (such as a spectrum off the open
left half plane, or an empty sample budget).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .herglotz import (
    ATTRACTION_BALL,
    ContinuousEvolution,
    HerglotzFieldSpec,
    LoewnerChain,
    PreconditionError,
    attraction_check,
    build_chain,
    complex_to_json,
    discretize,
    matrix_from_json,
    normalize_field,
    verify_subordination_chain,
)
from .jets import PolyJet
from .normal_form import (
    DiscreteEvolutionFamily,
    TriangularFamily,
    _check_work_order,
    build_normal_form,
    estimate_constants,
    range_growth_check,
)
from .sampling import complex_ball_points
from .spectral import RESONANCE_TOL, detect_resonances


class _Malformed(Exception):
    pass


class _Unwritable(Exception):
    pass


# what reading a document's entries raises; OverflowError is int() of an
# infinite float, such as a component or p of Infinity
_UNREADABLE = (KeyError, TypeError, IndexError, ValueError, OverflowError)


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


_string = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TERM_KEYS = {"component", "im", "index", "re"}
_INT = {int}


def report_text(doc) -> str:
    """The text of a report: byte for byte json.dumps(doc, sort_keys=True,
    indent=2), plus a final newline.

    Before Python 3.13 json's C encoder ignores indent, so json.dumps would
    run its pure-Python encoder.  This writer dispatches in json's own
    isinstance order, so subclasses (np.float64) are written as json writes
    them, and raises json's TypeError for an object json cannot write.  Dict
    keys must be str; json would write int keys as strings, reports have
    none.  A coefficient term, a dict of exactly an int component, an index
    list of ints and float re and im, is written by filling a frame built
    once per (indentation, component, index) with its two floats.  Frames
    are kept for one call only.
    """
    out: list[str] = []
    _write(doc, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _term_text(x, nl: str, frames: dict) -> str | None:
    """A term's text on a line indented as nl, or None if x is not a term.
    frames maps (nl, component, *index) to the text around its two floats."""
    if type(x) is not dict or x.keys() != _TERM_KEYS:
        return None
    c, index, re, im = x["component"], x["index"], x["re"], x["im"]
    if (type(c) is not int or type(index) is not list or type(re) is not float
            or type(im) is not float or set(map(type, index)) != _INT):
        return None
    key = (nl, c, *index)
    frame = frames.get(key)
    if frame is None:
        inner = nl + "  "
        listed = f",{inner}  ".join(map(str, index))
        # no "%" in a frame but its two slots: the rest is keys and ints
        frame = frames[key] = (
            f'{{{inner}"component": {c},{inner}"im": %s,{inner}"index": '
            f'[{inner}  {listed}{inner}],{inner}"re": %s{nl}}}')
    return frame % (_float_text(im), _float_text(re))


def _write(x, nl: str, put, frames: dict) -> None:
    """Put x's text on a line indented as nl: nl is a newline and the
    indentation.  Module functions, not closures, so that no reference
    cycle keeps the written pieces alive after report_text returns."""
    if isinstance(x, str):
        put(_string(x))
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    elif isinstance(x, float):
        put(_float_text(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            put(sep)
            text = _term_text(item, inner, frames)
            if text is None:
                _write(item, inner, put, frames)
            else:
                put(text)
            sep = comma
        put(nl + "]")
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(x):
            # _string raises TypeError for a key that is not a str
            put(sep + _string(key) + ": ")
            _write(x[key], inner, put, frames)
            sep = comma
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _dump(doc: dict, path: str | None) -> None:
    text = report_text(doc)
    if path:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise _Unwritable(f"cannot write {path}: {e.strerror or e}") from e
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
    except _UNREADABLE as e:
        raise _Malformed(f"bad field description: {e}") from e


def _family_from_doc(doc: dict) -> DiscreteEvolutionFamily:
    tail = doc.get("tail", "constant")
    if tail != "constant":
        raise _Malformed(f"unknown tail {tail!r}: a family has the constant "
                         "tail, its steps past the window repeat the last one")
    try:
        linear = matrix_from_json(doc["linear_part"])
        steps = tuple(PolyJet.from_json_dict(s) for s in doc["steps"])
        return DiscreteEvolutionFamily(linear, steps)
    except PreconditionError:
        raise
    except _UNREADABLE as e:
        raise _Malformed(f"bad family description: {e}") from e


# --------------------------------------------------------------------- #
# commands

def cmd_analyze(args) -> int:
    doc = _load(args.input)
    field = _field_from_doc(doc)
    _check_order_flag(args)
    eigs = np.linalg.eigvals(field.Lambda)
    additive = detect_resonances(eigs, mode="additive", tau=args.tau)

    order = max(2, field.order if args.order is None else args.order)
    _check_work_order(order, "the field's order")
    family = discretize(ContinuousEvolution(field, order), horizon=1)
    A = family.linear_part
    trivial = TriangularFamily(A, (PolyJet.from_linear(A, order),))
    multiplicative = detect_resonances(np.diag(A), tau=args.tau)
    constants = estimate_constants(family, trivial, multiplicative)

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


def _check_order_flag(args) -> None:
    # before any integration, which above the cap can run for minutes
    if args.order is not None:
        _check_work_order(args.order, "--order")


def cmd_normalform(args) -> int:
    doc = _load(args.input)
    _check_order_flag(args)
    if "Lambda" in doc:
        field = _field_from_doc(doc)
        order = max(2, field.order if args.order is None else args.order)
        _, result = normalize_field(ContinuousEvolution(field, order), args.horizon,
                                    tau=args.tau)
    elif "steps" in doc:
        result = build_normal_form(_family_from_doc(doc), order=args.order,
                                   horizon=args.horizon, tau=args.tau)
    else:
        raise _Malformed("document is neither a field ('Lambda') nor a family ('steps')")
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
    _check_order_flag(args)
    chain = build_chain(field, horizon=args.horizon, order=args.order, tau=args.tau)
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
    except _UNREADABLE as e:
        raise _Malformed(f"bad chain document: {e}") from e

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

    # the rebuild reuses the half-step jets the checks above integrated, and
    # runs under the document's resonance rule
    rebuilt = None
    try:
        _, rebuilt = normalize_field(chain.evolution, chain.horizon,
                                     tau=chain.resonances.tolerance)
    except PreconditionError:
        raise
    except (ValueError, RuntimeError) as e:
        checks["rebuild"] = {"passed": False, "error": str(e)}
        failures.append("rebuild")
    if rebuilt is not None:
        # the declared resonances are the rebuild's, and a certificate is
        # declared exactly when the rebuild finds none
        found = rebuilt.resonance_report.to_json_dict()
        agree = (found == chain.resonances.to_json_dict()
                 and (chain.certificate is None) == bool(found["resonances"]))
        checks["resonances"] = {"passed": agree, "rebuilt": found}
        if not agree:
            failures.append("resonances")
        growth = range_growth_check(rebuilt)
        checks["range-growth"] = {"passed": growth.passed,
                                  "achieved_step": growth.achieved_step,
                                  "step_bound": growth.step_bound}
        if not growth.passed:
            failures.append("range-growth")
        ball = complex_ball_points(chain.q, 0.5 * rebuilt.constants.r,
                                   args.samples, start=args.seed)
        attract = attraction_check(rebuilt.family, ball, tol=args.tol)
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

def _ranged(kind, accepts, what: str):
    """argparse type: a `kind` value that `accepts`, else an error naming
    the flag and `what` its values must be (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid float value" wording
    return parse


# every optional flag; each command registers the ones it reads
_FLAGS = {
    "--order": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=None,
                    help="jet truncation order, >= 1"),
    "--tol": dict(type=_ranged(float, lambda v: math.isfinite(v) and v > 0,
                               "finite and > 0"),
                  default=ATTRACTION_BALL, help="radius of the attraction ball, > 0"),
    # a negative tau would let the stable and unstable masks overlap
    "--tau": dict(type=_ranged(float, lambda v: math.isfinite(v) and v >= 0,
                               "finite and >= 0"),
                  default=RESONANCE_TOL, help="resonance tolerance on the log-modulus gap, >= 0"),
    "--samples": dict(type=int, default=12, help="sample points per check"),
    "--seed": dict(type=_ranged(int, lambda v: v >= 0, ">= 0"), default=0,
                   help="offset into the deterministic sample sequence, >= 0"),
    "--horizon": dict(type=_ranged(int, lambda v: v >= 1, ">= 1"), default=None,
                      help="number of unit time steps to cover, >= 1"),
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process.  It names each
    command only: main looks cmd_<command> up when it runs, so a rebound
    cmd_* (a tracer's wrapper, a test's recorder) serves every later call."""
    parser = argparse.ArgumentParser(
        prog="loewner",
        description="Normal forms and Loewner chains for dilation evolution families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("analyze", "resonances and convergence constants of a field",
         ("--order", "--tau")),
        ("normalform", "normalize a field or discrete family",
         ("--order", "--tau", "--horizon")),
        ("chain", "build the Loewner chain of a field",
         ("--order", "--tau", "--horizon")),
        ("verify", "check a chain document against its field",
         ("--tol", "--samples", "--seed")),
    ]
    for name, help_text, flags in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3
    except _Malformed as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except _Unwritable as e:
        print(e, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
