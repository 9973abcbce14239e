"""Span recorder that times the package's public functions from outside.

`Tracer.install()` replaces each function listed in TRACED by a wrapper
that records (name, start, end, parent, job, attribute) with
`time.perf_counter`.  Modules import `compose`, `integrate_jet`,
`build_normal_form` and others by name, so every `loewner.*` module
attribute bound to the original function is rebound, not only the
defining one; methods are patched on their class.  Spans stay in memory
until `layer_metrics` reduces them.  `overhead_s` estimates what the
wrappers themselves cost, so the traced run needs no untraced twin.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class
TRACED = (
    ("jets", "compose", "jets.compose"),
    ("jets", "invert", "jets.invert"),
    ("jets", "PolyJet.evaluate_many", "jets.evaluate"),
    ("jets", "evaluate_triangular_inverse_many", "jets.evaluate"),
    ("spectral", "to_optimal_form", "spectral.to_optimal_form"),
    ("spectral", "gamma_matrix", "spectral.gamma_matrix"),
    ("spectral", "spectral_split", "spectral.spectral_split"),
    ("homological", "solve_difference", "homological.solve_difference"),
    ("normal_form", "normal_form_step", "normal_form.normal_form_step"),
    ("normal_form", "defect", "normal_form.defect"),
    ("normal_form", "estimate_constants", "normal_form.estimate_constants"),
    ("normal_form", "build_normal_form", "normal_form.build_normal_form"),
    ("normal_form", "ConjugacyResult.intertwining_point", "normal_form.intertwining_point"),
    ("normal_form", "discrete_chain", "normal_form.discrete_chain"),
    ("normal_form", "range_growth_check", "normal_form.range_growth_check"),
    ("herglotz", "integrate_jet", "herglotz.integrate_jet"),
    ("herglotz", "integrate_variational", "herglotz.integrate_variational"),
    ("herglotz", "integrate_points", "herglotz.integrate_points"),
    ("herglotz", "HerglotzFieldSpec.values", "herglotz.field_eval"),
    ("herglotz", "HerglotzFieldSpec.jacobians", "herglotz.field_eval"),
    ("herglotz", "pde_residual", "herglotz.pde_residual"),
    ("herglotz", "discretize", "herglotz.discretize"),
    ("herglotz", "build_chain", "herglotz.build_chain"),
    ("herglotz", "verify_subordination_chain", "herglotz.verify_subordination_chain"),
    ("herglotz", "attraction_check", "herglotz.attraction_check"),
    ("cli", "cmd_chain", "cli.chain"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_normalform", "cli.normalform"),
)

# layer metrics and their units, in report order
SPAN_METRICS = (
    ("herglotz.integrate_jet", ("calls", "self_s")),
    ("jets.compose", ("calls", "self_s")),
    ("jets.invert", ("calls", "self_s")),
    ("jets.evaluate", ("calls", "self_s")),
    ("herglotz.integrate_variational", ("calls", "self_s")),
    ("herglotz.integrate_points", ("calls", "self_s")),
    ("herglotz.field_eval", ("calls", "self_s")),
    ("herglotz.pde_residual", ("self_s",)),
    ("herglotz.discretize", ("self_s",)),
    ("herglotz.build_chain", ("self_s",)),
    ("herglotz.verify_subordination_chain", ("self_s",)),
    ("herglotz.attraction_check", ("self_s",)),
    ("normal_form.normal_form_step", ("self_s",)),
    ("normal_form.defect", ("calls", "self_s")),
    ("normal_form.estimate_constants", ("self_s",)),
    ("normal_form.build_normal_form", ("calls",)),
    ("normal_form.intertwining_point", ("calls", "self_s")),
    ("normal_form.discrete_chain", ("self_s",)),
    ("normal_form.range_growth_check", ("self_s",)),
    ("spectral.to_optimal_form", ("self_s",)),
    ("spectral.gamma_matrix", ("calls", "self_s")),
    ("spectral.spectral_split", ("self_s",)),
    ("homological.solve_difference", ("calls", "self_s")),
    ("cli.chain", ("self_s",)),
    ("cli.verify", ("self_s",)),
    ("cli.normalform", ("self_s",)),
)
DERIVED_METRICS = (
    ("herglotz.integrate_jet.compose_per_call", "1/call"),
    ("herglotz.integrate_jet.repeat_share", "ratio"),
    ("jets.compose.in_flow.self_s", "s/job"),
    ("jets.compose.in_normal_form.self_s", "s/job"),
    ("jets.compose.sparse_share", "ratio"),
    ("herglotz.build_chain.passes", "1/call"),
    ("normal_form.build_normal_form.passes", "1/call"),
    ("trace.overhead_frac", "ratio"),
)
UNITS = {"calls": "1/job", "self_s": "s/job"}


def metric_units() -> dict[str, str]:
    """Every layer metric name with its unit."""
    out = {f"{name}.{kind}": UNITS[kind]
           for name, kinds in SPAN_METRICS for kind in kinds}
    out.update(DERIVED_METRICS)
    return out


def _sparse(f) -> bool:
    """Outer map nonzero in at most a quarter of its monomial columns."""
    cols = f.coeffs.shape[1]
    return 4 * int((f.coeffs != 0).any(axis=0).sum()) <= cols


def _constant_on(coeff, s: float, t: float) -> bool:
    if coeff.kind == "constant":
        return True
    if coeff.kind == "piecewise":
        return not any(s < b < t for b in coeff.times)
    return t <= coeff.times[0] or s >= coeff.times[-1]


def _flow_key(field, s: float, t: float, order, tol):
    """Key of a map a reuse cache could answer: a field whose coefficients
    are constant on [s, t] gives the same map for every interval of the
    same length.  None when the coefficients vary on [s, t]."""
    if not all(_constant_on(c, s, t) for _, _, c in field.terms):
        return None
    order = field.order if order is None else int(order)
    schedule = tuple((j, index, c(s)) for j, index, c in field.terms)
    return (order, float(tol), round(t - s, 12), field.Lambda.tobytes(), schedule)


class Tracer:
    """Records spans around the TRACED functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.attribute_s = 0.0      # time spent computing span attributes

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attribute = None
        if name == "jets.compose":
            def attribute(args, kwargs):
                return _sparse(args[0])
        elif name == "herglotz.integrate_jet":
            sig = inspect.signature(fn)

            def attribute(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                a = b.arguments
                return _flow_key(a["field"], float(a["s"]), float(a["t"]),
                                 a["order"], a["tol"])

        def wrapper(*args, **kwargs):
            attr = None
            if attribute is not None:
                a0 = time.perf_counter()
                attr = attribute(args, kwargs)
                self.attribute_s += time.perf_counter() - a0
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, attr]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("loewner.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "loewner" or key.startswith("loewner.")]
        for module_name, attr, name in TRACED:
            home = importlib.import_module(f"loewner.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def overhead_s(self, calls: int = 20000) -> float:
        """Estimated seconds the wrappers added to the recorded spans: the
        measured time spent on span attributes, plus each span times the
        cost of one bare wrapper, timed here on a no-op function."""
        def noop():
            return None

        calibration = Tracer()
        wrapped = calibration._wrap("calibration", noop)

        def loop(fn):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed = time.perf_counter() - t0
            calibration.spans.clear()
            return elapsed

        per_call = (min(loop(wrapped) for _ in range(5)) -
                    min(loop(noop) for _ in range(5))) / calls
        return len(self.spans) * max(per_call, 0.0) + self.attribute_s

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-job layer numbers from the spans of `jobs` traced jobs."""
    jobs = max(jobs, 1)
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    in_flow = [False] * len(spans)
    owner = [""] * len(spans)      # nearest enclosing non-jets span
    compose_flow = compose_nf = 0.0
    compose_flow_calls = sparse = 0
    repeats = 0
    seen_keys: set = set()
    passes = defaultdict(int)
    for i, (name, _, _, parent, job, attr) in enumerate(spans):
        calls[name] += 1
        selfs[name] += own[i]
        if parent >= 0:
            pname = spans[parent][0]
            in_flow[i] = in_flow[parent] or pname == "herglotz.integrate_jet"
            owner[i] = owner[parent] if pname.startswith("jets.") else pname
            if (pname, name) in (("herglotz.build_chain", "herglotz.discretize"),
                                 ("normal_form.build_normal_form",
                                  "normal_form.estimate_constants")):
                passes[pname] += 1
        if name == "jets.compose":
            sparse += bool(attr)
            if in_flow[i]:
                compose_flow += own[i]
                compose_flow_calls += 1
            elif owner[i].startswith("normal_form."):
                compose_nf += own[i]
        elif name == "herglotz.integrate_jet" and attr is not None:
            key = (job, attr)
            repeats += key in seen_keys
            seen_keys.add(key)

    out: dict[str, float] = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            value = calls[name] if kind == "calls" else selfs[name]
            out[f"{name}.{kind}"] = value / jobs

    def share(a, b):
        return a / b if b else 0.0

    flows = calls["herglotz.integrate_jet"]
    out["herglotz.integrate_jet.compose_per_call"] = share(compose_flow_calls, flows)
    out["herglotz.integrate_jet.repeat_share"] = share(repeats, flows)
    out["jets.compose.in_flow.self_s"] = compose_flow / jobs
    out["jets.compose.in_normal_form.self_s"] = compose_nf / jobs
    out["jets.compose.sparse_share"] = share(sparse, calls["jets.compose"])
    out["herglotz.build_chain.passes"] = share(
        passes["herglotz.build_chain"], calls["herglotz.build_chain"])
    out["normal_form.build_normal_form.passes"] = share(
        passes["normal_form.build_normal_form"], calls["normal_form.build_normal_form"])
    return out
