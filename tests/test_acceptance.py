"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Every test computes its pass condition first, prints
``criterion N: PASS/FAIL (...)`` and only then asserts, so the verdict
line survives into the log either way.
"""

import itertools
import json
import math
import time

import numpy as np

from loewner import (
    ContinuousEvolution,
    DiscreteEvolutionFamily,
    HerglotzFieldSpec,
    LoewnerChain,
    PolyJet,
    ResonanceReport,
    TimeCoefficient,
    build_chain,
    build_normal_form,
    compose,
    defect,
    detect_resonances,
    discretize,
    gamma_matrix,
    pde_residual,
    range_growth_check,
    solve_difference,
    spectral_split,
    to_optimal_form,
    verification_samples,
)
from loewner.cli import main as cli_main
from loewner.sampling import complex_ball_points

from conftest import (
    counterexample_field,
    dense_sup_bound,
    gamma_factors,
    koenigs_family,
    koenigs_oracle,
    padded,
    random_optimal_family,
    random_spectrum,
)


def _verdict(num, ok, detail, t0):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {time.perf_counter() - t0:.1f}s)")
    assert time.perf_counter() - t0 < 60.0
    return ok


def _random_field(rng, q, horizon=2.0):
    """Dilation field with constant coefficients and divisors bounded away
    from additive resonance (floor 0.02)."""
    while True:
        eigs = -rng.uniform(0.35, 1.1, size=q).astype(complex)
        if detect_resonances(eigs, mode="additive", tau=0.02).resonances:
            continue
        terms = []
        for _ in range(q + 1):
            j = int(rng.integers(q))
            d = int(rng.integers(2, 4))
            idx = [0] * q
            for _ in range(d):
                idx[int(rng.integers(q))] += 1
            c = 0.25 * (rng.normal() + 1j * rng.normal())
            terms.append((j, tuple(idx), TimeCoefficient.constant(c)))
        return HerglotzFieldSpec(np.diag(eigs), 3, tuple(terms), horizon=horizon)


def test_criterion_01_conjugacy_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(50):
        q = 1 + case % 3
        degree = 2 + case % 2
        fam = random_optimal_family(rng, q, degree, horizon=3)
        res = build_normal_form(fam, extension=8)
        W = res.work_order
        for n in range(min(res.work_horizon - 1, 4)):
            lhs = compose(res.normalizers[n + 1], res.family.step(n), W)
            rhs = compose(res.triangular.step(n), res.normalizers[n], W)
            scale = max(1.0, lhs.max_coeff, rhs.max_coeff)
            worst = max(worst, (lhs - rhs).max_coeff / scale)
    ok = worst <= 1e-10
    assert _verdict(1, ok, f"50 families, worst relative defect {worst:.2e}", t0)


def test_criterion_02_gamma_spectrum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_eig = 0.0
    worst_leak = 0.0
    for case in range(20):
        q = 2 + case % 2
        degree = 2 + (case // 2) % 2
        lam = random_spectrum(rng, q, 0.45, 0.8)
        Q = np.linalg.qr(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))[0]
        A = to_optimal_form(Q @ np.diag(lam) @ Q.conj().T).matrix
        diag = np.diag(A)
        G = gamma_matrix(A, degree)
        split = spectral_split(A, degree)
        want = np.array([diag[j] * np.prod(diag ** -np.array(I))
                         for j, I in split.basis])
        got = np.linalg.eigvals(G)
        # greedy multiset matching
        left = list(got)
        for w in want:
            k = int(np.argmin(np.abs(np.array(left) - w)))
            worst_eig = max(worst_eig, abs(left.pop(k) - w))
        S = split.stable
        scale = max(1.0, float(np.max(np.abs(G))))
        leak = max(np.max(np.abs(G[np.ix_(~S, S)]), initial=0.0),
                   np.max(np.abs(G[np.ix_(S, ~S)]), initial=0.0))
        worst_leak = max(worst_leak, leak / scale)
        if S.any():
            assert np.max(np.abs(np.linalg.eigvals(G[np.ix_(S, S)]))) < 1 - 1e-8
        if split.unstable.any():
            U = split.unstable
            assert np.min(np.abs(np.linalg.eigvals(G[np.ix_(U, U)]))) > 1 + 1e-8
    ok = worst_eig <= 1e-8 and worst_leak <= 1e-12
    assert _verdict(2, ok, f"20 matrices, eig mismatch {worst_eig:.2e}, "
                           f"block leak {worst_leak:.2e}", t0)


def _brute_resonances(lam, tau, max_degree):
    lam = np.asarray(lam, dtype=complex)
    q = len(lam)
    found = []
    for degree in range(2, max_degree + 1):
        for I in itertools.product(range(degree + 1), repeat=q):
            if sum(I) != degree:
                continue
            target = np.prod(np.abs(lam) ** np.array(I))
            for j in range(q):
                if abs(abs(lam[j]) - target) <= tau * abs(lam[j]):
                    found.append((j, tuple(I)))
    return sorted(found)


def test_criterion_03_resonance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    tau = 1e-9
    planted = hits = 0
    for case in range(100):
        q = 1 + case % 4
        lam = random_spectrum(rng, q, 0.3, 0.9)
        if q >= 2 and case % 7 == 0:
            # plant an exact modulus resonance |lam_j| = |lam^I|; for q = 2
            # the witness must not involve the replaced entry itself
            mod = abs(lam[0]) ** 2 if q == 2 else abs(lam[0]) * abs(lam[1])
            lam[-1] = mod * np.exp(1j * rng.uniform(0, 2 * np.pi))
            planted += 1
        lam = lam[np.argsort(-np.abs(lam))]
        report = detect_resonances(lam, "multiplicative", tau)
        brute = _brute_resonances(lam, tau, report.p + 1)
        assert sorted(report.resonances) == [r for r in brute
                                             if sum(r[1]) <= report.p]
        assert not [r for r in brute if sum(r[1]) > report.p]
        if case % 7 == 0 and q >= 2 and report.resonances:
            hits += 1
    ok = hits == planted
    assert _verdict(3, ok, f"100 spectra vs brute force, "
                           f"{hits}/{planted} planted found", t0)


def test_criterion_04_koenigs_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.3, 0.5, 0.7):
        for c in (0.05, 0.1):
            fam = koenigs_family(lam, c, order=8, horizon=2)
            res = build_normal_form(fam, extension=16)
            pts = 0.1 * complex_ball_points(1, 1.0, 20)
            got = res.intertwining_jet(0).evaluate_many(pts)[0]
            want = koenigs_oracle(lam, c, pts[0])
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-8
    assert _verdict(4, ok, f"6 maps at 20 points, worst gap {worst:.2e}", t0)


def test_criterion_05_homological_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_res = worst_fix = 0.0
    bounded = True
    for case in range(10):
        degree = 2 + case % 2
        while True:
            lam = random_spectrum(rng, 2, 0.35, 0.85)
            lam = lam[np.argsort(-np.abs(lam))]
            A = np.diag(lam)
            split = spectral_split(A, degree)
            # divisor floor 0.3: the seam transient decays like (1/1.3)^n,
            # so it is below 1e-12 by the comparison point at step 110
            if not split.resonant.any() and np.min(np.abs(split.mu - 1.0)) >= 0.3:
                break
        G = gamma_matrix(A, degree)
        factors = gamma_factors(A, degree)
        vecs = [rng.normal(size=split.dimension)
                + 1j * rng.normal(size=split.dimension) for _ in range(6)]
        terms = np.array(vecs).reshape(6, 2, -1)
        forcing = padded(terms, 40)
        H, residuals = solve_difference(*factors, split, forcing)
        sup_bound = dense_sup_bound(G, split, forcing)
        worst_res = max(worst_res, max(residuals))
        bounded &= np.abs(H).max() <= sup_bound
        # autonomous: constant forcing must settle on (I - Gamma)^{-1} B
        B = terms[0]
        H2, _ = solve_difference(*factors, split, padded([B], 220))
        star = np.linalg.solve(np.eye(split.dimension) - G, B.reshape(-1))
        gap = np.max(np.abs(H2[110].reshape(-1) - star))
        worst_fix = max(worst_fix, gap / max(1.0, float(np.max(np.abs(star)))))
    ok = worst_res <= 1e-10 and worst_fix <= 1e-10 and bounded
    assert _verdict(5, ok, f"10 solves, residual {worst_res:.2e}, "
                           f"fixed-point gap {worst_fix:.2e}, sup bound holds", t0)


def test_criterion_06_counterexample_behavior():
    t0 = time.perf_counter()
    field = counterexample_field(c=0.3)
    additive = detect_resonances(np.diag(field.Lambda), mode="additive")
    detected = (1, (2, 0)) in additive.resonances

    family = discretize(ContinuousEvolution(field, field.order), 2)
    A = family.linear_part
    order = family.steps[0].order
    k = (PolyJet.identity(2, order),) * 3
    T = (PolyJet.from_linear(A, order),) * 2
    P = defect(family, k, T, 2)[0]
    split = spectral_split(A, 2)
    res_norm = float(np.max(np.abs(P.reshape(-1)[split.resonant]), initial=0.0))

    res = build_normal_form(family, horizon=2)
    t_coeff = abs(res.triangular.step(0).coefficient(1, (2, 0)))

    chain = build_chain(field)
    ok = (detected and res_norm > 1e-3 and t_coeff > 1e-3
          and chain.certificate is None)
    assert _verdict(6, ok, f"resonance detected={detected}, defect resonant part "
                           f"{res_norm:.3g}, T z1^2 coefficient {t_coeff:.3g}, "
                           f"certificate withheld={chain.certificate is None}", t0)


def test_criterion_07_chain_and_pde():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_sub = worst_pde = 0.0
    ratios = []
    stable = True
    for case in range(10):
        q = 1 + case % 2
        field = _random_field(rng, q)
        chain = build_chain(field, order=6)
        R = chain.radius
        z = complex_ball_points(q, 0.4 * R, 4)
        for s, t in ((0.0, 1.0), (0.7, 2.0)):
            pushed = chain.evolution.point(s, t, z)
            gap = np.max(np.abs(chain.evaluate(s, z) - chain.evaluate(t, pushed)))
            worst_sub = max(worst_sub, float(gap))
        samples = [(0.5, z[:, 0]), (1.3, z[:, 1])]
        coarse = pde_residual(chain, samples, h=1e-3)
        fine = pde_residual(chain, samples, h=5e-4)
        worst_pde = max(worst_pde, coarse)
        if coarse > 1e-11:  # above the integrator floor the order is visible
            ratios.append(coarse / fine)
        ball = complex_ball_points(q, 0.95 * R, 16)
        sups = [float(np.max(np.abs(chain.normalized_jet(t).evaluate_many(ball))))
                for t in np.arange(0.0, chain.horizon + 0.01, 0.5)]
        half = len(sups) // 2
        stable &= np.isfinite(sups).all() and max(sups[half:]) <= 1.25 * max(sups[:half])
    ok = (worst_sub <= 1e-8 and worst_pde <= 1e-6 and stable
          and ratios and all(3.0 <= r <= 5.0 for r in ratios))
    assert _verdict(7, ok, f"10 fields, subordination {worst_sub:.2e}, "
                           f"pde residual {worst_pde:.2e}, halving ratios "
                           f"[{min(ratios):.2f}, {max(ratios):.2f}], sup stable", t0)


def test_criterion_08_range_exhaustion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    A = np.diag([0.5, 0.3]).astype(complex)
    lin = (PolyJet.from_linear(A, 3),) * 3
    cases = [
        build_normal_form(koenigs_family(0.5, 0.1, horizon=2), extension=24),
        build_normal_form(random_optimal_family(rng, 2, 2, horizon=3, hi=0.7),
                          extension=24),
        build_normal_form(DiscreteEvolutionFamily(A, lin), extension=24),
    ]
    steps = []
    ok = True
    for res in cases:
        rep = range_growth_check(res)
        ok &= rep.nondecreasing
        ok &= rep.achieved_step is not None and rep.achieved_step <= rep.step_bound
        steps.append((rep.achieved_step, rep.step_bound))
    assert _verdict(8, ok, "3 families, 1000x reached at steps "
                    + ", ".join(f"{a}<={b}" for a, b in steps), t0)


def test_criterion_09_cauchy_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    families = [koenigs_family(0.5, 0.1, horizon=2)]
    for case in range(5):
        families.append(random_optimal_family(rng, 1 + case % 2, 2 + case % 2,
                                              horizon=2, hi=0.7))
    worst_ratio = 0.0
    for fam in families:
        res = build_normal_form(fam, extension=12)
        cs = res.constants
        q = res.q
        z = complex_ball_points(q, 0.999 * cs.s, 6)
        w = z.copy()
        prev = res.normalizers[0].evaluate_many(z)
        for m in range(1, min(res.work_horizon, 12)):
            w = res.family.step(m - 1).evaluate_many(w)
            u = res.triangular.inverse_evaluate(0, m, res.normalizers[m].evaluate_many(w))
            inc = float(np.max(np.abs(u - prev)))
            bound = 2.0 * cs.increment_bound(m - 1) + 1e-13
            worst_ratio = max(worst_ratio, inc / bound)
            prev = u
    ok = worst_ratio <= 1.0
    assert _verdict(9, ok, f"6 families, worst increment/bound {worst_ratio:.3f}", t0)


def _run_cli(tmp_path, name, doc, *extra):
    inp = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}-report.json"
    inp.write_text(json.dumps(doc))
    rc = cli_main(["verify", "--input", str(inp), "--output", str(out), *extra])
    return rc, json.loads(out.read_text())


def test_criterion_10_verify_harness(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    docs = []
    good = True
    for q in (1, 2, 2):
        chain = build_chain(_random_field(rng, q))
        docs.append(json.loads(json.dumps(chain.to_json_dict())))
        rc, rep = _run_cli(tmp_path, f"good-q{q}-{len(docs)}", docs[-1])
        good &= rc == 0 and rep["passed"]

    perturbed = json.loads(json.dumps(docs[0]))
    perturbed["jets"][1]["terms"][1]["re"] += 1e-3
    rc1, rep1 = _run_cli(tmp_path, "perturbed", perturbed)
    fault1 = rc1 == 1 and "transition-field-match" in rep1["failures"]

    blowup = json.loads(json.dumps(docs[0]))
    for n, jet in enumerate(blowup["jets"]):
        for term in jet["terms"]:
            if sum(term["index"]) > 1:
                term["re"] *= 20.0 ** n
                term["im"] *= 20.0 ** n
    rc2, rep2 = _run_cli(tmp_path, "blowup", blowup)
    fault2 = rc2 == 1 and "normalization-bound" in rep2["failures"]

    field = HerglotzFieldSpec(np.array([[-0.7]], dtype=complex), 2, (), horizon=2.0)
    R = 0.5
    pts = verification_samples(1, 0.9 * R, 12)
    c = -1.0 / (pts[0, 0] + pts[0, 1])
    jets = tuple(
        PolyJet.from_terms(1, 2, {(0, (1,)): math.exp(0.7 * n),
                                  (0, (2,)): math.exp(0.7 * n) * c})
        for n in range(3))
    collide = LoewnerChain(
        field=field, horizon=2, radius=R,
        chain_jets=jets, certificate=None, certificate_step=1.0,
        resonances=ResonanceReport(mode="multiplicative", tolerance=1e-9,
                                   p=2, resonances=()))
    rc3, rep3 = _run_cli(tmp_path, "collide", collide.to_json_dict())
    fault3 = rc3 == 1 and "univalence" in rep3["failures"]

    ok = good and fault1 and fault2 and fault3
    assert _verdict(10, ok, f"3 chains pass={good}, perturbed={fault1}, "
                            f"unbounded={fault2}, non-injective={fault3}", t0)
