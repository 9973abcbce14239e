"""Truncated jet algebra against symbolic and combinatorial oracles."""

import itertools
import json
import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

from loewner import PolyJet, compose, gamma_matrix, invert, is_triangular
from loewner.cli import report_text
from loewner.jets import (
    _PRODUCT_TRIPLES,
    PowerTable,
    _gradient_bounds,
    _monomial_values,
    _mul_plan,
    _power_plan,
    _power_rows,
    _tables,
    enumerate_indices,
    evaluate_triangular_inverse_many,
    gradient_bound_matrix,
    index_count,
    majorant_bound,
)
from loewner.spectral import substitution_rows

from conftest import HomogeneousMap, homogeneous_part, random_polyjet


# ---------------------------------------------------------------------- #
# enumeration


def test_enumerate_indices_examples():
    assert enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_indices(1, 5) == [(5,)]
    assert len(enumerate_indices(3, 2)) == 6


@pytest.mark.parametrize("q,degree", [(1, 4), (2, 3), (3, 2), (4, 5)])
def test_index_count_is_stars_and_bars(q, degree):
    expected = math.comb(degree + q - 1, q - 1)
    assert index_count(q, degree) == expected
    assert len(enumerate_indices(q, degree)) == expected
    # dim H_i = q * C(i+q-1, q-1)
    assert HomogeneousMap.zero(q, degree).flat.size == q * expected


def test_enumeration_is_graded_lex():
    seen = enumerate_indices(3, 3)
    assert seen == sorted(seen, reverse=True)
    assert all(sum(I) == 3 for I in seen)


# ---------------------------------------------------------------------- #
# composition against sympy


def _to_sympy(jet, symbols):
    out = [sympy.Integer(0)] * jet.q
    for j, I, c in jet.nonzero_terms():
        mono = sympy.prod([s ** e for s, e in zip(symbols, I)])
        out[j] += sympy.nsimplify(complex(c), rational=False) * mono
    return out


def _sympy_compose(f_exprs, g_exprs, symbols, order):
    """Truncated coefficients of f o g as {exponent tuple: complex}."""
    subs = dict(zip(symbols, g_exprs))
    out = []
    for expr in f_exprs:
        expanded = sympy.expand(expr.subs(subs, simultaneous=True))
        poly = sympy.Poly(expanded, *symbols)
        out.append({mono: complex(c) for mono, c in poly.terms()
                    if sum(mono) <= order})
    return out


def test_compose_identity_is_identity():
    e = PolyJet.identity(2, 3)
    assert compose(e, e, 3) == e


def test_compose_scalar_example():
    f = PolyJet.from_terms(1, 2, {(0, (1,)): 1, (0, (2,)): 1})
    g = PolyJet.from_terms(1, 2, {(0, (1,)): 2})
    out = compose(f, g, 2)
    assert out.coefficient(0, (1,)) == 2
    assert out.coefficient(0, (2,)) == 4


def test_compose_two_dim_example():
    f = PolyJet.from_terms(2, 2, {(0, (1, 0)): 1, (1, (0, 1)): 1, (1, (2, 0)): 1})
    g = PolyJet.from_terms(2, 2, {(0, (1, 0)): 1, (0, (0, 2)): 1, (1, (0, 1)): 1})
    out = compose(f, g, 2)
    expect = PolyJet.from_terms(2, 2, {(0, (1, 0)): 1, (0, (0, 2)): 1,
                                       (1, (0, 1)): 1, (1, (2, 0)): 1})
    assert out == expect


@pytest.mark.parametrize("seed", [0, 1])
def test_compose_matches_symbolic_expansion(seed):
    rng = np.random.default_rng(seed)
    q, order = 2, 3
    f = random_polyjet(rng, q, order, scale=0.8)
    g = random_polyjet(rng, q, order, linear=0.5 * np.eye(q), scale=0.8)
    out = compose(f, g, order)
    symbols = sympy.symbols(f"z0:{q}")
    oracle = _sympy_compose(_to_sympy(f, symbols), _to_sympy(g, symbols),
                            symbols, order)
    for j in range(q):
        for mono, ref in oracle[j].items():
            got = complex(out.coefficient(j, mono))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))
        for j2, I, c in out.nonzero_terms():
            if j2 == j:
                assert abs(c - oracle[j].get(tuple(I), 0.0)) < 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(PolyJet.identity(2, 2), PolyJet.identity(3, 2))


# ---------------------------------------------------------------------- #
# inversion


def test_invert_linear_is_matrix_inverse():
    A = np.array([[0.5, 0.0], [0.2, 0.25]], dtype=complex)
    inv = invert(PolyJet.from_linear(A, 3))
    assert np.allclose(inv.linear_matrix, np.linalg.inv(A))
    assert all(sum(I) == 1 for _, I, _ in inv.nonzero_terms())


def test_invert_reversion_series():
    # z + z^2 reverts to z - z^2 + 2z^3 - 5z^4 + 14z^5 (Catalan signs)
    f = PolyJet.from_terms(1, 5, {(0, (1,)): 1, (0, (2,)): 1})
    g = invert(f)
    coeffs = [g.coefficient(0, (d,)) for d in range(1, 6)]
    assert np.allclose(coeffs, [1, -1, 2, -5, 14], atol=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_invert_satisfies_symbolic_contract(seed):
    # f(g(z)) expanded symbolically must be z through the truncation order
    rng = np.random.default_rng(seed)
    f = random_polyjet(rng, 1, 6, linear=np.array([[0.7 + 0.1j]]), scale=0.6)
    g = invert(f)
    symbols = sympy.symbols("z0:1")
    (round_trip,) = _sympy_compose(_to_sympy(f, symbols), _to_sympy(g, symbols),
                                   symbols, 6)
    assert abs(round_trip.get((1,), 0.0) - 1) < 1e-10
    for d in range(2, 7):
        assert abs(round_trip.get((d,), 0.0)) < 1e-9


def test_inverse_contract_random():
    rng = np.random.default_rng(11)
    for q, order in [(1, 6), (2, 4), (3, 3)]:
        f = random_polyjet(rng, q, order, scale=0.5)
        g = invert(f)
        e = PolyJet.identity(q, order)
        scale = max(1.0, f.max_coeff, g.max_coeff)
        assert (compose(f, g, order) - e).max_coeff <= 1e-12 * scale
        assert (compose(g, f, order) - e).max_coeff <= 1e-12 * scale
        assert (invert(g) - f).max_coeff <= 1e-11 * scale


def test_invert_singular_linear_part():
    f = PolyJet.from_terms(2, 2, {(0, (1, 0)): 1.0, (1, (2, 0)): 1.0})
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        invert(f)


# ---------------------------------------------------------------------- #
# homogeneous decomposition and evaluation


def test_homogeneous_part_examples():
    A = np.array([[0.5, 0.1], [0.0, 0.3]], dtype=complex)
    lin = PolyJet.from_linear(A, 4)
    for d in range(2, 5):
        assert homogeneous_part(lin, d).is_zero()
    f = PolyJet.from_terms(1, 3, {(0, (1,)): 1, (0, (2,)): 3})
    assert homogeneous_part(f, 2).flat[0] == 3


def test_homogeneous_parts_reassemble():
    rng = np.random.default_rng(5)
    f = random_polyjet(rng, 2, 4, scale=1.0)
    total = PolyJet.zero(2, 4)
    for d in range(1, 5):
        total = total + homogeneous_part(f, d).to_jet(4)
    assert total == f


def test_homogeneous_part_out_of_range():
    f = PolyJet.identity(2, 3)
    with pytest.raises(ValueError):
        homogeneous_part(f, 4)


def test_evaluate_examples():
    e = PolyJet.identity(2, 3)
    z = np.array([0.3 + 0.1j, -0.2j])
    assert np.allclose(e.evaluate(z), z)
    f = PolyJet.from_terms(1, 2, {(0, (1,)): 1, (0, (2,)): 1})
    assert abs(f.evaluate([0.1])[0] - 0.11) < 1e-15


def test_evaluate_compose_two_paths():
    rng = np.random.default_rng(9)
    f = random_polyjet(rng, 2, 4, scale=1.0)
    g = random_polyjet(rng, 2, 4, linear=0.5 * np.eye(2), scale=1.0)
    z = 1e-3 * np.array([0.7 + 0.2j, -0.4 + 0.9j])
    direct = compose(f, g, 4).evaluate(z)
    nested = f.evaluate(g.evaluate(z))
    scale = max(1.0, f.max_coeff * g.max_coeff)
    # the two paths differ only beyond the truncation order
    assert np.max(np.abs(direct - nested)) <= 1e-12 * scale


# ---------------------------------------------------------------------- #
# hypothesis properties

coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def jets(q, order):
    t = PolyJet.zero(q, order).tables
    mask = (np.asarray(t.degrees) >= 2).astype(float)
    n = q * t.count
    return st.lists(coeff, min_size=n, max_size=n).map(
        lambda vals: PolyJet.identity(q, order) + PolyJet(
            q, order, np.array(vals, dtype=complex).reshape(q, -1) * mask))


@given(jets(2, 3), jets(2, 3), jets(2, 3))
def test_composition_associative(f, g, h):
    left = compose(compose(f, g, 3), h, 3)
    right = compose(f, compose(g, h, 3), 3)
    scale = max(1.0, f.max_coeff, g.max_coeff, h.max_coeff) ** 3
    assert (left - right).max_coeff <= 1e-10 * scale


@given(jets(2, 3))
def test_inverse_contract_property(f):
    g = invert(f)
    residual = (compose(f, g, 3) - PolyJet.identity(2, 3)).max_coeff
    assert residual <= 1e-10 * max(1.0, g.max_coeff) ** 3


# ---------------------------------------------------------------------- #
# triangular structure


def _triangular_jet(diag, extra):
    q = len(diag)
    terms = {(j, _unit(q, j)): diag[j] for j in range(q)}
    terms.update(extra)
    return PolyJet.from_terms(q, 3, terms)


def _unit(q, j):
    e = [0] * q
    e[j] = 1
    return tuple(e)


def test_triangular_closure_under_compose_and_invert():
    f = _triangular_jet([0.5, 0.3], {(1, (2, 0)): 0.7, (1, (3, 0)): -0.2})
    g = _triangular_jet([0.8, 0.6], {(1, (2, 0)): 0.1j})
    assert is_triangular(f) and is_triangular(g)
    assert is_triangular(compose(f, g, 3))
    assert is_triangular(invert(f))
    leak = PolyJet.from_terms(2, 3, {(0, (1, 0)): 0.5, (1, (0, 1)): 0.3,
                                     (0, (0, 2)): 1.0})
    assert not is_triangular(leak)


# ---------------------------------------------------------------------- #
# serialization


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(21)
    f = random_polyjet(rng, 3, 3, scale=0.9)
    data = json.loads(json.dumps(f.to_json_dict()))
    assert data["q"] == 3 and data["order"] == 3
    back = PolyJet.from_json_dict(data)
    assert np.array_equal(back.coeffs, f.coeffs)
    keys = [(t["component"], tuple(t["index"])) for t in data["terms"]]
    assert keys == sorted(keys, key=lambda k: (k[0], sum(k[1]),
                                               tuple(-e for e in k[1])))


def test_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        PolyJet.from_json_dict({"q": 1, "order": 0, "terms": []})


def test_json_rejects_a_term_listed_twice():
    # keeping either value would be a guess, and from_terms would add them
    data = {"q": 1, "order": 2, "terms": [
        {"component": 1, "index": [2], "re": 1.0, "im": 0.0},
        {"component": 1, "index": [2], "re": 2.0, "im": 0.0}]}
    with pytest.raises(ValueError, match=r"term \(component 1, index \[2\]\) is listed twice"):
        PolyJet.from_json_dict(data)


# finite floats, with signed zeros, subnormals and extreme magnitudes drawn
# on purpose
_parts = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
     1e300, -1e300, 1e-300, -1e-300])


@st.composite
def sparse_jets(draw):
    q = draw(st.integers(1, 4))
    order = draw(st.integers(1, 5))
    count = PolyJet.zero(q, order).tables.count
    c = np.zeros((q, count), dtype=complex)
    for j, r, re, im in draw(st.lists(st.tuples(
            st.integers(0, q - 1), st.integers(1, count - 1), _parts, _parts),
            max_size=24)):
        c[j, r] = complex(re, im)
    return PolyJet(q, order, c)


def _per_element_document(f):
    """PolyJet.to_json_dict as a loop over numpy scalars, the reference for
    the flat nonzero walk."""
    t = f.tables
    terms = []
    for j in range(f.q):
        for r in range(1, t.count):
            c = f.coeffs[j, r]
            if c != 0:
                terms.append({"component": j + 1, "index": list(t.indices[r]),
                              "re": float(c.real), "im": float(c.imag)})
    return {"q": f.q, "order": f.order, "terms": terms}


def _per_element_terms(f):
    """PolyJet.nonzero_terms as a loop over numpy scalars."""
    return [(j, f.tables.indices[r], complex(f.coeffs[j, r]))
            for j in range(f.q) for r in np.nonzero(f.coeffs[j])[0]]


_WALK_EDGES = PolyJet(2, 2, np.array([
    [0, -0.0 + 1e300j, 5e-324 - 0.0j, 0j, -1e-300 + 0j, -0.0 - 0.0j],
    [0, 0j, 0.0 - 5e-324j, 1e-300 - 1e300j, -0.0 + 0j, 2.5 - 0.0j]]))


@example(PolyJet.zero(3, 4))
@example(_WALK_EDGES)
@given(sparse_jets())
def test_nonzero_walk_matches_the_per_element_loop(f):
    # json.dumps without sort_keys keeps the dict order, and repr tells
    # -0.0 from 0.0
    doc = f.to_json_dict()
    assert json.dumps(doc) == json.dumps(_per_element_document(f))
    assert all(type(t[part]) is float for t in doc["terms"] for part in ("re", "im"))
    terms = f.nonzero_terms()
    assert repr(terms) == repr(_per_element_terms(f))
    assert all(type(j) is int and type(c) is complex for j, _, c in terms)


@given(sparse_jets())
def test_json_report_round_trip_keeps_every_bit(f):
    back = PolyJet.from_json_dict(json.loads(report_text(f.to_json_dict())))
    # a coefficient zero in both parts is not written and comes back as +0;
    # every written part keeps its sign and all its bits
    want = np.where(f.coeffs == 0, 0j, f.coeffs)
    assert back.coeffs.tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# bounds and the filtered multiplication plan


def test_majorant_bound_dominates_samples():
    rng = np.random.default_rng(13)
    f = random_polyjet(rng, 2, 3, scale=1.0)
    for radius in (0.1, 0.5):
        bound = majorant_bound(f, radius)
        pts = radius * np.exp(2j * np.pi * rng.uniform(size=(2, 64)))
        vals = np.abs(f.evaluate_many(pts)).max()
        assert vals <= bound + 1e-12


def _gradient_bound_reference(f, radius):
    """The term loop gradient_bound_matrix replaced, term by term."""
    out = np.zeros((f.q, f.q))
    for j, I, c in f.nonzero_terms():
        d = sum(I)
        for k, e in enumerate(I):
            if e > 0:
                out[j, k] += abs(c) * e * radius ** (d - 1)
    return out


@pytest.mark.parametrize("q,order", [(1, 5), (2, 8), (3, 6), (4, 6)])
def test_gradient_bound_matches_term_loop(q, order):
    rng = np.random.default_rng(40 + 10 * q + order)
    jets = [random_polyjet(rng, q, order, linear=rng.normal(size=(q, q)),
                           scale=10.0 ** rng.uniform(-3, 3)) for _ in range(4)]
    jets.append(_sparse_outer(rng, q, order))
    jets.append(PolyJet.zero(q, order))
    stack = np.stack([f.coeffs for f in jets])
    for radius in (0.5, 0.37, 0.123, 1e-200, 0.0):
        stacked = _gradient_bounds(stack, jets[0].tables, radius)
        for f, g in zip(jets, stacked):
            assert np.array_equal(gradient_bound_matrix(f, radius),
                                  _gradient_bound_reference(f, radius))
            assert np.array_equal(g, gradient_bound_matrix(f, radius))


def test_gradient_bound_linear_case():
    A = np.array([[0.5, 0.25], [0.0, 0.3]], dtype=complex)
    g = gradient_bound_matrix(PolyJet.from_linear(A, 3), 0.5)
    assert np.allclose(g, np.abs(A))


def _vec_mul(a, b, q, order, lval_a=0, lval_b=0):
    """One truncated product of two coefficient rows, the per-row reference
    for the power table's grouped products: one bincount over the float
    view, each output part summing its products from 0.0 in _mul_table
    order."""
    ri, rj, bins = _mul_plan(q, order, lval_a, lval_b)
    prod = a[ri] * b[rj]
    return np.bincount(bins, weights=prod.view(float), minlength=2 * a.shape[0]).view(complex)


def test_valuation_filtered_multiply_matches_full():
    q, order = 2, 5
    rng = np.random.default_rng(17)
    t = PolyJet.zero(q, order).tables
    degrees = np.asarray(t.degrees)
    for lva, lvb in itertools.product([0, 1, 2, 3], repeat=2):
        a = rng.normal(size=t.count) + 1j * rng.normal(size=t.count)
        b = rng.normal(size=t.count) + 1j * rng.normal(size=t.count)
        a = a * (degrees >= max(lva, 1))  # honor the declared valuations
        b = b * (degrees >= max(lvb, 1))
        full = _vec_mul(a, b, q, order)
        fast = _vec_mul(a, b, q, order, lva, lvb)
        assert np.allclose(full, fast, atol=1e-14)
        assert _mul_plan(q, order, lva, lvb) is _mul_plan(q, order, lva, lvb)


def _csr_vec_mul(a, b, q, order, lval_a, lval_b):
    """_vec_mul's former scatter: a sparse (count, triples) 0/1 matrix."""
    from scipy.sparse import csr_matrix

    ri, rj, bins = _mul_plan(q, order, lval_a, lval_b)
    rk = bins[::2] // 2
    scatter = csr_matrix((np.ones(ri.size), (rk, np.arange(ri.size))),
                         shape=(PolyJet.zero(q, order).tables.count, ri.size), dtype=float)
    return scatter.dot(a[ri] * b[rj])


def test_bincount_scatter_matches_csr_scatter():
    rng = np.random.default_rng(23)
    for q in range(1, 5):
        for order in range(1, 9):
            t = PolyJet.zero(q, order).tables
            for lva, lvb in ((0, 0), (1, 1), (order - 1, 1), (2, 2), (1, order)):
                a = rng.normal(size=t.count) + 1j * rng.normal(size=t.count)
                b = rng.normal(size=t.count) + 1j * rng.normal(size=t.count)
                a = a * (t.degrees >= max(lva, 1))
                b = b * (t.degrees >= max(lvb, 1))
                # real entries and signed zeros, as real fields produce
                b[::3] = b[::3].real - 0.0j
                a[::4] = -0.0
                got = _vec_mul(a, b, q, order, lva, lvb)
                want = _csr_vec_mul(a, b, q, order, lva, lvb)
                assert got.tobytes() == want.tobytes(), (q, order, lva, lvb)


# ---------------------------------------------------------------------- #
# the power table against the full dense table it replaced


def _dense_power_table(t, gc):
    """Every power g^I, I in rank order, each from its parent's power."""
    pows = np.zeros((t.count, t.count), dtype=complex)
    for r in range(1, t.count):
        k = t.parent_var[r]
        if t.degrees[r] == 1:
            pows[r] = gc[k]
        else:
            pows[r] = _vec_mul(pows[t.parent_rank[r]], gc[k], t.q, t.order,
                               lval_a=int(t.degrees[r]) - 1, lval_b=1)
    return pows


def _dense_compose(f, g):
    t = f.tables
    support = np.nonzero(np.any(f.coeffs != 0, axis=0))[0]
    support = support[t.degrees[support] >= 1]
    if support.size == 0:
        return np.zeros((f.q, t.count), dtype=complex)
    return f.coeffs[:, support] @ _dense_power_table(t, g.coeffs)[support]


def _sparse_outer(rng, q, order):
    """A linear part plus a few monomials, shaped like a field jet."""
    terms = {}
    for _ in range(int(rng.integers(2, 4))):
        d = int(rng.integers(2, order + 1))
        I = enumerate_indices(q, d)[int(rng.integers(index_count(q, d)))]
        terms[(int(rng.integers(q)), I)] = complex(rng.normal(), rng.normal())
    lin = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    return PolyJet.from_linear(lin, order) + PolyJet.from_terms(q, order, terms)


def _k_update_outers(rng, q, order):
    """The normal form's k-update outer maps: the identity plus one
    homogeneous degree, for every degree."""
    outers = []
    for d in range(2, order + 1):
        m = HomogeneousMap.zero(q, d).flat.size
        H = HomogeneousMap.from_flat(q, d, rng.normal(size=m) + 1j * rng.normal(size=m))
        outers.append(PolyJet.identity(q, order) + H.to_jet(order))
    return outers


def _signed_zeros(jet):
    """jet with signed zeros in its nonlinear terms, as real fields produce:
    -0.0 imaginary parts, -0.0 real parts and whole -0.0 coefficients."""
    c = np.array(jet.coeffs)
    lo = 1 + jet.q
    c.imag[:, lo::3] = -0.0
    c.real[:, lo + 1::4] = -0.0
    c[:, lo + 2::5] = -0.0
    return PolyJet(jet.q, jet.order, c)


def _invert_reference(f):
    """invert's degree-by-degree solve over the dense power table."""
    q, t = f.q, f.tables
    Linv = np.linalg.inv(f.linear_matrix)
    g = np.zeros((q, t.count), dtype=complex)
    g[:, 1:1 + q] = Linv
    for d in range(2, f.order + 1):
        lo, hi = t.offsets[d], t.offsets[d + 1]
        h = _dense_compose(f.truncated(d), PolyJet(q, d, g[:, :hi]))
        g[:, lo:hi] = -Linv @ h[:, lo:hi]
    return g


@pytest.mark.parametrize("q,order", [(1, 6), (2, 8), (3, 6), (4, 6)])
def test_compose_matches_dense_power_table(q, order):
    # whatever rows a plan truncates and batches, every coefficient is the
    # one the full table, filled one row at a time, gives: byte for byte
    rng = np.random.default_rng(100 * q + order)
    g = random_polyjet(rng, q, order, linear=rng.normal(size=(q, q)))
    outers = [_sparse_outer(rng, q, order),
              random_polyjet(rng, q, order, linear=rng.normal(size=(q, q))),
              PolyJet.zero(q, order),
              *_k_update_outers(rng, q, order)]
    outers += [_signed_zeros(f) for f in outers]
    # complex linear parts: with a real one, q = 1 products of linear powers
    # are real and round alike however they are formed (numpy's in-place
    # product of one-element arrays rounds differently, for one)
    spun = [random_polyjet(rng, q, order, linear=np.exp(1j * rng.uniform(0, 6, size=(q, q))))
            for _ in range(3)]
    for inner in (g, _signed_zeros(g), *spun):
        for f in outers:
            assert compose(f, inner).coeffs.tobytes() == _dense_compose(f, inner).tobytes()
        assert invert(inner).coeffs.tobytes() == _invert_reference(inner).tobytes()
    # the substitution rows request one degree of a linear inner map
    Ainv = np.linalg.inv(g.linear_matrix)
    for degree in range(2, order + 1):
        lin = PolyJet.from_linear(Ainv, degree)
        t = lin.tables
        dense = _dense_power_table(t, lin.coeffs)[t.offsets[degree]:]
        assert substitution_rows(Ainv, degree).tobytes() == dense.tobytes()


@pytest.mark.parametrize("q,order", [(1, 6), (2, 8), (3, 6), (4, 6)])
def test_power_plan_computes_each_row_only_as_far_as_it_is_read(q, order):
    # support = linear monomials and degree d, the k-update's shape: a
    # degree-e row feeding only degree d is read through order - (d - e)
    rng = np.random.default_rng(500 * q + order)
    t = _tables(q, order)
    gc = random_polyjet(rng, q, order, linear=rng.normal(size=(q, q))).coeffs
    dense = _dense_power_table(t, gc)
    products = 0
    for d in range(2, order + 1):
        rows = np.concatenate([np.arange(1, 1 + q), np.arange(t.offsets[d], t.offsets[d + 1])])
        pos, size, linear, groups = _power_plan(q, order, rows.tobytes())
        _, table = _power_rows(t, gc, rows)
        rank_of = np.argsort(pos)[-size:]
        filled = [rank_of[:linear.size]]
        for start, parents, var, shift, deg, reach in groups:
            ranks = rank_of[start:start + parents.size]
            filled.append(ranks)
            assert np.all(t.degrees[ranks] == deg)
            assert np.all(parents < start)
            assert np.array_equal(rank_of[parents], t.parent_rank[ranks])
            assert np.array_equal(var, t.parent_var[ranks])
            assert reach == (order if deg == d else order - (d - deg))
            width = t.offsets[reach + 1]
            assert table[pos[ranks], :width].tobytes() == dense[ranks, :width].tobytes()
            triples = _mul_plan(q, reach, deg - 1, 1)[0].size
            assert parents.size == 1 or parents.size * triples <= _PRODUCT_TRIPLES
            products += parents.size * triples
        # every row of the parent closure is filled once, parents first
        closure = {int(r) for r in rows}
        for e in range(d, 1, -1):
            closure |= {int(t.parent_rank[r]) for r in closure if t.degrees[r] == e}
        assert sorted(np.concatenate(filled).tolist()) == sorted(closure)
        requested = pos[np.arange(t.offsets[d], t.offsets[d + 1])]
        assert table[requested].tobytes() == dense[t.offsets[d]:t.offsets[d + 1]].tobytes()
    if (q, order) == (4, 6):
        assert products == 235_890   # 541_074 with every row at the full order


@pytest.mark.parametrize("q,order", [(1, 6), (2, 8), (3, 6), (4, 6)])
def test_power_table_compose_matches_compose_at_every_order(q, order):
    # one table at the inner map's order serves every lower order, bit for bit
    rng = np.random.default_rng(300 * q + order)
    g = random_polyjet(rng, q, order, linear=rng.normal(size=(q, q)))
    table = PowerTable(g)
    outers = [_sparse_outer(rng, q, order),
              random_polyjet(rng, q, order, linear=rng.normal(size=(q, q))),
              PolyJet.zero(q, order)]
    for f in outers:
        for d in range(1, order + 1):
            got = table.compose(f, d)
            assert got.order == d
            assert np.array_equal(got.coeffs, compose(f, g, d).coeffs)
    low = random_polyjet(rng, q, order - 1)
    assert table.compose(low).order == order - 1
    assert np.array_equal(table.compose(low).coeffs, compose(low, g).coeffs)


@pytest.mark.parametrize("q,degree", [(1, 4), (2, 5), (3, 3), (4, 3)])
def test_gamma_matrix_matches_dense_substitution_matrix(q, degree):
    rng = np.random.default_rng(7 * q + degree)
    A = np.tril(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) + 2 * np.eye(q)
    Ainv = np.linalg.inv(A)
    lin = PolyJet.from_linear(Ainv, degree)
    t = lin.tables
    lo, hi = t.offsets[degree], t.offsets[degree + 1]
    S_ref = np.ascontiguousarray(_dense_power_table(t, lin.coeffs)[lo:hi, lo:hi].T)
    assert np.array_equal(gamma_matrix(A, degree), np.kron(A, S_ref))


# ---------------------------------------------------------------------- #
# triangular inverse evaluation against the full monomial refill it replaced


def _triangular_inverse_reference(f, w):
    """Forward substitution refilling every monomial value after each z_j."""
    t = f.tables
    lam = np.diagonal(f.linear_matrix)
    m = w.shape[1]
    z = np.zeros((f.q, m), dtype=complex)
    vals = np.zeros((t.count, m), dtype=complex)
    vals[0] = 1.0
    for j in range(f.q):
        acc = np.zeros(m, dtype=complex)
        for r in np.nonzero(f.coeffs[j])[0]:
            I = t.indices[r]
            if sum(I) == 1 and I[j] == 1:
                continue
            acc += f.coeffs[j, r] * vals[r]
        z[j] = (w[j] - acc) / lam[j]
        if j + 1 < f.q:
            vals = _monomial_values(t, z)
    return z


def _monomial_values_per_row(t, points):
    """Reference for _monomial_values: one row per product, in rank order."""
    vals = np.empty((t.count, points.shape[1]), dtype=complex)
    vals[0] = 1.0
    for r in range(1, t.count):
        vals[r] = vals[t.parent_rank[r]] * points[t.parent_var[r]]
    return vals


@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 100), st.integers(0, 2 ** 32 - 1))
def test_monomial_values_match_the_per_row_loop(q, order, m, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))
    t = _tables(q, order)
    assert _monomial_values(t, points).tobytes() == _monomial_values_per_row(t, points).tobytes()


def _random_triangular(rng, q, order, leak=False):
    """Lower-triangular linear part, component j nonlinear in z_0..z_{j-1};
    with leak, one extra monomial per component in the unsolved variables."""
    lin = np.tril(rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q)))
    lin[np.diag_indices(q)] = rng.uniform(0.3, 0.9, size=q) * np.exp(
        2j * np.pi * rng.uniform(size=q))
    coeffs = np.array(random_polyjet(rng, q, order, linear=lin, scale=0.8).coeffs)
    t = PolyJet.zero(q, order).tables
    for r, I in enumerate(t.indices):
        if sum(I) < 2:
            continue
        for j in range(q):
            if any(I[j:]) and not (leak and r % 7 == j):
                coeffs[j, r] = 0.0
    return PolyJet(q, order, coeffs)


@pytest.mark.parametrize("q,order", [(1, 6), (2, 8), (3, 6), (4, 6)])
@pytest.mark.parametrize("m", [1, 7])
def test_triangular_inverse_matches_full_refill(q, order, m):
    rng = np.random.default_rng(1000 * q + 10 * order + m)
    for leak in (False, True):
        f = _random_triangular(rng, q, order, leak)
        assert leak or is_triangular(f)
        w = 0.4 * (rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m)))
        got = evaluate_triangular_inverse_many(f, w)
        assert np.array_equal(got, _triangular_inverse_reference(f, w))
        # the plan is cached on the jet; a second call reads it back
        assert np.array_equal(evaluate_triangular_inverse_many(f, w), got)


def test_triangular_inverse_rejects_vanishing_diagonal_on_every_call():
    f = _random_triangular(np.random.default_rng(3), 2, 3)
    coeffs = np.array(f.coeffs)
    coeffs[1, f.tables.indices.index((0, 1))] = 0.0
    g = PolyJet(2, 3, coeffs)
    for _ in range(2):  # the plan is cached, the refusal is not skipped
        with pytest.raises(ValueError, match="vanishing diagonal"):
            evaluate_triangular_inverse_many(g, np.ones((2, 3)))
