import hashlib
import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

import superweyl.algebra
import superweyl.basering
from superweyl import (
    BaseRingElement,
    Signature,
    SignatureMismatchError,
    SuperElement,
    equals,
    iota_embed,
    project_zero,
    word_element,
)
from superweyl.basering import _power_row, tau_apply, tau_single
from helpers import (
    act, basis_vec, fock_values, product_tau_apply, random_signature, substituted_iota,
)

MINUS_11 = Signature("minus", (0, 1))  # index 0 Weyl-like, index 1 Clifford


def u(sig, i):
    return BaseRingElement.u(sig, i)


def const(sig, c):
    return BaseRingElement.const(sig, c)


def random_ring_element(sig, rng, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(sig.n))
        terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return BaseRingElement(sig, terms)


def test_reduce_idempotent_power():
    assert BaseRingElement(MINUS_11, {(0, 3): 1}) == u(MINUS_11, 1)


def test_reduce_keeps_weyl_power():
    el = BaseRingElement(MINUS_11, {(2, 0): 1})
    assert el == u(MINUS_11, 0) * u(MINUS_11, 0)
    assert el.terms == {(2, 0): Fraction(1)}


def test_reduce_expand_example():
    # u2(u2 + 1) reduces to 2 u2; cross-checked by evaluation at u2 in {0, 1}
    lhs = u(MINUS_11, 1) * (u(MINUS_11, 1) + const(MINUS_11, 1))
    rhs = 2 * u(MINUS_11, 1)
    assert lhs == rhs
    for v in (0, 1):
        assert Fraction(v) * (v + 1) == rhs.evaluate((0, v))


def test_tau_single_step_clifford():
    # one step on a Clifford direction: u -> 1 - u
    got = tau_apply((0, 1), u(MINUS_11, 1))
    assert got == const(MINUS_11, 1) - u(MINUS_11, 1)


def test_tau_double_step_clifford_identity():
    rng = random.Random(5)
    for _ in range(20):
        f = random_ring_element(MINUS_11, rng)
        assert tau_apply((0, 2), f) == f


def test_tau_triple_step_weyl():
    got = tau_apply((3, 0), u(MINUS_11, 0))
    assert got == u(MINUS_11, 0) - const(MINUS_11, 3)


def test_tau_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(30):
        f = random_ring_element(MINUS_11, rng)
        g = random_ring_element(MINUS_11, rng)
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert tau_apply(e, f * g) == tau_apply(e, f) * tau_apply(e, g)
        assert tau_apply(e, f + g) == tau_apply(e, f) + tau_apply(e, g)


def test_tau_group_action():
    rng = random.Random(23)
    for _ in range(30):
        f = random_ring_element(MINUS_11, rng)
        e1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        e2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        combined = tuple(a + b for a, b in zip(e1, e2))
        assert tau_apply(e1, tau_apply(e2, f)) == tau_apply(combined, f)


def test_tau_preserves_idempotent_ideal():
    # tau images of u^2 - u still reduce to zero on Clifford directions
    for k in (1, 2, 3):
        img = tau_single(MINUS_11, 1, k)
        assert img * img - img == BaseRingElement.zero(MINUS_11)


def test_equals():
    assert equals(BaseRingElement(MINUS_11, {(0, 2): 1}), u(MINUS_11, 1))
    assert not equals(u(MINUS_11, 0), u(MINUS_11, 0) - const(MINUS_11, 1))
    with pytest.raises(SignatureMismatchError):
        equals(u(MINUS_11, 0), u(Signature("plus", (0, 1)), 0))


def test_function_evaluation_agrees_with_equality():
    # reduced equality matches agreement as functions: Clifford variables on
    # {0, 1}, the others on a generic integer range
    rng = random.Random(29)
    for _ in range(20):
        f = random_ring_element(MINUS_11, rng)
        g = random_ring_element(MINUS_11, rng)
        pointwise = all(
            f.evaluate((a, b)) == g.evaluate((a, b))
            for a in range(-4, 5)
            for b in (0, 1)
        )
        assert pointwise == (f == g)


def test_iota_examples():
    sig = MINUS_11
    assert iota_embed(u(sig, 0)) == SuperElement.one(sig) + word_element(
        sig, [("x", 0), ("d", 0)]
    )
    assert iota_embed(BaseRingElement.one(sig)) == SuperElement.one(sig)
    prod = word_element(sig, [("d", 0), ("x", 0), ("d", 1), ("x", 1)])
    assert iota_embed(u(sig, 0) * u(sig, 1)) == prod


def test_project_zero_examples():
    sig = MINUS_11
    assert project_zero(word_element(sig, [("x", 0), ("d", 0)])) == u(sig, 0) - const(sig, 1)
    assert project_zero(word_element(sig, [("x", 0), ("d", 1)])).is_zero
    assert project_zero(word_element(sig, [("x", 1), ("d", 1)])) == const(sig, 1) - u(sig, 1)


def test_project_zero_iota_round_trip():
    rng = random.Random(37)
    for sig in (MINUS_11, Signature("plus", (0, 1)), Signature("minus", (1, 0, 1))):
        for _ in range(15):
            r = random_ring_element(sig, rng)
            assert project_zero(iota_embed(r)) == r


def test_rendering():
    sig = Signature("minus", (0, 0, 1))
    el = BaseRingElement(sig, {(2, 0, 1): Fraction(3, 2), (0, 0, 0): Fraction(-1)})
    assert str(el) == "-1 + (3/2)*u1^2*u3"
    assert str(BaseRingElement.zero(sig)) == "0"
    assert str(u(sig, 1) - const(sig, 2)) == "-2 + u2"


@pytest.mark.parametrize("sig", [Signature("minus", (0, 1)), Signature("plus", (1, 0))], ids=str)
def test_project_zero_iota_round_trip_powers(sig):
    for i in range(sig.n):
        for k in range(13):
            r = u(sig, i) ** k
            assert project_zero(iota_embed(r)) == r


@pytest.mark.parametrize("bad", [1.9, True, "1"])
def test_tau_apply_rejects_non_int_exponents(bad):
    sig = Signature("minus", (0,))
    with pytest.raises(ValueError):
        tau_apply((bad,), u(sig, 0))


@pytest.mark.parametrize("exps", [(2.7,), (True,), ("2",)])
def test_ring_element_rejects_non_int_exponents(exps):
    with pytest.raises(ValueError):
        BaseRingElement(Signature("minus", (0,)), {exps: 1})


@pytest.mark.parametrize("call", [
    lambda sig: BaseRingElement(sig, {(1,): 0.5}),
    lambda sig: BaseRingElement(sig, {(1,): "3/2"}),
    lambda sig: BaseRingElement.const(sig, 2.5),
    lambda sig: tau_single(sig, 0, 1.5),
], ids=["float coefficient", "string coefficient", "float constant", "float shift"])
def test_ring_element_rejects_inexact_scalars(call):
    with pytest.raises(TypeError, match="exact rationals"):
        call(Signature("minus", (0,)))


def test_ring_element_keeps_exact_scalars():
    sig = Signature("minus", (0,))
    assert str(BaseRingElement(sig, {(1,): Fraction(1, 2)})) == "(1/2)*u1"
    assert str(BaseRingElement.const(sig, Fraction(5, 2))) == "5/2"
    assert str(tau_single(sig, 0, 2)) == "-2 + u1"


def test_tau_apply_many_terms_matches_termwise():
    # one tau_apply over a sum equals the sum of tau_apply over its terms
    sig = Signature("plus", (0, 1, 0))
    rng = random.Random(11)
    for _ in range(20):
        terms = {
            tuple(rng.randint(0, 3) for _ in range(sig.n)):
                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(6)
        }
        r = BaseRingElement(sig, terms)
        shift = tuple(rng.randint(-3, 3) for _ in range(sig.n))
        termwise = BaseRingElement.zero(sig)
        for exps, c in r.terms.items():
            termwise = termwise + tau_apply(shift, BaseRingElement(sig, {exps: c}))
        assert tau_apply(shift, r) == termwise


ALL_SIGNATURES = [
    Signature(sign, parity) for n in range(1, 5) for sign in ("plus", "minus")
    for parity in itertools.product((0, 1), repeat=n)
]


def _tau_case(sig, rng):
    """An element of up to four terms, zero one time in ten, with int or
    Fraction coefficients, and a shift vector with entries in -4..4."""
    terms = {}
    for _ in range(0 if rng.random() < 0.1 else rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 4) for _ in range(sig.n))
        c = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        terms[exps] = terms.get(exps, 0) + c
    return tuple(rng.randint(-4, 4) for _ in range(sig.n)), BaseRingElement(sig, terms)


def test_tau_apply_matches_the_product_oracle():
    rng = random.Random(1806)
    zeros = 0
    for count in range(2000):
        shift, r = _tau_case(ALL_SIGNATURES[count % len(ALL_SIGNATURES)], rng)
        got, expected = tau_apply(shift, r), product_tau_apply(shift, r)
        assert got == expected
        assert str(got) == str(expected)
        zeros += r.is_zero
    assert zeros > 100


def test_tau_apply_coefficient_types_follow_the_common_denominator():
    # as in iota_embed: all ints when the coefficients share denominator 1,
    # all Fractions otherwise, integral ones included
    rng = random.Random(1807)
    integral_fractions = 0
    for count in range(500):
        shift, r = _tau_case(ALL_SIGNATURES[count % len(ALL_SIGNATURES)], rng)
        integral = all(c.denominator == 1 for c in r.terms.values())
        kinds = {type(c) for c in tau_apply(shift, r).terms.values()}
        assert kinds <= ({int} if integral else {Fraction})
        integral_fractions += integral and Fraction in {type(c) for c in r.terms.values()}
    assert integral_fractions > 20
    sig = Signature("minus", (0, 1))
    got = tau_apply((1, 1), BaseRingElement(sig, {(1, 0): Fraction(4, 2)}))
    assert got.terms == {(1, 0): 2, (0, 0): -2}
    assert all(type(c) is int for c in got.terms.values())
    got = tau_apply((1, 1), BaseRingElement(sig, {(1, 1): Fraction(1, 2), (0, 0): 3}))
    assert got.terms == {
        (0, 0): Fraction(5, 2), (1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2),
        (1, 1): Fraction(-1, 2),
    }
    assert all(type(c) is Fraction for c in got.terms.values())


def test_tau_apply_builds_each_row_once_and_takes_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ring product was taken")

    monkeypatch.setattr(BaseRingElement, "__mul__", refuse)
    monkeypatch.setattr(BaseRingElement, "__pow__", refuse)
    rows, passes = [], []

    def counting_row(*args, row=superweyl.basering._shift_row):
        rows.append(args)
        return row(*args)

    def counting_pass(acc, items, accumulate=superweyl.basering.accumulate_terms):
        passes.append(None)
        return accumulate(acc, items)

    monkeypatch.setattr(superweyl.basering, "_shift_row", counting_row)
    monkeypatch.setattr(superweyl.basering, "accumulate_terms", counting_pass)
    sig = Signature("minus", (0, 1, 0, 1, 0))
    r = BaseRingElement(sig, {
        (3, 1, 2, 1, 4): 1, (3, 0, 2, 1, 0): Fraction(1, 2),
        (0, 1, 5, 0, 4): -4, (3, 1, 0, 1, 1): 2,
    })
    distinct = len({(i, e) for key in r.terms for i, e in enumerate(key)})
    # index 1 takes an odd Clifford shift and index 2 a Weyl shift; index 0
    # has shift 0 and index 3 an even Clifford shift, so neither costs a pass
    got = tau_apply((0, 3, -2, 2, 0), r)
    assert len(rows) == distinct and len(passes) == 2
    rows.clear()
    passes.clear()
    assert tau_apply((0, 0, 0, 4, 0), r) == r and passes == []
    assert str(tau_single(sig, 1, 3)) == "1 - u2" and str(tau_single(sig, 2, -2)) == "2 + u3"
    monkeypatch.undo()
    assert got == product_tau_apply((0, 3, -2, 2, 0), r)


@pytest.mark.parametrize("i", [0, 1], ids=["weyl index", "clifford index"])
def test_tau_single_rejects_non_int_exact_shift(i):
    sig = Signature("minus", (0, 1))
    with pytest.raises(ValueError, match="must be integers"):
        tau_single(sig, i, Fraction(3, 2))
    with pytest.raises(ValueError, match="must be integers"):
        tau_apply((Fraction(3, 2), 0), u(sig, 0))


def test_evaluate_rejects_inexact_points():
    sig = Signature("minus", (0, 0))
    with pytest.raises(TypeError, match="exact rationals"):
        u(sig, 0).evaluate([0.5, "1"])


def test_evaluate_keeps_exact_points():
    sig = Signature("minus", (0, 1))
    r = u(sig, 0) ** 2 - u(sig, 1)
    assert r.evaluate([3, 1]) == 8
    assert r.evaluate([Fraction(1, 2), Fraction(0)]) == Fraction(1, 4)


def _pin_coeff(rng):
    """An int, a proper or negative fraction, or an integral Fraction."""
    return rng.choice((
        rng.randint(-5, 5),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3)),
    ))


def _pinned_ring_elements():
    rng = random.Random(4221)
    for _ in range(40):
        sig = random_signature(rng, max_n=3)

        def exps():
            return tuple(rng.randint(0, 3) for _ in range(sig.n))

        a = BaseRingElement(sig, [(exps(), _pin_coeff(rng)) for _ in range(rng.randint(1, 4))])
        # b repeats a's first term so that a - b cancels it
        b = BaseRingElement(sig, list(a.terms.items())[:1] + [
            (exps(), _pin_coeff(rng)) for _ in range(rng.randint(0, 2))
        ])
        c = BaseRingElement.const(sig, _pin_coeff(rng))
        yield from (a, a + c - b, c, a - a, a * b)


# SHA-256 of str and repr of the elements above, one per line
RENDER_PIN = "e8c249ffec2f26e4b34d85964e0f25f2bdd2eab52f05d4b9737306772e37daae"


def test_render_pin():
    elements = list(_pinned_ring_elements())
    lines = [text for el in elements for text in (str(el), repr(el))]
    assert len(elements) == 200
    assert {el.sig.sign for el in elements} == {"plus", "minus"}
    assert any(el.sig.clifford_indices for el in elements)
    assert any(len(el.sig.clifford_indices) < el.sig.n for el in elements)
    assert "0" in lines and any("/" in s for s in lines) and any(s.startswith("-") for s in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RENDER_PIN


def test_iota_embed_of_an_integer_polynomial_holds_ints():
    sig = Signature("plus", (0, 1))
    r = BaseRingElement(sig, {(2, 1): 3, (1, 0): -2, (0, 0): 5})
    embedded = iota_embed(r)
    assert all(type(c) is int for c in embedded.terms.values())
    as_fractions = BaseRingElement(sig, {e: Fraction(c) for e, c in r.terms.items()})
    assert iota_embed(as_fractions) == embedded
    assert project_zero(embedded) == r


# every sign and parity mix on up to three indices
BRIDGE_SIGNATURES = [
    Signature(sign, parity)
    for n in (1, 2, 3)
    for sign in ("minus", "plus")
    for parity in itertools.product((0, 1), repeat=n)
]


def _bridge_element(sig, rng):
    """Up to three terms with exponents up to 12 on one index and up to 1 on
    the others, so that a Fock grid pinning the degree stays small."""
    high = rng.randrange(sig.n)

    def exps():
        return tuple(rng.randint(0, 12 if i == high else 1) for i in range(sig.n))

    return BaseRingElement(sig, [(exps(), _pin_coeff(rng)) for _ in range(rng.randint(1, 3))])


def _fock_check(a, f):
    """a acts on every basis vector v of a grid as f(u = fock_values(v)).

    The grid takes 0..top on each polynomial index, top the highest power of
    u_i in f or in a's blocks x_i^k d_i^k, and both states of each exterior
    index, so the values on it pin polynomials of either degree."""
    sig = a.sig
    keys = list(f.terms) + [[x for x, _ in mono] for mono in a.terms]
    tops = [max((key[i] for key in keys), default=0) for i in range(sig.n)]
    grid = [
        basis_vec((i for i in sig.clifford_indices if occupied[i]), poly, sig.n)
        for occupied in itertools.product((0, 1), repeat=sig.n)
        if not any(occupied[i] for i in range(sig.n) if not sig.is_clifford(i))
        for poly in itertools.product(*(
            (0,) if sig.is_clifford(i) else range(tops[i] + 1) for i in range(sig.n)
        ))
    ]
    expected = {v: f.evaluate(fock_values(sig, v)) for v in grid}
    assert act(sig, a, dict.fromkeys(grid, Fraction(1))) == {v: c for v, c in expected.items() if c}


def _int_only(el):
    return all(type(c) is int for c in el.terms.values())


def test_bridges_match_the_substitution_and_fock_oracles():
    rng = random.Random(1507)
    for sig in BRIDGE_SIGNATURES:
        for r in (BaseRingElement.zero(sig), _bridge_element(sig, rng), _bridge_element(sig, rng)):
            embedded = iota_embed(r)
            assert embedded == substituted_iota(r)
            assert _int_only(embedded) == all(c.denominator == 1 for c in r.terms.values())
            _fock_check(embedded, r)
            back = project_zero(embedded)
            assert back == r
            assert _int_only(back) == _int_only(embedded)
        # a degree-zero element built from blocks, plus a part of other degree
        blocks = _bridge_element(sig, rng)
        a = SuperElement(sig, {tuple((k, k) for k in key): c for key, c in blocks.terms.items()})
        projected = project_zero(a)
        _fock_check(a, projected)
        assert project_zero(a + 3 * SuperElement.x(sig, 0)) == projected
        assert iota_embed(projected) == a


def _stirling2(n, k):
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def test_power_row_holds_stirling_numbers():
    for e in range(31):
        assert _power_row(False, e) == [_stirling2(e + 1, k + 1) for k in range(e + 1)]
    assert _power_row(True, 0) == [1]
    assert _power_row(True, 1) == [1, -1]


def test_each_bridge_builds_each_row_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial product was taken")

    monkeypatch.setattr(superweyl.algebra, "_mono_product", refuse)
    calls = []
    for name in ("_power_row", "_expand_roots"):
        def counting(*args, row=getattr(superweyl.basering, name)):
            calls.append(args)
            return row(*args)

        monkeypatch.setattr(superweyl.basering, name, counting)
    sig = Signature("plus", (0, 1, 0))
    r = BaseRingElement(sig, {(3, 1, 2): 1, (3, 0, 2): Fraction(1, 2), (0, 1, 5): -4, (3, 1, 0): 2})
    distinct = len({(i, e) for key in r.terms for i, e in enumerate(key)})
    embedded = iota_embed(r)
    assert len(calls) == distinct
    calls.clear()
    assert project_zero(embedded + SuperElement.x(sig, 0)) == r
    assert len(calls) == len({(i, a) for mono in embedded.terms for i, (a, _) in enumerate(mono)})


def test_three_index_round_trip_at_exponent_16():
    sig = Signature("minus", (0, 0, 0))
    r = BaseRingElement(sig, {(16, 16, 16): 1})
    row = [_stirling2(17, k + 1) for k in range(17)]
    embedded = iota_embed(r)
    assert embedded.terms == {
        ((a, a), (b, b), (c, c)): row[a] * row[b] * row[c]
        for a, b, c in itertools.product(range(17), repeat=3)
    }
    assert project_zero(embedded) == r
