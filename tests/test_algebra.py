import random
from fractions import Fraction
from math import comb, factorial

import pytest

from superweyl import (
    InhomogeneityError,
    NilpotencyError,
    Signature,
    SignatureMismatchError,
    SuperElement,
    UndefinedDegreeError,
    degree_of,
    elem_add,
    elem_mul,
    involution,
    mono_mul,
    power_gen,
    scalar_mul,
    word_element,
)
from helpers import act, random_element, random_homogeneous, random_signature, random_word, sample_basis

MINUS_11 = Signature("minus", (0, 1))
MINUS_ODD2 = Signature("minus", (1, 1))
PLUS_1 = Signature("plus", (0,))


def x(sig, i):
    return SuperElement.x(sig, i)


def d(sig, i):
    return SuperElement.d(sig, i)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature("both", (0,))
    with pytest.raises(ValueError):
        Signature("minus", ())
    with pytest.raises(ValueError):
        Signature("minus", (2,))
    for bad in ("1", True, 1.0):
        with pytest.raises(ValueError):
            Signature("minus", (0, bad))


def test_lambda_table():
    for sig in (Signature("minus", (0, 0, 1, 1)), Signature("plus", (0, 0, 1, 1))):
        n = sig.n
        for i in range(n):
            for j in range(n):
                assert sig.lam(i, j) in (-1, 1)
                assert sig.lam(i, j) == sig.lam(j, i)
        for i in range(n):
            odd = sig.parity[i] == 1
            expected_clifford = odd if sig.sign == "minus" else not odd
            assert sig.is_clifford(i) == expected_clifford


def test_mono_mul_defining_relation():
    # d_1 x_1 = 1 + x_1 d_1 on an even index of the minus variant
    res = d(MINUS_11, 0) * x(MINUS_11, 0)
    assert res == SuperElement.one(MINUS_11) + x(MINUS_11, 0) * d(MINUS_11, 0)


def test_mono_mul_odd_square_zero():
    assert (x(MINUS_11, 1) * x(MINUS_11, 1)).is_zero


def test_mono_mul_cross_term_example():
    # (x1 d2)(x2 d1) = x1 d1 - x1 d1 x2 d2 when both indices are odd
    sig = MINUS_ODD2
    a = word_element(sig, [("x", 0), ("d", 1)])
    b = word_element(sig, [("x", 1), ("d", 0)])
    expected = word_element(sig, [("x", 0), ("d", 0)]) - word_element(
        sig, [("x", 0), ("d", 0), ("x", 1), ("d", 1)]
    )
    assert a * b == expected


def test_mono_mul_plus_clifford_relation():
    # d_i x_i = 1 - x_i d_i on an even index of the plus variant
    res = d(PLUS_1, 0) * x(PLUS_1, 0)
    assert res == SuperElement.one(PLUS_1) - x(PLUS_1, 0) * d(PLUS_1, 0)


def test_mono_mul_interface():
    m1 = power_gen(MINUS_11, 0, 1)
    m2 = power_gen(MINUS_11, 0, -1)
    res = mono_mul(MINUS_11, m1, m2)
    assert res == x(MINUS_11, 0) * d(MINUS_11, 0)


def test_elem_ring_basics():
    rng = random.Random(7)
    a = random_element(MINUS_11, rng)
    assert elem_add(a, scalar_mul(-1, a)).is_zero
    assert elem_mul(SuperElement.one(MINUS_11), a) == a
    assert elem_mul(a, SuperElement.one(MINUS_11)) == a


def test_clifford_square_root_of_one():
    s = x(PLUS_1, 0) + d(PLUS_1, 0)
    assert s * s == SuperElement.one(PLUS_1)


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        x(MINUS_11, 0) * x(MINUS_ODD2, 0)
    with pytest.raises(SignatureMismatchError):
        x(MINUS_11, 0) + x(MINUS_ODD2, 0)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        scalar_mul(0.5, x(MINUS_11, 0))


def test_involution_generators():
    assert involution(x(MINUS_11, 0)) == d(MINUS_11, 0)
    # words reverse and renormalize: (x1 x2)* = lam(0,1) d1 d2
    sig = MINUS_ODD2
    res = involution(word_element(sig, [("x", 0), ("x", 1)]))
    assert res == -word_element(sig, [("d", 0), ("d", 1)])


def test_involution_fixes_dx():
    u = word_element(MINUS_11, [("d", 0), ("x", 0)])
    assert involution(u) == u


def test_involution_involutive():
    el = word_element(MINUS_11, [("x", 0), ("x", 1), ("d", 1)])
    assert involution(involution(el)) == el


def test_degree_examples():
    assert degree_of(word_element(MINUS_11, [("x", 0), ("d", 1)])) == (1, -1)
    el = SuperElement.one(MINUS_11) + word_element(MINUS_11, [("x", 0), ("d", 0)])
    assert degree_of(el) == (0, 0)
    with pytest.raises(InhomogeneityError) as err:
        degree_of(x(MINUS_11, 0) + x(MINUS_11, 1))
    assert (1, 0) in err.value.degrees and (0, 1) in err.value.degrees
    with pytest.raises(UndefinedDegreeError):
        degree_of(SuperElement.zero(MINUS_11))


def test_power_gen():
    assert power_gen(MINUS_11, 0, 2) == ((2, 0), (0, 0))
    assert power_gen(MINUS_11, 1, -1) == ((0, 0), (0, 1))
    with pytest.raises(NilpotencyError):
        power_gen(MINUS_11, 1, 2)


def test_constructor_rejects_vanishing_monomial():
    with pytest.raises(NilpotencyError):
        SuperElement(MINUS_11, {((0, 0), (2, 0)): 1})


def test_rendering():
    sig = MINUS_11
    el = scalar_mul(Fraction(1, 2), SuperElement.one(sig)) + word_element(
        sig, [("x", 0), ("d", 0)]
    )
    assert str(el) == "1/2 + x1*d1"
    assert str(SuperElement.zero(sig)) == "0"
    assert str(-x(sig, 0) * x(sig, 0)) == "-x1^2"
    # ordering: degree vectors sort lexicographically, d-heavy terms first
    el2 = scalar_mul(Fraction(3, 2), x(sig, 0)) - scalar_mul(2, d(sig, 1))
    assert str(el2) == "-2*d2 + (3/2)*x1"


def test_confluence_fold_order_independence():
    rng = random.Random(20240501)
    for _ in range(200):
        sig = random_signature(rng)
        word = random_word(sig, rng, max_len=8)
        left = SuperElement.one(sig)
        for letter in word:
            left = left * word_element(sig, [letter])
        right = SuperElement.one(sig)
        for letter in reversed(word):
            right = word_element(sig, [letter]) * right
        direct = word_element(sig, word)
        assert left == right == direct


def test_associativity_random():
    rng = random.Random(99)
    for _ in range(60):
        sig = random_signature(rng)
        a = random_element(sig, rng)
        b = random_element(sig, rng)
        c = random_element(sig, rng)
        assert (a * b) * c == a * (b * c)


def test_involution_antiautomorphism_random():
    rng = random.Random(4242)
    for _ in range(60):
        sig = random_signature(rng)
        a = random_element(sig, rng)
        b = random_element(sig, rng)
        assert involution(a * b) == involution(b) * involution(a)
        assert involution(involution(a)) == a


def test_star_product_nonzero_on_homogeneous():
    rng = random.Random(515)
    for _ in range(60):
        sig = random_signature(rng)
        a = random_homogeneous(sig, rng)
        assert not (involution(a) * a).is_zero


def test_degree_additivity():
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        sig = random_signature(rng)
        a = random_homogeneous(sig, rng)
        b = random_homogeneous(sig, rng)
        ab = a * b
        if ab.is_zero:
            continue
        assert degree_of(ab) == tuple(
            da + db for da, db in zip(degree_of(a), degree_of(b))
        )
        checked += 1


def test_action_oracle_defining_relations():
    # the oracle itself satisfies the defining relations, for both variants:
    # ab +/- (-1)^(p_i p_j) ba is delta_ij for (d_i, x_j) pairs and 0 for
    # (x, x) and (d, d) pairs, with + on the plus variant
    rng = random.Random(404)
    for sig in (Signature("minus", (0, 1, 1)), Signature("plus", (0, 0, 1))):
        s = 1 if sig.sign == "plus" else -1
        for _ in range(60):
            i = rng.randrange(sig.n)
            j = rng.randrange(sig.n)
            kinds = rng.choice([("d", "x"), ("x", "x"), ("d", "d")])
            a = word_element(sig, [(kinds[0], i)])
            b = word_element(sig, [(kinds[1], j)])
            koszul = -1 if (sig.parity[i] and sig.parity[j]) else 1
            comm = a * b + s * koszul * (b * a)
            expected = (
                SuperElement.one(sig)
                if kinds == ("d", "x") and i == j
                else SuperElement.zero(sig)
            )
            vec = sample_basis(sig, rng)
            assert act(sig, comm, vec) == act(sig, expected, vec)


def test_engine_matches_action_oracle():
    rng = random.Random(2718)
    for sig in (Signature("minus", (0, 1)), Signature("minus", (1, 1)),
                Signature("plus", (0, 1)), Signature("plus", (0, 0))):
        for _ in range(25):
            a = random_element(sig, rng, max_terms=2, budget=3)
            b = random_element(sig, rng, max_terms=2, budget=3)
            vec = sample_basis(sig, rng)
            via_product = act(sig, a * b, vec)
            via_composition = act(sig, a, act(sig, b, vec))
            assert via_product == via_composition


def _random_monomial(sig, rng, max_exp):
    return tuple(
        (rng.randint(0, 1), rng.randint(0, 1)) if sig.is_clifford(i)
        else (rng.randint(0, max_exp), rng.randint(0, max_exp))
        for i in range(sig.n)
    )


ALL_SIGNATURES_N3 = [
    Signature(sign, tuple((bits >> i) & 1 for i in range(n)))
    for sign in ("minus", "plus")
    for n in (1, 2, 3)
    for bits in range(1 << n)
]


@pytest.mark.parametrize("sig", ALL_SIGNATURES_N3, ids=str)
def test_product_matches_action_oracle_large_exponents(sig):
    # Weyl exponents up to 12 on a basis vector with room for d^24
    rng = random.Random(repr(sig))
    for _ in range(3):
        a = SuperElement.from_mono(sig, _random_monomial(sig, rng, 12))
        b = SuperElement.from_mono(sig, _random_monomial(sig, rng, 12))
        vec = sample_basis(sig, rng, max_poly=24)
        assert act(sig, a * b, vec) == act(sig, a, act(sig, b, vec))


@pytest.mark.parametrize("sig", [Signature("minus", (1, 0)), Signature("plus", (0, 1))], ids=str)
def test_word_element_weyl_identity_k30(sig):
    # d^30 x^30 = sum_j C(30,j)^2 j! x^(30-j) d^(30-j) on the Weyl index 1
    k = 30
    got = word_element(sig, [("d", 1)] * k + [("x", 1)] * k)
    expected = {
        ((0, 0), (k - j, k - j)): Fraction(comb(k, j) ** 2 * factorial(j))
        for j in range(k + 1)
    }
    assert got.terms == expected


def test_star_closed_form_random_monomials():
    rng = random.Random(8080)
    for sig in ALL_SIGNATURES_N3:
        for _ in range(10):
            mono = _random_monomial(sig, rng, 12)
            sign = 1
            for i in range(sig.n):
                for j in range(i + 1, sig.n):
                    sign *= sig.lam(i, j) ** (sum(mono[i]) * sum(mono[j]))
            star = involution(SuperElement.from_mono(sig, mono, 3))
            assert star.terms == {tuple((b, a) for a, b in mono): Fraction(3 * sign)}
            other = SuperElement.from_mono(sig, _random_monomial(sig, rng, 6))
            a = SuperElement.from_mono(sig, mono)
            assert involution(a * other) == involution(other) * involution(a)


@pytest.mark.parametrize("mono", [((1.5, True),), ((True, 0),), (("1", 0),), ((1.0, 0),)])
def test_from_mono_rejects_non_int_exponents(mono):
    with pytest.raises(ValueError):
        SuperElement.from_mono(Signature("minus", (0,)), mono)
