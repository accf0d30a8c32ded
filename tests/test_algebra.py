import hashlib
import itertools
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from superweyl import (
    BaseRingElement,
    InhomogeneityError,
    NilpotencyError,
    ResourceCapError,
    Signature,
    SignatureMismatchError,
    SuperElement,
    UndefinedDegreeError,
    degree_of,
    involution,
    mono_mul,
    power_gen,
    word_element,
)
import superweyl.algebra
from superweyl.algebra import MAX_FOLD_WORK, MAX_WORD_TERMS, SparseElement, _exact
from superweyl.basering import tau_single
from helpers import (
    act,
    random_element,
    random_homogeneous,
    random_monomial,
    random_signature,
    random_word,
    run_fold_word_terms,
    sample_basis,
)

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
    # every entry, off the diagonal too, against base * (-1)^(p(i)p(j)) for
    # every signature with n <= 4; the Clifford flags are the diagonal's -1s
    for n in range(1, 5):
        for parity in itertools.product((0, 1), repeat=n):
            for sign, base in (("minus", 1), ("plus", -1)):
                sig = Signature(sign, parity)
                for i in range(n):
                    for j in range(n):
                        lam = sig.lam(i, j)
                        assert type(lam) is int and lam == sig.lam(j, i)
                        assert lam == (-base if parity[i] and parity[j] else base)
                    odd = parity[i] == 1
                    assert sig.is_clifford(i) == (odd if sign == "minus" else not odd)
                    assert sig.is_clifford(i) == (sig.lam(i, i) == -1)
                assert sig.clifford_indices == tuple(i for i in range(n) if sig.is_clifford(i))
                with pytest.raises(IndexError):
                    sig.lam(0, n)


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
    assert (a + -1 * a).is_zero
    assert SuperElement.one(MINUS_11) * a == a
    assert a * SuperElement.one(MINUS_11) == a


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
        0.5 * x(MINUS_11, 0)


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
    el = Fraction(1, 2) * SuperElement.one(sig) + word_element(
        sig, [("x", 0), ("d", 0)]
    )
    assert str(el) == "1/2 + x1*d1"
    assert str(SuperElement.zero(sig)) == "0"
    assert str(-x(sig, 0) * x(sig, 0)) == "-x1^2"
    # ordering: degree vectors sort lexicographically, d-heavy terms first
    el2 = Fraction(3, 2) * x(sig, 0) - 2 * d(sig, 1)
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


def _pin_coeff(rng):
    """An int, a proper or negative fraction, or an integral Fraction."""
    return rng.choice((
        rng.randint(-5, 5),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3)),
    ))


def _pinned_elements():
    rng = random.Random(4220)
    for _ in range(40):
        sig = random_signature(rng, max_n=3)
        a = SuperElement(sig, [(random_monomial(sig, rng), _pin_coeff(rng))
                               for _ in range(rng.randint(1, 4))])
        # b repeats a's first term so that a - b cancels it
        b = SuperElement(sig, list(a.terms.items())[:1] + [
            (random_monomial(sig, rng), _pin_coeff(rng)) for _ in range(rng.randint(0, 2))
        ])
        const = SuperElement(sig, {((0, 0),) * sig.n: _pin_coeff(rng)})
        yield from (a, a + const - b, const, a - a, a * b)


# SHA-256 of str and repr of the elements above, one per line
RENDER_PIN = "a034004c791e4213dd4d210fa0709ef9434de0731f9035b73832abdb1f8650c8"


def test_render_pin():
    elements = list(_pinned_elements())
    lines = [text for el in elements for text in (str(el), repr(el))]
    assert len(elements) == 200
    assert {el.sig.sign for el in elements} == {"plus", "minus"}
    assert any(el.sig.clifford_indices for el in elements)
    assert any(len(el.sig.clifford_indices) < el.sig.n for el in elements)
    assert "0" in lines and any("/" in s for s in lines) and any(s.startswith("-") for s in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RENDER_PIN



# The core shared by SuperElement and BaseRingElement.

@pytest.mark.parametrize("value, expected", [
    (3, 3), (-2, -2), (True, 1), (False, 0), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(4, 2), Fraction(2)),
], ids=repr)
def test_exact_keeps_ints_and_fractions(value, expected):
    out = _exact(value)
    assert out == expected and type(out) is type(expected)


_ENTRY_POINTS = {
    "SuperElement": lambda c: SuperElement(MINUS_11, {((1, 0), (0, 0)): c}),
    "BaseRingElement": lambda c: BaseRingElement(MINUS_11, {(1, 0): c}),
    "scalar * SuperElement": lambda c: c * x(MINUS_11, 0),
    "SuperElement * scalar": lambda c: x(MINUS_11, 0) * c,
    "scalar * BaseRingElement": lambda c: c * BaseRingElement.u(MINUS_11, 0),
    "BaseRingElement * scalar": lambda c: BaseRingElement.u(MINUS_11, 0) * c,
    "const": lambda c: BaseRingElement.const(MINUS_11, c),
    "evaluate": lambda c: BaseRingElement.u(MINUS_11, 0).evaluate((c, 0)),
    "tau_single Weyl": lambda c: tau_single(MINUS_11, 0, c),
    "tau_single Clifford": lambda c: tau_single(MINUS_11, 1, c),
}


@pytest.mark.parametrize("value", [0.5, 2.0, "1", Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_inexact_scalars_refused_everywhere(entry, value):
    with pytest.raises(TypeError):
        _ENTRY_POINTS[entry](value)
    with pytest.raises(TypeError, match="exact rationals"):
        _exact(value)


def test_integral_results_hold_ints():
    sig = Signature("minus", (0,))
    dx = word_element(sig, [("d", 0)] * 3 + [("x", 0)] * 3)
    assert all(type(c) is int for c in dx.terms.values())
    # d^3 x^3 = sum_k C(3,k)^2 k! x^(3-k) d^(3-k)
    assert dx == SuperElement(sig, {
        ((3, 3),): Fraction(1), ((2, 2),): Fraction(9), ((1, 1),): Fraction(18),
        ((0, 0),): Fraction(6),
    })
    assert type(SuperElement.one(sig).constant_value()) is int


def test_element_classes_never_compare_equal():
    for sig in (MINUS_11, PLUS_1):
        for make in ("zero", "one"):
            a, r = getattr(SuperElement, make)(sig), getattr(BaseRingElement, make)(sig)
            assert a != r and r != a
            assert not (a == r or r == a)


def test_immutability_error_names_the_class():
    for el in (x(MINUS_11, 0), BaseRingElement.u(MINUS_11, 0)):
        with pytest.raises(AttributeError, match=f"^{type(el).__name__} is immutable$"):
            el.terms = {}


def test_element_classes_share_one_core():
    shared = {
        "__add__", "__sub__", "__neg__", "__eq__", "__rmul__", "_scaled", "_raw",
        "constant_value", "__str__", "__repr__",
    }
    for cls in (SuperElement, BaseRingElement):
        assert issubclass(cls, SparseElement)
        assert not shared & set(vars(cls))
        # the benchmark's tracer wraps these through vars(cls)
        assert "__mul__" in vars(cls)
    assert "star" in vars(SuperElement)


# Run in a fresh interpreter, so that no earlier test's import can stand in
# for the package's own lazy loading of support and liesuper.
PACKAGE_SURFACE = """
import sys
import superweyl

names = superweyl.__all__
assert len(names) == len(set(names))
assert set(names) <= set(dir(superweyl))
lazy = {"superweyl.liesuper", "superweyl.support"}
assert not lazy & set(sys.modules)

liesuper = superweyl.liesuper
assert sys.modules["superweyl.liesuper"] is liesuper
assert "superweyl.support" not in sys.modules
assert vars(superweyl)["liesuper"] is liesuper
assert vars(superweyl)["preset"] is liesuper.preset

from superweyl import is_in_support
support = sys.modules["superweyl.support"]
assert superweyl.support is support and is_in_support is support.is_in_support
assert vars(superweyl)["is_in_support"] is is_in_support

try:
    superweyl.nonexistent
except AttributeError as exc:
    assert str(exc) == "module 'superweyl' has no attribute 'nonexistent'", exc
else:
    raise AssertionError("superweyl.nonexistent resolved")

aliases = {"SuperMonomial": "superweyl.algebra"}  # = tuple
for name in names:
    value = getattr(superweyl, name)
    module = aliases.get(name, value.__module__)
    assert module.startswith("superweyl."), name
    assert getattr(sys.modules[module], name) is value, name
namespace = {}
exec("from superweyl import *", namespace)
assert set(names) <= set(namespace)
from superweyl import preset
assert preset is liesuper.preset
print("ok")
"""


def test_package_all_is_clean():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", PACKAGE_SURFACE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def _codes(letters):
    return [2 * i + (kind == "d") for kind, i in letters]


def test_word_terms_match_the_run_fold():
    rng = random.Random(2407)
    clifford_zero = multi_term = 0
    for sign in ("minus", "plus"):
        for n in range(1, 6):
            for bits in range(1 << n):
                sig = Signature(sign, tuple((bits >> i) & 1 for i in range(n)))
                for _ in range(40):
                    letters = random_word(sig, rng, max_len=14)
                    expected = run_fold_word_terms(sig, _codes(letters))
                    assert word_element(sig, letters).terms == expected, (sig, letters)
                    clifford_zero += not expected and bool(sig.clifford_indices)
                    multi_term += len(expected) > 1
    assert clifford_zero and multi_term


def test_word_terms_take_no_monomial_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomial product taken")

    sig = Signature("plus", (1, 0, 1))
    letters = [("d", 2), ("x", 0), ("d", 0), ("x", 2), ("d", 1), ("x", 0), ("x", 1)]
    expected = run_fold_word_terms(sig, _codes(letters))
    monkeypatch.setattr(superweyl.algebra, "_mono_product", refuse)
    # d3 x1 d1 x3 d2 x1 x2: x d x on index 1 and d x on the Weyl index 3 and
    # the Clifford index 2 contract to two terms each
    assert word_element(sig, letters).terms == expected and len(expected) == 8


def _weyl_power(k):
    """d^k x^k on one Weyl index, as ((a, b), coefficient) pairs."""
    return [((k - j, k - j), comb(k, j) ** 2 * factorial(j)) for j in range(k + 1)]


def _outer(forms):
    terms = {(): 1}
    for form in forms:
        terms = {m + (pair,): c * v for m, c in terms.items() for pair, v in form}
    return terms


@pytest.mark.parametrize("k, n", [(20, 2), (8, 3)])
def test_multi_index_words_are_outer_products_of_weyl_identities(k, n):
    # Y1 on a column of k's is d_n^k ... d_1^k; lam is 1 between all indices
    for sig in (Signature("minus", (0,) * n), Signature("plus", (1,) * n)):
        y1 = [("d", i) for i in reversed(range(n)) for _ in range(k)]
        x1 = [("x", i) for i in range(n) for _ in range(k)]
        assert word_element(sig, y1 + x1).terms == _outer([_weyl_power(k)] * n)
        # Y1,X1,Y1,X1: (d^k x^k)^2 at each index, squared as an element on one index
        weyl = SuperElement(Signature(sig.sign, sig.parity[:1]),
                            {(pair,): c for pair, c in _weyl_power(k)})
        square = [(m[0], c) for m, c in (weyl * weyl).terms.items()]
        assert word_element(sig, (y1 + x1) * 2).terms == _outer([square] * n)


@pytest.mark.parametrize("sig", [Signature("minus", (1,)), Signature("plus", (0,))], ids=str)
def test_clifford_subword_closed_forms(sig):
    x1, d1, one, xd = ((1, 0),), ((0, 1),), ((0, 0),), ((1, 1),)
    forms = {
        "xdx": {x1: 1}, "xdxdx": {x1: 1},
        "xd": {xd: 1}, "xdxd": {xd: 1},
        "dx": {one: 1, xd: -1}, "dxdx": {one: 1, xd: -1}, "dxdxdx": {one: 1, xd: -1},
        "dxd": {d1: 1}, "dxdxd": {d1: 1},
        "xx": {}, "dd": {}, "xddx": {}, "dxxd": {}, "xdxx": {}, "ddxd": {},
    }
    for word, terms in forms.items():
        assert word_element(sig, [(kind, 0) for kind in word]).terms == terms, word


def test_clifford_subword_zero_across_other_indices():
    sig = Signature("minus", (0, 1))
    # index 2 is Clifford: its subword x d x alternates, x x does not
    assert word_element(sig, [("x", 1), ("d", 0), ("d", 1), ("x", 0), ("x", 1)]).terms
    assert not word_element(sig, [("x", 1), ("d", 0), ("x", 0), ("x", 1)]).terms


def test_word_term_cap_boundary(monkeypatch):
    sig = Signature("minus", (0, 0))

    def word(k0, k1):
        return [("d", 0)] * k0 + [("x", 0)] * k0 + [("d", 1)] * k1 + [("x", 1)] * k1

    assert MAX_WORD_TERMS == 25_000 == 125 * 200
    assert len(word_element(sig, word(124, 199)).terms) == MAX_WORD_TERMS

    def refuse(*args):
        raise AssertionError("folded an over-cap word")

    monkeypatch.setattr(superweyl.algebra, "_contraction", refuse)
    with pytest.raises(ResourceCapError, match="has 25001 terms, over the term cap 25000"):
        word_element(sig, word(22, 1086))  # 23 * 1087 terms


def test_fold_size_counts_the_terms_of_the_fold():
    # the term cap is checked on _fold_size before any fold runs, so its count
    # must be the fold's own, on Weyl subwords of 2 to 5 runs (every run after
    # the first opens with x, every run before the last closes with d)
    rng = random.Random(3109)
    sizes = set()
    for _ in range(3000):
        runs = rng.randint(2, 5)
        counts = []
        for j in range(runs):
            counts += [rng.randint(1 if j else 0, 4), rng.randint(1 if j < runs - 1 else 0, 4)]
        terms = list(superweyl.algebra._weyl_fold(counts))
        assert superweyl.algebra._fold_size(counts)[0] == len(terms), counts
        sizes.add((runs, len(terms)))
    assert {runs for runs, _ in sizes} == {2, 3, 4, 5} and max(t for _, t in sizes) > 5


def test_fold_work_cap_boundary(monkeypatch):
    # d^b0 x^a1 d^b1 x^a2 at one index does 1 + min(b0, a1) updates on its
    # first contraction, then (1 + min(b0, a1)) (1 + min(b0 + b1, a2)) more
    sig = Signature("plus", (1, 0))

    def word(b0, a1, b1, a2):
        return [("d", 0)] * b0 + [("x", 0)] * a1 + [("d", 0)] * b1 + [("x", 0)] * a2

    assert MAX_FOLD_WORK == 100_000 == 250 + 250 * 399
    assert len(word_element(sig, word(249, 249, 149, 398)).terms) == 399

    def refuse(*args):
        raise AssertionError("folded an over-cap word")

    monkeypatch.setattr(superweyl.algebra, "_contraction", refuse)
    over = word(10, 10, 9079, 9089)  # 11 + 11 * 9090 = 100001 updates
    with pytest.raises(ResourceCapError, match="100001 coefficient updates at index 1"):
        word_element(sig, over)
    # the same letters on the Clifford index 2 make a zero word, not a refused one
    assert not word_element(sig, [(kind, 1) for kind, _ in over]).terms
