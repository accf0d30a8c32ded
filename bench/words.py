"""``words``: normal forms of long words in the algebra and base-ring layers.

Nothing here reaches the support layer.  Each round holds a few large
normalizations (``d^k x^k`` up to k = 7, ``eval_word`` on ``[[k]]``, the
``u^k`` round trip up to k = 8) and many small ones, so the median op and
the tail op measure different sizes.

The seed chooses the signatures, the position of the Weyl index, the mixed
words, the round-trip polynomials and the star monomials.  The median op is
a star of a monomial.  Its cost depends on how the exponent blocks sit over
the indices, so every round holds each arrangement of one fixed set of
blocks (variant x Clifford position x order of the Weyl blocks) twice, and
the seed only deals them out with their coefficients: the median reads the
same work for every seed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import superweyl as sw

from ops import Op

FULL = {"k_max": 7, "u_max": 8, "polys": 16, "stars": 96, "words": 109}
TINY = {"k_max": 4, "u_max": 4, "polys": 4, "stars": 12, "words": 20}

# Exponent blocks (a, b) of x^a d^b for the star monomials: three on Weyl
# indices and one on a Clifford index.
STAR_WEYL_BLOCKS = ((6, 4), (3, 5), (4, 4))
STAR_CLIFFORD_BLOCK = (1, 1)


def weyl_identity(n: int, i: int, k: int) -> dict:
    """d_i^k x_i^k = sum_j C(k,j)^2 j! x_i^(k-j) d_i^(k-j) on a Weyl index i."""
    terms = {}
    for j in range(k + 1):
        mono = [(0, 0)] * n
        mono[i] = (k - j, k - j)
        terms[tuple(mono)] = Fraction(comb(k, j) ** 2 * factorial(j))
    return terms


def star_of_monomial(sig, mono) -> dict:
    """Involution of one monomial in closed form.

    Reversing x_i^a d_i^b blocks and swapping x with d gives x_i^b d_i^a
    blocks in descending index order; putting them back in ascending order
    moves every letter of block j past every letter of block i < j.
    """
    sign = 1
    for i in range(sig.n):
        for j in range(i + 1, sig.n):
            if sum(mono[i]) * sum(mono[j]) % 2:
                sign *= sig.lam(i, j)
    return {tuple((b, a) for a, b in mono): Fraction(sign)}


def _random_signature(rng, n: int):
    return sw.Signature(rng.choice(("minus", "plus")), tuple(rng.randint(0, 1) for _ in range(n)))


def _weyl_ops(rng, size) -> list[Op]:
    ops = []
    for sign, parity in (("minus", 0), ("plus", 1)):
        i = rng.randrange(3)
        parities = [rng.randint(0, 1) for _ in range(3)]
        parities[i] = parity
        sig = sw.Signature(sign, tuple(parities))
        for k in range(1, size["k_max"] + 1):
            letters = [("d", i)] * k + [("x", i)] * k
            expected = weyl_identity(3, i, k)
            ops.append(Op(
                f"word_element d^{k} x^{k} {sign}",
                lambda sig=sig, letters=letters: sw.word_element(sig, letters),
                lambda out, e=expected: out.terms == e,
            ))
    return ops


def _eval_ops(size) -> list[Op]:
    ops = []
    for k in range(1, size["k_max"] + 1):
        gm = sw.GammaMatrix(sw.Signature("minus", (0,)), ((k,),))
        expected = weyl_identity(1, 0, k)
        ops.append(Op(
            f"eval_word Y1,X1 [[{k}]]",
            lambda gm=gm: sw.eval_word(gm, [("Y", 0), ("X", 0)]),
            lambda out, e=expected: out.degree == (0,) and out.image.terms == e,
        ))
    return ops


def _round_trip_op(label, r) -> Op:
    def check(out):
        embedded, back = out
        degree_zero = all(a == b for mono in embedded.terms for a, b in mono)
        return degree_zero and back == r
    return Op(label, lambda: _round_trip(r), check)


def _round_trip(r):
    embedded = sw.iota_embed(r)
    return embedded, sw.project_zero(embedded)


def _round_trip_ops(rng, size) -> list[Op]:
    n = rng.randint(2, 3)
    sig = _random_signature(rng, n)
    weyl = [i for i in range(n) if not sig.is_clifford(i)]
    if not weyl:
        parities = list(sig.parity)
        parities[0] = 0 if sig.sign == "minus" else 1
        sig = sw.Signature(sig.sign, tuple(parities))
        weyl = [0]
    w = rng.choice(weyl)
    ops = [
        _round_trip_op(f"iota/project u^{k}", sw.BaseRingElement.u(sig, w) ** k)
        for k in range(1, size["u_max"] + 1)
    ]
    for p in range(size["polys"]):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exps = tuple(
                rng.randint(0, 1) if sig.is_clifford(i) else rng.randint(0, 3)
                for i in range(n)
            )
            terms[exps] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 3))
        ops.append(_round_trip_op(f"iota/project poly {p}", sw.BaseRingElement(sig, terms)))
    return ops


def _star_monomials():
    """(signature, monomial) for every arrangement of the star blocks."""
    out = []
    for sign in ("minus", "plus"):
        weyl_parity = 0 if sign == "minus" else 1
        for clifford in range(4):
            sig = sw.Signature(sign, tuple(
                1 - weyl_parity if i == clifford else weyl_parity for i in range(4)))
            for order in permutations(STAR_WEYL_BLOCKS):
                blocks = list(order)
                out.append((sig, tuple(
                    STAR_CLIFFORD_BLOCK if i == clifford else blocks.pop() for i in range(4))))
    return out


def _star_ops(rng, size) -> list[Op]:
    arrangements = _star_monomials() * 2
    rng.shuffle(arrangements)
    ops = []
    for s, (sig, mono) in enumerate(arrangements[:size["stars"]]):
        elem = sw.SuperElement.from_mono(sig, mono, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        coeff = next(iter(elem.terms.values()))
        expected = {m: c * coeff for m, c in star_of_monomial(sig, mono).items()}

        def check(out, elem=elem, expected=expected):
            return out.terms == expected and sw.involution(out) == elem

        ops.append(Op(f"star monomial {s}", lambda elem=elem: sw.involution(elem), check))
    return ops


def _mixed_word_ops(rng, size) -> list[Op]:
    ops = []
    for w in range(size["words"]):
        sig = _random_signature(rng, rng.randint(2, 4))
        letters = [
            (rng.choice("xd"), rng.randrange(sig.n)) for _ in range(rng.randint(6, 10))
        ]
        degree = [0] * sig.n
        for kind, i in letters:
            degree[i] += 1 if kind == "x" else -1
        split = len(letters) // 2

        def check(out, sig=sig, letters=letters, degree=tuple(degree), split=split):
            if any(tuple(a - b for a, b in mono) != degree for mono in out.terms):
                return False
            if sw.involution(sw.involution(out)) != out:
                return False
            left = sw.word_element(sig, letters[:split])
            return left * sw.word_element(sig, letters[split:]) == out

        ops.append(Op(
            f"word_element mixed {w}",
            lambda sig=sig, letters=letters: sw.word_element(sig, letters),
            check,
        ))
    return ops


def build(rng, workdir, tiny: bool) -> list[Op]:
    size = TINY if tiny else FULL
    return (
        _weyl_ops(rng, size)
        + _eval_ops(size)
        + _round_trip_ops(rng, size)
        + _star_ops(rng, size)
        + _mixed_word_ops(rng, size)
    )
