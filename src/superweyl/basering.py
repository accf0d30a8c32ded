"""The degree-zero base ring and its shift automorphisms.

The ring is k[u_1..u_n] modulo u_i^2 = u_i for every Clifford direction i,
with u_i identified with the degree-zero element d_i x_i of the ambient
superalgebra.  The automorphism tau_i sends u_i to lam(i,i)*(u_i - 1) and
fixes the other variables; the tau_i commute, so integer exponent vectors
act through closed-form powers:

    lam(i,i) == +1:  tau_i^k(u_i) = u_i - k
    lam(i,i) == -1:  tau_i^k(u_i) = u_i for even k, 1 - u_i for odd k

Three maps act one variable at a time, each through an integer row per
index and exponent: ``tau_apply``, and the two bridges with the
superalgebra, ``iota_embed`` (substitute u_i -> d_i x_i and normalize) and
``project_zero`` (rewrite the degree-zero part of an element as a reduced
polynomial in the u_i).  The rows are closed forms:

    tau^k:  u^d     -> (u - k)^d = sum_j C(d, j) (-k)^(d - j) u^j
    iota:   u^e     -> sum_k S(e + 1, k + 1) x^k d^k   (S: Stirling, 2nd kind)
    proj:   x^k d^k -> (u - 1)(u - 2)...(u - k)        (falling factorials)

with u -> 1 - u for odd k, u = 1 - x d and x d = 1 - u on a Clifford
index.  Distinct indices commute, so ``_per_index`` applies the rows one
index at a time: index i costs one pass over the terms built so far, each
term replaced by the nonzero entries of its row, with each row built once
per index; an index where every term has exponent 0 costs no row, and one
whose rows all map their exponent to itself costs no pass.  The fourth map,
``datum.derive_t``, is one ``_per_index`` call on a column, whose entries k
take the rows of the factors with roots ``_roots(k)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .algebra import (
    _SCALARS, Signature, SparseElement, SuperElement, _exact, accumulate_terms, int_tuple,
)


def _check_exps(sig: Signature, exps) -> tuple[int, ...]:
    exps = int_tuple(exps, "exponents")
    if len(exps) != sig.n:
        raise ValueError(f"term has {len(exps)} exponents, expected {sig.n}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    # idempotency: u_i^k = u_i on Clifford directions
    return tuple(1 if e and sig.is_clifford(i) else e for i, e in enumerate(exps))


class BaseRingElement(SparseElement):
    """Reduced polynomial in u_1..u_n; Clifford exponents are capped at 1."""

    __slots__ = ()

    _check_key = staticmethod(_check_exps)

    @staticmethod
    def _unit_key(sig: Signature) -> tuple[int, ...]:
        return (0,) * sig.n

    @staticmethod
    def _sort_key(exps: tuple[int, ...]):
        return sum(exps), exps

    @staticmethod
    def _body(exps: tuple[int, ...]) -> str:
        return "*".join(f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}" for i, e in enumerate(exps) if e)

    @classmethod
    def const(cls, sig: Signature, c) -> "BaseRingElement":
        c = _exact(c)
        if not c:
            return cls.zero(sig)
        return cls._raw(sig, {cls._unit_key(sig): c})

    @classmethod
    def u(cls, sig: Signature, i: int) -> "BaseRingElement":
        if not 0 <= i < sig.n:
            raise IndexError(f"index {i} out of range for n={sig.n}")
        exps = tuple(1 if j == i else 0 for j in range(sig.n))
        return cls._raw(sig, {exps: 1})

    def __mul__(self, other):
        if isinstance(other, BaseRingElement):
            self._require_same_sig(other)
            sig = self.sig
            acc: dict = {}
            capped = [sig.is_clifford(i) for i in range(sig.n)]
            for e1, c1 in self.terms.items():
                accumulate_terms(acc, (
                    (tuple(1 if cap and a + b else a + b for a, b, cap in zip(e1, e2, capped)),
                     c1 * c2)
                    for e2, c2 in other.terms.items()
                ))
            return BaseRingElement._raw(sig, acc)
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the base ring")
        out = BaseRingElement.one(self.sig)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, values: Sequence):
        """Evaluate at a point; independent of reduction on {0,1} Clifford values."""
        if len(values) != self.sig.n:
            raise ValueError("wrong number of values")
        total = 0
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                term *= _exact(v) ** e
            total += term
        return total


def equals(a: BaseRingElement, b: BaseRingElement) -> bool:
    a._require_same_sig(b)
    return a.terms == b.terms


def tau_single(sig: Signature, i: int, k: int) -> BaseRingElement:
    """Image of u_i under the k-th power of tau_i, in closed form."""
    _exact(k)  # refuses a float or string shift on either kind of index
    int_tuple((k,), "shifts")  # and a Fraction one, as tau_apply does
    return tau_apply(tuple(k if j == i else 0 for j in range(sig.n)), BaseRingElement.u(sig, i))


def tau_apply(exponents: Sequence[int], r: BaseRingElement) -> BaseRingElement:
    """Apply the automorphism tau_1^e1 ... tau_n^en to a ring element: u_i^d
    becomes the binomial row ``_shift_row`` of (u_i - e_i)^d, or 1 - u_i for
    odd e_i on a Clifford index."""
    sig = r.sig
    e = int_tuple(exponents, "exponent vector entries")
    if len(e) != sig.n:
        raise ValueError(f"exponent vector has length {len(e)}, expected {sig.n}")
    rows = _per_index(sig, r.terms.items(), lambda i, d: _shift_row(sig.is_clifford(i), e[i], d))
    return BaseRingElement._raw(sig, rows)


def iota_embed(r: BaseRingElement) -> SuperElement:
    """Substitute u_i -> d_i x_i and normalize in the superalgebra: u_i^e
    becomes the Stirling row ``_power_row`` in the blocks x_i^k d_i^k."""
    sig = r.sig
    blocks = _per_index(sig, r.terms.items(), lambda i, e: _power_row(sig.is_clifford(i), e))
    return SuperElement._raw(sig, {tuple(zip(key, key)): c for key, c in blocks.items()})


def project_zero(a: SuperElement) -> BaseRingElement:
    """Degree-zero component of a superalgebra element, written in the u_i:
    each block x_i^k d_i^k becomes (u_i - 1)...(u_i - k), the roots
    ``_roots(-k)``, or 1 - u_i on a Clifford index."""
    sig = a.sig
    items = []
    for mono, coeff in a.terms.items():
        xs, ds = zip(*mono)
        if xs == ds:
            items.append((xs, coeff))
    rows = _per_index(sig, items, lambda i, k: _expand_roots(sig.is_clifford(i), _roots(-k)))
    return BaseRingElement._raw(sig, rows)


def _per_index(sig: Signature, items, row_of) -> dict:
    """Image of a combination of integer tuples under the linear map that
    replaces, on every index i, key entry e by the integer coefficient list
    ``row_of(i, e)`` (entry k the coefficient of exponent k).  A key entry is
    any int that ``row_of`` takes, an exponent or a column entry; the keys of
    ``items`` are distinct, with nonzero coefficients.  The sums run in
    integers over the common denominator, each row is built once per index,
    an index where every key has entry 0 costs no row, an index whose rows
    all map their entry to itself costs no pass, and each surviving key
    costs at most one Fraction.  Where every key has the same entry at
    index i, two keys differ elsewhere, so no two images meet and the pass
    builds its dict directly; otherwise it accumulates."""
    items = list(items)
    den = lcm(*(coeff.denominator for _, coeff in items))
    acc = {key: coeff.numerator * (den // coeff.denominator) for key, coeff in items}
    # a pass at index i rewrites entry i alone, so the entries every index
    # takes are those of the items
    for i, entries in enumerate(map(set, zip(*acc))):
        if not any(entries):
            continue  # entry 0 takes the unit row [1] under every map
        rows, identity = {}, True
        for e in entries:
            rows[e] = row = row_of(i, e)
            identity = identity and row == [0] * e + [1]
        if identity:
            continue  # every row is the unit row of its entry
        terms = (
            (pre + (k,) + post, c * s)
            for key, c in acc.items() for pre, post in [(key[:i], key[i + 1:])]
            for k, s in enumerate(rows[key[i]]) if s
        )
        acc = dict(terms) if len(rows) == 1 else accumulate_terms({}, terms)
    if den == 1:
        return acc
    return {key: Fraction(v, den) for key, v in acc.items()}


def _power_row(clifford: bool, e: int) -> list[int]:
    """Coefficients of u^e = (d x)^e in the blocks x^k d^k, k = 0..e: the
    Stirling numbers S(e + 1, k + 1) of the second kind, from S(n + 1, k + 1)
    = (k + 1) S(n, k + 1) + S(n, k); on a Clifford index u = 1 - x d."""
    if clifford:
        return [1, -1] if e else [1]
    row = [1]
    for _ in range(e):
        row = [(k + 1) * hi + lo for k, (lo, hi) in enumerate(zip([0] + row, row + [0]))]
    return row


def _shift_row(clifford: bool, k: int, d: int) -> list[int]:
    """Coefficients of tau^k(u)^d = (u - k)^d in the powers u^j, j = 0..d:
    the binomial row C(d, j) (-k)^(d - j).  On a Clifford index (d <= 1)
    tau^k(u) is 1 - u for odd k and u for even k."""
    if clifford and d:
        return [1, -1] if k % 2 else [0, 1]
    return [comb(d, j) * (-k) ** (d - j) for j in range(d + 1)]


def _roots(k: int) -> range:
    """Roots in u = d x of the paired block of exponent k: of d^k x^k =
    u (u + 1)...(u + k - 1) for k > 0, of x^|k| d^|k| = (u - 1)...(u - |k|)
    for k < 0, and on a Clifford index the point where u or 1 - u vanishes."""
    return range(1 - k, 1) if k > 0 else range(1, 1 - k)


def _expand_roots(clifford: bool, roots) -> list[int]:
    """Integer coefficients, lowest power first, of the product of (u - r)
    over the roots; on a Clifford index the one root r names the factor
    that vanishes there, u for r = 0 and 1 - u for r = 1."""
    if clifford and roots:
        return [1, -1] if roots[0] else [0, 1]
    coeffs = [1]
    for r in roots:
        # multiply by (u - r)
        coeffs = [lo - r * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs
