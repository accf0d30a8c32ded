"""The degree-zero base ring and its shift automorphisms.

The ring is k[u_1..u_n] modulo u_i^2 = u_i for every Clifford direction i,
with u_i identified with the degree-zero element d_i x_i of the ambient
superalgebra.  The automorphism tau_i sends u_i to lam(i,i)*(u_i - 1) and
fixes the other variables; the tau_i commute, so integer exponent vectors
act through closed-form powers:

    lam(i,i) == +1:  tau_i^k(u_i) = u_i - k
    lam(i,i) == -1:  tau_i^k(u_i) = u_i for even k, 1 - u_i for odd k

This module also hosts the two bridges with the superalgebra: ``iota_embed``
(substitute u_i -> d_i x_i and normalize) and ``project_zero`` (rewrite the
degree-zero part of an element as a reduced polynomial in the u_i, through
the integer coefficients of x_i^k d_i^k = (u_i - 1)...(u_i - k)).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .algebra import (
    Signature, SuperElement, _as_fraction, _word_terms, accumulate_terms, int_tuple,
)
from .errors import SignatureMismatchError

_SCALARS = (int, Fraction)


class BaseRingElement:
    """Reduced polynomial in u_1..u_n; Clifford exponents are capped at 1."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        exact = ((exps, _as_fraction(c)) for exps, c in items)
        cleaned = accumulate_terms({}, ((_check_exps(sig, e), c) for e, c in exact if c))
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, sig, terms) -> "BaseRingElement":
        obj = object.__new__(cls)
        object.__setattr__(obj, "sig", sig)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("BaseRingElement is immutable")

    @classmethod
    def zero(cls, sig: Signature) -> "BaseRingElement":
        return cls._raw(sig, {})

    @classmethod
    def one(cls, sig: Signature) -> "BaseRingElement":
        return cls.const(sig, 1)

    @classmethod
    def const(cls, sig: Signature, c) -> "BaseRingElement":
        c = _as_fraction(c)
        if not c:
            return cls.zero(sig)
        return cls._raw(sig, {(0,) * sig.n: c})

    @classmethod
    def u(cls, sig: Signature, i: int) -> "BaseRingElement":
        if not 0 <= i < sig.n:
            raise IndexError(f"index {i} out of range for n={sig.n}")
        exps = tuple(1 if j == i else 0 for j in range(sig.n))
        return cls._raw(sig, {exps: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_sig(self, other):
        if self.sig != other.sig:
            raise SignatureMismatchError("operands live in different signatures")

    def __eq__(self, other):
        if not isinstance(other, BaseRingElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, BaseRingElement):
            return NotImplemented
        self._require_same_sig(other)
        terms = accumulate_terms(dict(self.terms), other.terms.items())
        return BaseRingElement._raw(self.sig, terms)

    def __neg__(self):
        return BaseRingElement._raw(self.sig, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BaseRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BaseRingElement):
            self._require_same_sig(other)
            sig = self.sig
            acc: dict[tuple[int, ...], Fraction] = {}
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

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c):
        c = Fraction(c)
        if not c:
            return BaseRingElement.zero(self.sig)
        return BaseRingElement._raw(self.sig, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the base ring")
        out = BaseRingElement.one(self.sig)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, values: Sequence) -> Fraction:
        """Evaluate at a point; independent of reduction on {0,1} Clifford values."""
        if len(values) != self.sig.n:
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                term *= _as_fraction(v) ** e
            total += term
        return total

    def constant_value(self):
        """The scalar c when the element equals c*1, otherwise None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) != 1:
            return None
        exps, c = next(iter(self.terms.items()))
        return c if not any(exps) else None

    def __str__(self) -> str:
        return render_ring_element(self)

    def __repr__(self) -> str:
        return f"BaseRingElement({self})"

    __hash__ = None


def _check_exps(sig: Signature, exps) -> tuple[int, ...]:
    exps = int_tuple(exps, "exponents")
    if len(exps) != sig.n:
        raise ValueError(f"term has {len(exps)} exponents, expected {sig.n}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be non-negative")
    # idempotency: u_i^k = u_i on Clifford directions
    return tuple(1 if e and sig.is_clifford(i) else e for i, e in enumerate(exps))


def reduce(sig: Signature, terms) -> BaseRingElement:
    """Reduced form of a raw exponent-map polynomial."""
    return BaseRingElement(sig, terms)


def equals(a: BaseRingElement, b: BaseRingElement) -> bool:
    if a.sig != b.sig:
        raise SignatureMismatchError("operands live in different signatures")
    return a.terms == b.terms


def tau_single(sig: Signature, i: int, k: int) -> BaseRingElement:
    """Image of u_i under the k-th power of tau_i, in closed form."""
    _as_fraction(k)  # refuses a float or string shift on either kind of index
    int_tuple((k,), "shifts")  # and a Fraction one, as tau_apply does
    u = BaseRingElement.u(sig, i)
    if k == 0:
        return u
    if sig.is_clifford(i):
        return u if k % 2 == 0 else BaseRingElement.one(sig) - u
    return u - BaseRingElement.const(sig, k)


def tau_apply(exponents: Sequence[int], r: BaseRingElement) -> BaseRingElement:
    """Apply the automorphism tau_1^e1 ... tau_n^en to a ring element."""
    sig = r.sig
    e = int_tuple(exponents, "exponent vector entries")
    if len(e) != sig.n:
        raise ValueError(f"exponent vector has length {len(e)}, expected {sig.n}")
    images = [tau_single(sig, i, e[i]) if e[i] else None for i in range(sig.n)]
    powers: dict[tuple[int, int], BaseRingElement] = {}  # (i, d) -> images[i] ** d
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in r.terms.items():
        untouched = tuple(0 if images[i] and d else d for i, d in enumerate(exps))
        term = BaseRingElement._raw(sig, {untouched: coeff})
        for i, d in enumerate(exps):
            if d and images[i]:
                if (i, d) not in powers:
                    powers[i, d] = images[i] ** d
                term = term * powers[i, d]
        accumulate_terms(out, term.terms.items())
    return BaseRingElement._raw(sig, out)


def iota_embed(r: BaseRingElement) -> SuperElement:
    """Substitute u_i -> d_i x_i and normalize in the superalgebra."""
    sig = r.sig
    words = (
        (coeff, [code for i, e in enumerate(exps) for code in (2 * i + 1, 2 * i) * e])
        for exps, coeff in r.terms.items()
    )
    return SuperElement._raw(sig, _scaled_sum((c, _word_terms(sig, w).items()) for c, w in words))


def project_zero(a: SuperElement) -> BaseRingElement:
    """Degree-zero component of a superalgebra element, written in the u_i.

    Each block x_i^k d_i^k becomes the polynomial of ``xd_polynomial``;
    per-index degree-zero blocks commute, so a monomial expands to the outer
    product of those integer coefficient lists.
    """
    sig = a.sig
    parts = []
    for mono, coeff in a.terms.items():
        if any(x != d for x, d in mono):
            continue
        factors = (_xd_coeffs(sig.is_clifford(i), k) for i, (k, _) in enumerate(mono))
        parts.append((coeff, _outer_product(factors)))
    return BaseRingElement._raw(sig, _scaled_sum(parts))


def _outer_product(factors) -> list[tuple[tuple[int, ...], int]]:
    """Nonzero terms (exponent tuple, integer coefficient) of a product of
    univariate factors, one integer coefficient list per variable in order."""
    terms = [((), 1)]
    for coeffs in factors:
        terms = [(e + (j,), c * s) for e, c in terms for j, s in enumerate(coeffs) if s]
    return terms


def _scaled_sum(parts) -> dict:
    """Sum of coeff * expansion over (coeff, expansion) pairs, each expansion
    an iterable of (key, integer); the sums run in integers over the common
    denominator, so each surviving key costs one Fraction."""
    parts = list(parts)
    den = lcm(*(coeff.denominator for coeff, _ in parts))
    acc = {}
    for coeff, expansion in parts:
        scale = coeff.numerator * (den // coeff.denominator)
        accumulate_terms(acc, ((key, scale * s) for key, s in expansion))
    return {key: Fraction(v, den) for key, v in acc.items()}


def _xd_coeffs(clifford: bool, k: int) -> list[int]:
    """Coefficients of x^k d^k in u = d x, lowest power first."""
    if clifford:
        return [1, -1] if k else [1]
    coeffs = [1]
    for s in range(1, k + 1):
        # multiply by (u - s)
        coeffs = [lo - s * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _ring_mono_str(exps: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e:
            parts.append(f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}")
    return "*".join(parts)


def render_ring_element(r: BaseRingElement) -> str:
    if not r.terms:
        return "0"
    ordered = sorted(r.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    pieces = []
    for k, (exps, coeff) in enumerate(ordered):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        body = _ring_mono_str(exps)
        if body:
            if mag == 1:
                term = body
            elif mag.denominator == 1:
                term = f"{mag}*{body}"
            else:
                term = f"({mag})*{body}"
        else:
            term = str(mag)
        if k == 0:
            pieces.append(("-" if neg else "") + term)
        else:
            pieces.append((" - " if neg else " + ") + term)
    return "".join(pieces)
