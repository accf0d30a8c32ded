"""Exact normal-form arithmetic in Clifford/Weyl superalgebras.

Generators come in pairs ``x_i``, ``d_i`` for ``i = 0..n-1`` (rendered
1-based as ``x1, d1, ...``), each index carrying a parity.  A sign variant
selects which parities behave Weyl-like and which Clifford-like: the swap
scalar ``lam(i, j)`` is ``-(-1)^(p(i)p(j))`` for the ``plus`` variant and
``+(-1)^(p(i)p(j))`` for ``minus``.  An index with ``lam(i, i) == -1`` is a
*Clifford direction*: its generators square to zero and its exponents are
capped at one.

Words are rewritten to ascending per-index blocks ``x_i^a d_i^b`` using

    d_i x_i -> 1 + lam(i, i) x_i d_i     (same index)
    v w     -> lam(i, j) w v             (generators of distinct indices)
    x_i x_i -> 0,  d_i d_i -> 0          (Clifford directions)

The resulting normal form is unique, so equality of elements is structural
equality of their sparse coefficient maps.  All values are immutable and
all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    InhomogeneityError,
    NilpotencyError,
    SignatureMismatchError,
    UndefinedDegreeError,
)

# A monomial is a tuple of (a_i, b_i) exponent pairs, one per index,
# denoting the normal-ordered word x_1^a1 d_1^b1 x_2^a2 d_2^b2 ...
SuperMonomial = tuple

_SCALARS = (int, Fraction)


def int_tuple(values, what: str) -> tuple[int, ...]:
    """The values as a tuple, refusing anything but plain ints (bools too)."""
    out = tuple(values)
    for v in out:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return out


@dataclass(frozen=True)
class Signature:
    """Ambient algebra choice: sign variant plus one parity per index."""

    sign: str
    parity: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        parity = int_tuple(self.parity, "parity entries")
        if not parity:
            raise ValueError("a signature needs at least one generator pair")
        if any(p not in (0, 1) for p in parity):
            raise ValueError("parity entries must be 0 (even) or 1 (odd)")
        object.__setattr__(self, "parity", parity)

    @property
    def n(self) -> int:
        return len(self.parity)

    @cached_property
    def _lam(self) -> tuple[tuple[int, ...], ...]:
        base = -1 if self.sign == "plus" else 1
        p = self.parity
        return tuple(
            tuple(-base if p[i] and p[j] else base for j in range(self.n))
            for i in range(self.n)
        )

    def lam(self, i: int, j: int) -> int:
        """Scalar picked up when generators of indices i and j swap."""
        return self._lam[i][j]

    def is_clifford(self, i: int) -> bool:
        """True when the generators of index i square to zero."""
        return self._lam[i][i] == -1

    @cached_property
    def clifford_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.is_clifford(i))


# Letters of a word are encoded as 2*index + kind with kind 0 for x and
# 1 for d; integer order on codes is exactly the normal order.


def _mono_letters(mono: SuperMonomial) -> list[int]:
    out = []
    for i, (a, b) in enumerate(mono):
        out.extend([2 * i] * a)
        out.extend([2 * i + 1] * b)
    return out


def _word_mono(n: int, word: Sequence[int]) -> SuperMonomial:
    pairs = [[0, 0] for _ in range(n)]
    for code in word:
        pairs[code >> 1][code & 1] += 1
    return tuple((a, b) for a, b in pairs)


def _normalize(sig: Signature, letters: Sequence[int]) -> dict[SuperMonomial, int]:
    """Normal form of a word, as a map monomial -> integer coefficient."""
    lam = sig._lam
    n = sig.n
    cliff = tuple(sig.is_clifford(i) for i in range(n))
    out: dict[SuperMonomial, int] = {}
    stack: list[tuple[int, list[int], int]] = [(1, list(letters), 0)]
    while stack:
        coeff, w, t = stack.pop()
        dead = False
        while t < len(w) - 1:
            a, b = w[t], w[t + 1]
            if a < b:
                t += 1
            elif a == b:
                if cliff[a >> 1]:
                    dead = True
                    break
                t += 1
            else:
                ia, ib = a >> 1, b >> 1
                if ia == ib:
                    # d_i x_i: contraction branch, then the swap in place
                    stack.append((coeff, w[:t] + w[t + 2:], max(t - 1, 0)))
                    coeff *= lam[ia][ia]
                else:
                    coeff *= lam[ia][ib]
                w[t], w[t + 1] = b, a
                t = max(t - 1, 0)
        if dead:
            continue
        mono = _word_mono(n, w)
        c = out.get(mono, 0) + coeff
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)
    return out


@lru_cache(maxsize=1 << 17)
def _mono_mul_terms(sig: Signature, m1: SuperMonomial, m2: SuperMonomial):
    return tuple(_normalize(sig, _mono_letters(m1) + _mono_letters(m2)).items())


def _check_mono(sig: Signature, mono) -> SuperMonomial:
    mono = tuple((int(a), int(b)) for a, b in mono)
    if len(mono) != sig.n:
        raise ValueError(f"monomial has {len(mono)} index slots, signature has {sig.n}")
    for i, (a, b) in enumerate(mono):
        if a < 0 or b < 0:
            raise ValueError("exponents must be non-negative")
        if sig.is_clifford(i) and (a > 1 or b > 1):
            raise NilpotencyError(
                f"index {i} is a Clifford direction; exponent above 1 vanishes"
            )
    return mono


def mono_degree(mono: SuperMonomial) -> tuple[int, ...]:
    return tuple(a - b for a, b in mono)


def mono_parity(sig: Signature, mono: SuperMonomial) -> int:
    return sum((a + b) * p for (a, b), p in zip(mono, sig.parity)) & 1


def power_gen(sig: Signature, j: int, k: int) -> SuperMonomial:
    """Monomial for x_j^k when k >= 0 and d_j^(-k) when k < 0."""
    if not 0 <= j < sig.n:
        raise IndexError(f"index {j} out of range for n={sig.n}")
    if sig.is_clifford(j) and abs(k) > 1:
        raise NilpotencyError(
            f"x_{j + 1}^({k}) vanishes: index {j} is a Clifford direction"
        )
    pairs = [(0, 0)] * sig.n
    pairs[j] = (k, 0) if k >= 0 else (0, -k)
    return tuple(pairs)


class SuperElement:
    """Sparse exact-rational combination of normal-ordered monomials."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[SuperMonomial, Fraction] = {}
        for mono, coeff in items:
            c = _as_fraction(coeff)
            if not c:
                continue
            mono = _check_mono(sig, mono)
            c0 = cleaned.get(mono)
            c = c if c0 is None else c0 + c
            if c:
                cleaned[mono] = c
            else:
                del cleaned[mono]
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, sig: Signature, terms: dict) -> "SuperElement":
        # internal fast path: terms already canonical (no zeros, valid monomials)
        obj = object.__new__(cls)
        object.__setattr__(obj, "sig", sig)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("SuperElement is immutable")

    @classmethod
    def zero(cls, sig: Signature) -> "SuperElement":
        return cls._raw(sig, {})

    @classmethod
    def one(cls, sig: Signature) -> "SuperElement":
        return cls._raw(sig, {((0, 0),) * sig.n: Fraction(1)})

    @classmethod
    def from_mono(cls, sig: Signature, mono, coeff=1) -> "SuperElement":
        return cls(sig, {tuple(mono): coeff})

    @classmethod
    def x(cls, sig: Signature, i: int) -> "SuperElement":
        return cls.from_mono(sig, power_gen(sig, i, 1))

    @classmethod
    def d(cls, sig: Signature, i: int) -> "SuperElement":
        return cls.from_mono(sig, power_gen(sig, i, -1))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_sig(self, other: "SuperElement"):
        if self.sig != other.sig:
            raise SignatureMismatchError("operands live in different signatures")

    def __eq__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._require_same_sig(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return SuperElement._raw(self.sig, terms)

    def __neg__(self):
        return SuperElement._raw(self.sig, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SuperElement):
            self._require_same_sig(other)
            acc: dict[SuperMonomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    c12 = c1 * c2
                    for mono, s in _mono_mul_terms(self.sig, m1, m2):
                        c = acc.get(mono, 0) + c12 * s
                        if c:
                            acc[mono] = c
                        else:
                            del acc[mono]
            return SuperElement._raw(self.sig, acc)
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c) -> "SuperElement":
        c = _as_fraction(c)
        if not c:
            return SuperElement.zero(self.sig)
        return SuperElement._raw(self.sig, {m: c * v for m, v in self.terms.items()})

    def star(self) -> "SuperElement":
        """Involution: x_i <-> d_i, words reversed, result renormalized."""
        acc: dict[SuperMonomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            letters = [code ^ 1 for code in reversed(_mono_letters(mono))]
            for m2, s in _normalize(self.sig, letters).items():
                c = acc.get(m2, 0) + coeff * s
                if c:
                    acc[m2] = c
                else:
                    del acc[m2]
        return SuperElement._raw(self.sig, acc)

    def degree(self) -> tuple[int, ...]:
        """Common degree vector of all monomials, if one exists."""
        if not self.terms:
            raise UndefinedDegreeError("the zero element has no degree")
        degrees = {mono_degree(m) for m in self.terms}
        if len(degrees) > 1:
            raise InhomogeneityError(degrees)
        return degrees.pop()

    def parity(self):
        """Common Z/2 parity of all monomials, or None if mixed or zero."""
        if not self.terms:
            return None
        parities = {mono_parity(self.sig, m) for m in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def constant_value(self):
        """The scalar c when the element equals c*1, otherwise None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) != 1:
            return None
        mono, c = next(iter(self.terms.items()))
        return c if all(a == 0 and b == 0 for a, b in mono) else None

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"SuperElement({self})"

    __hash__ = None


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


# Operation-style wrappers around the element arithmetic.

def mono_mul(sig: Signature, m1, m2) -> SuperElement:
    """Normal form of the concatenation of two normal-ordered monomials."""
    m1 = _check_mono(sig, m1)
    m2 = _check_mono(sig, m2)
    terms = {m: Fraction(c) for m, c in _mono_mul_terms(sig, m1, m2)}
    return SuperElement._raw(sig, terms)


def elem_mul(a: SuperElement, b: SuperElement) -> SuperElement:
    return a * b


def elem_add(a: SuperElement, b: SuperElement) -> SuperElement:
    return a + b


def scalar_mul(c, a: SuperElement) -> SuperElement:
    return a._scaled(c)


def involution(a: SuperElement) -> SuperElement:
    return a.star()


def degree_of(a: SuperElement) -> tuple[int, ...]:
    return a.degree()


def word_element(sig: Signature, letters: Iterable[tuple[str, int]]) -> SuperElement:
    """Normal form of an arbitrary word given as ('x'|'d', index) letters."""
    codes = []
    for kind, i in letters:
        if kind not in ("x", "d"):
            raise ValueError(f"letter kind must be 'x' or 'd', got {kind!r}")
        if not 0 <= i < sig.n:
            raise IndexError(f"index {i} out of range for n={sig.n}")
        codes.append(2 * i + (0 if kind == "x" else 1))
    terms = {m: Fraction(c) for m, c in _normalize(sig, codes).items()}
    return SuperElement._raw(sig, terms)


# Rendering.  Terms are sorted by (degree vector, flattened exponents) so
# output is deterministic; the printed word is always the normal form.

def _mono_str(mono: SuperMonomial) -> str:
    parts = []
    for i, (a, b) in enumerate(mono):
        if a:
            parts.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
        if b:
            parts.append(f"d{i + 1}" if b == 1 else f"d{i + 1}^{b}")
    return "*".join(parts)


def _coeff_str(c: Fraction, has_body: bool) -> str:
    if not has_body:
        return str(c)
    if c == 1:
        return ""
    if c.denominator == 1:
        return f"{c}*"
    return f"({c})*"


def render_element(a: SuperElement) -> str:
    if not a.terms:
        return "0"
    ordered = sorted(
        a.terms.items(),
        key=lambda kv: (mono_degree(kv[0]), tuple(v for ab in kv[0] for v in ab)),
    )
    pieces = []
    for k, (mono, coeff) in enumerate(ordered):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        body = _mono_str(mono)
        term = _coeff_str(mag, bool(body)) + body if body else str(mag)
        if k == 0:
            pieces.append(("-" if neg else "") + term)
        else:
            pieces.append((" - " if neg else " + ") + term)
    return "".join(pieces)
