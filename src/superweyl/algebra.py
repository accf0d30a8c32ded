"""Exact normal-form arithmetic in Clifford/Weyl superalgebras.

Generators come in pairs ``x_i``, ``d_i`` for ``i = 0..n-1`` (rendered
1-based as ``x1, d1, ...``), each index carrying a parity.  A sign variant
selects which parities behave Weyl-like and which Clifford-like: the swap
scalar ``lam(i, j)`` is ``-(-1)^(p(i)p(j))`` for the ``plus`` variant and
``+(-1)^(p(i)p(j))`` for ``minus``.  An index with ``lam(i, i) == -1`` is a
*Clifford direction*: its generators square to zero and its exponents are
capped at one.

The defining relations are

    d_i x_i = 1 + lam(i, i) x_i d_i      (same index)
    v w     = lam(i, j) w v              (generators of distinct indices)
    x_i x_i = 0,  d_i d_i = 0            (Clifford directions)

and every element is kept in the normal form of ascending per-index blocks
``x_i^a d_i^b``.  The product of two such monomials has a closed form.
Moving each block of the right factor left past the higher-index blocks of
the left factor gives the sign ``prod lam(i, j)^(len_i * len_j)``, found in
one O(n) pass from running sums over the parities.  What is left at each
index is ``x^a (d^b x^c) d^e`` with

    d^b x^c = sum_k C(b,k) C(c,k) k! lam(i,i)^((b-k)(c-k)) x^(c-k) d^(b-k)

(on a Clifford index b, c <= 1 and exponents above one vanish), and the
terms of the product are the outer product of these per-index sums.  The
cost is polynomial in the exponents: ``d^k x^k`` is one product with k + 1
terms.  A word is normalized one index at a time: one sign from sorting its
letters into index order, a closed form per Clifford subword, a fold of the
runs of each Weyl subword, and one outer product of the per-index terms.
The involution maps a monomial to one monomial times a sign.

The normal form is unique, so equality of elements is structural
equality of their sparse coefficient maps.  Coefficients are exact: ints,
or Fractions where a denominator is needed, compared by value (``{m: 1}``
equals ``{m: Fraction(1)}``); ``_exact`` is the one check that admits them.
``SparseElement`` holds the linear-combination code that does not depend on
the basis and is shared with the base ring's ``BaseRingElement``.  All
values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    InhomogeneityError,
    NilpotencyError,
    ResourceCapError,
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
    def _clifford(self) -> tuple[bool, ...]:
        # lam(i, i) == -1: odd indices on minus, even indices on plus
        plus = self.sign == "plus"
        return tuple(p != plus for p in self.parity)

    def lam(self, i: int, j: int) -> int:
        """Scalar picked up when generators of indices i and j swap:
        base * (-1)^(p(i)p(j)), with base -1 for plus and +1 for minus."""
        base = -1 if self.sign == "plus" else 1
        return base * (-1) ** (self.parity[i] * self.parity[j])

    def is_clifford(self, i: int) -> bool:
        """True when the generators of index i square to zero."""
        return self._clifford[i]

    @cached_property
    def clifford_indices(self) -> tuple[int, ...]:
        return tuple(i for i, cliff in enumerate(self._clifford) if cliff)

    @cached_property
    def _swap_masks(self) -> tuple[int, ...]:
        # bit i of entry j: i > j and lam(i, j) == -1
        return tuple(
            sum(1 << i for i in range(j + 1, self.n) if self.lam(i, j) < 0)
            for j in range(self.n)
        )


def accumulate_terms(acc: dict, items: Iterable) -> dict:
    """Add (key, coefficient) pairs into a coefficient map, dropping every
    key whose coefficient cancels to zero; returns the map."""
    get = acc.get
    for key, c in items:
        old = get(key)
        if old is not None:
            c += old
        if c:
            acc[key] = c
        elif old is not None:
            del acc[key]
    return acc


def _cross_sign(sig: Signature, m1: SuperMonomial, m2: SuperMonomial) -> int:
    """Product of lam(i, j)^(len1_i * len2_j) over i > j, in one pass.

    lam(i, j) = base * (-1)^(p(i)p(j)), so only the parities of two sums
    matter: len1_i * len2_j over all i > j, and over odd i > j only.  Running
    sums of the m2 block lengths below i give both.
    """
    below = odd_below = base_exp = odd_exp = 0
    for (a1, b1), (a2, b2), p in zip(m1, m2, sig.parity):
        l1 = a1 + b1
        base_exp += l1 * below
        below += a2 + b2
        if p:
            odd_exp += l1 * odd_below
            odd_below += a2 + b2
    if sig.sign == "plus":
        odd_exp += base_exp
    return -1 if odd_exp & 1 else 1


def _contraction(clifford: bool, a1: int, b1: int, a2: int, b2: int) -> list:
    """x^a1 d^b1 x^a2 d^b2 at one index with b1, a2 > 0, as ((a, b), coeff)."""
    if clifford:
        # b1 = a2 = 1 and d x = 1 - x d; x d survives only without a1 and b2
        return [((a1, b2), 1)] if a1 or b2 else [((0, 0), 1), ((1, 1), -1)]
    # d^b1 x^a2 = sum_k C(b1,k) C(a2,k) k! x^(a2-k) d^(b1-k)
    out = []
    c = 1
    for k in range(min(b1, a2) + 1):
        out.append(((a1 + a2 - k, b1 + b2 - k), c))
        c = c * (b1 - k) * (a2 - k) // (k + 1)
    return out


def _mono_product(sig: Signature, m1: SuperMonomial, m2: SuperMonomial) -> list:
    """Normal form of m1*m2 as a list of (monomial, integer coefficient).

    Both monomials must be valid for sig (Clifford exponents at most one).
    Indices without a d^b x^c contraction take the summed exponents; the
    terms are the outer product over the contracted indices.
    """
    cliff = sig._clifford
    pairs = []
    contracted = []
    for i, ((a1, b1), (a2, b2)) in enumerate(zip(m1, m2)):
        if b1 and a2:
            contracted.append(i)
        elif cliff[i] and (a1 + a2 > 1 or b1 + b2 > 1):
            return []
        pairs.append((a1 + a2, b1 + b2))
    terms = [(tuple(pairs), _cross_sign(sig, m1, m2))]
    for i in contracted:
        options = _contraction(cliff[i], *m1[i], *m2[i])
        terms = [(m[:i] + (pair,) + m[i + 1:], c * s) for m, c in terms for pair, s in options]
    return terms


# Largest number of terms of a word's normal form: the product of the
# per-index term counts, known before any fold.  eval -w Y1,X1 on
# [[100],[100]] (10,201 terms, 2.5 MB of text) answers; on [[500],[500]]
# (251,001 terms, 373 MB) it is refused.
MAX_WORD_TERMS = 25_000
# Largest fold work at one Weyl index, in coefficient updates, bounded from
# the run exponents before any fold (``_fold_size``).  Y1,X1,Y1,X1 on [[200]]
# (40,602) answers; on [[625]] (392,502, 8.9 s) it is refused.
MAX_FOLD_WORK = 100_000


def _fold_size(counts: list) -> tuple[int, int]:
    """(terms, work) of folding a Weyl subword given as x^a d^b run exponents
    a0, b0, a1, b1, ...: the terms are 1 + the most d-before-x contractions,
    found greedily, and the work bounds the coefficient updates, the terms
    before each run after the first times the most terms one of them
    contracts to."""
    pending = matched = seen_d = work = 0
    for j in range(0, len(counts), 2):
        a, b = counts[j], counts[j + 1]
        if j:
            work += (1 + matched) * (1 + min(seen_d, a))
        k = min(pending, a)
        matched += k
        pending += b - k
        seen_d += b
    return 1 + matched, work


def _weyl_fold(counts: list) -> Iterable:
    """Normal form of a Weyl subword of two or more runs, given as run
    exponents a0, b0, a1, b1, ..., as ((a, b), coeff) pairs: the runs folded
    left to right by ``_contraction``.  Every run after the first opens with
    x and every run before the last closes with d, so each step contracts."""
    terms = _contraction(False, *counts[:4])
    for j in range(4, len(counts), 2):
        a2, b2 = counts[j], counts[j + 1]
        acc: dict = {}
        for (a1, b1), c in terms:
            accumulate_terms(acc, ((pair, c * s) for pair, s in _contraction(False, a1, b1, a2, b2)))
        terms = acc.items()
    return terms


def _word_terms(sig: Signature, powers: Iterable[tuple[int, int]]) -> dict[SuperMonomial, int]:
    """Normal form of a word, as monomial -> integer coefficient.

    The word is given left to right as (letter code, exponent) powers with
    positive exponents, a letter coded 2*index + 0 for x and + 1 for d.
    Letters of distinct indices swap up to lam(i, j), so the word is a sign
    times the index-ordered product of its one-index subwords, and its terms
    are the outer product of their normal forms.  The sign flips once per
    letter pair out of index order whose lam is -1: for each new letter, the
    letters already placed at the indices of its ``_swap_masks`` entry,
    counted mod 2 from one bit per index.  A Clifford subword that does not
    alternate x and d holds two equal adjacent letters, so the word is 0; an
    alternating one is x, x d, d or 1 - x d by its first and last letter.  A
    Weyl subword folds its x^a d^b runs (``_weyl_fold``).  Both caps,
    MAX_FOLD_WORK per Weyl index and MAX_WORD_TERMS, are checked before any
    fold and raise ResourceCapError.
    """
    masks = sig._swap_masks
    odd = flips = 0
    # per index, the exponents of its subword's letters alternating x, d, x, ...
    subwords = [[0] for _ in range(sig.n)]
    for code, k in powers:
        i = code >> 1
        if k & 1:
            flips += (odd & masks[i]).bit_count()
            odd ^= 1 << i
        sub = subwords[i]
        # the last count is of this letter's kind when len(sub) and the kind
        # bit differ in parity
        if (len(sub) ^ code) & 1:
            sub[-1] += k
        else:
            sub.append(k)
    cliff = sig._clifford
    if any(max(subwords[i]) > 1 for i in sig.clifford_indices):
        return {}
    # per index, its terms, or None for a Weyl subword still to fold
    forms = []
    count = 1
    for i, sub in enumerate(subwords):
        if len(sub) & 1:
            sub.append(0)
        if len(sub) == 2:
            forms.append([((sub[0], sub[1]), 1)])
        elif cliff[i]:
            # x^a (d x)^r d^b with r >= 1, and (d x)^2 = d x on a Clifford index
            forms.append(_contraction(True, sub[0], 1, 1, sub[-1]))
            count *= len(forms[-1])
        else:
            terms, work = _fold_size(sub)
            if work > MAX_FOLD_WORK:
                raise ResourceCapError(
                    f"normalizing the word takes {work} coefficient updates at index "
                    f"{i + 1}, over the fold-work cap {MAX_FOLD_WORK}"
                )
            forms.append(None)
            count *= terms
    if count > MAX_WORD_TERMS:
        raise ResourceCapError(
            f"the word's normal form has {count} terms, over the term cap {MAX_WORD_TERMS}"
        )
    terms = [((), -1 if flips & 1 else 1)]
    for form, sub in zip(forms, subwords):
        form = form or _weyl_fold(sub)
        terms = [(m + (pair,), c * v) for m, c in terms for pair, v in form]
    return dict(terms)


def _check_mono(sig: Signature, mono) -> SuperMonomial:
    mono = tuple((a, b) for a, b in mono)
    int_tuple((v for pair in mono for v in pair), "monomial exponents")
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


def _exact(c):
    """The coefficient rule: an int stays an int (a bool becomes 0 or 1) and a
    Fraction stays a Fraction; anything else raises TypeError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


class SparseElement:
    """Immutable sparse exact linear combination of basis keys, in one signature.

    ``terms`` maps basis keys to nonzero int or Fraction coefficients.  A
    subclass fixes its basis through four hooks: ``_check_key`` (validate and
    normalize a key), ``_unit_key`` (the key of 1), ``_sort_key`` (render
    order) and ``_body`` (a key's text, empty for the unit), and defines its
    own product.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: Signature, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        exact = ((key, _exact(c)) for key, c in items)
        check = self._check_key
        cleaned = accumulate_terms({}, ((check(sig, key), c) for key, c in exact if c))
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _raw(cls, sig: Signature, terms: dict):
        # internal fast path: terms already canonical (no zeros, valid keys)
        obj = object.__new__(cls)
        object.__setattr__(obj, "sig", sig)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, sig: Signature):
        return cls._raw(sig, {})

    @classmethod
    def one(cls, sig: Signature):
        return cls._raw(sig, {cls._unit_key(sig): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_sig(self, other):
        if self.sig != other.sig:
            raise SignatureMismatchError("operands live in different signatures")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_sig(other)
        return self._raw(self.sig, accumulate_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._raw(self.sig, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c):
        c = _exact(c)
        if not c:
            return self.zero(self.sig)
        return self._raw(self.sig, {key: c * v for key, v in self.terms.items()})

    def constant_value(self):
        """The scalar c when the element equals c*1, otherwise None."""
        if not self.terms:
            return 0
        if len(self.terms) != 1:
            return None
        key, c = next(iter(self.terms.items()))
        return c if key == self._unit_key(self.sig) else None

    # Terms are printed in ``_sort_key`` order, so output is deterministic;
    # a coefficient of magnitude 1 is left off, a fraction is parenthesized.
    def __str__(self) -> str:
        pieces = []
        for key, c in sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0])):
            mag = -c if c < 0 else c
            body = self._body(key)
            if not body:
                term = str(mag)
            elif mag == 1:
                term = body
            elif mag.denominator == 1:
                term = f"{mag}*{body}"
            else:
                term = f"({mag})*{body}"
            pieces.append((" - " if c < 0 else " + ") + term)
        text = "".join(pieces)
        if not text:
            return "0"
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    __hash__ = None


def _mono_str(mono: SuperMonomial) -> str:
    parts = []
    for i, (a, b) in enumerate(mono):
        if a:
            parts.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
        if b:
            parts.append(f"d{i + 1}" if b == 1 else f"d{i + 1}^{b}")
    return "*".join(parts)


class SuperElement(SparseElement):
    """Sparse exact combination of normal-ordered monomials."""

    __slots__ = ()

    _check_key = staticmethod(_check_mono)
    _body = staticmethod(_mono_str)

    @staticmethod
    def _unit_key(sig: Signature) -> SuperMonomial:
        return ((0, 0),) * sig.n

    @staticmethod
    def _sort_key(mono: SuperMonomial):
        return mono_degree(mono), tuple(v for ab in mono for v in ab)

    @classmethod
    def from_mono(cls, sig: Signature, mono, coeff=1) -> "SuperElement":
        return cls(sig, {tuple(mono): coeff})

    @classmethod
    def x(cls, sig: Signature, i: int) -> "SuperElement":
        return cls.from_mono(sig, power_gen(sig, i, 1))

    @classmethod
    def d(cls, sig: Signature, i: int) -> "SuperElement":
        return cls.from_mono(sig, power_gen(sig, i, -1))

    def __mul__(self, other):
        if isinstance(other, SuperElement):
            self._require_same_sig(other)
            sig = self.sig
            acc: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    c12 = c1 * c2
                    accumulate_terms(acc, ((m, c12 * s) for m, s in _mono_product(sig, m1, m2)))
            return SuperElement._raw(sig, acc)
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        return NotImplemented

    def star(self) -> "SuperElement":
        """Involution: x_i <-> d_i with words reversed.

        The blocks x_i^a d_i^b of a monomial become x_i^b d_i^a in descending
        index order; sorting them back moves every block past every lower one,
        which is the sign of the product of the monomial with itself.
        """
        sig = self.sig
        return SuperElement._raw(sig, {
            tuple((b, a) for a, b in mono): c if _cross_sign(sig, mono, mono) > 0 else -c
            for mono, c in self.terms.items()
        })

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


def mono_mul(sig: Signature, m1, m2) -> SuperElement:
    """Normal form of the concatenation of two normal-ordered monomials."""
    m1 = _check_mono(sig, m1)
    m2 = _check_mono(sig, m2)
    return SuperElement._raw(sig, dict(_mono_product(sig, m1, m2)))


def involution(a: SuperElement) -> SuperElement:
    return a.star()


def degree_of(a: SuperElement) -> tuple[int, ...]:
    return a.degree()


def word_element(sig: Signature, letters: Iterable[tuple[str, int]]) -> SuperElement:
    """Normal form of an arbitrary word given as ('x'|'d', index) letters."""
    powers = []
    n = sig.n
    prev = None
    for kind, i in letters:
        if kind not in ("x", "d"):
            raise ValueError(f"letter kind must be 'x' or 'd', got {kind!r}")
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for n={n}")
        code = 2 * i + (0 if kind == "x" else 1)
        if code == prev:
            power[1] += 1
        else:
            power = [code, 1]
            powers.append(power)
            prev = code
    return SuperElement._raw(sig, _word_terms(sig, powers))
