"""Chevalley presentations realized by differential operators.

Three families are provided.  ``gl`` and ``osp_even`` act on the ``minus``
variant with parity (1,...,1,0,...,0) (p odd indices first); ``osp_odd``
acts on the ``plus`` variant with parity (0,...,0,1,...,1).  The raising
images are pi(e_i) = x_i d_{i+1} for i < n, with the last generator mapped
to x_n^2 (osp_even) or x_n (osp_odd); lowering images are involutions of
the raising ones, and pi(h_i) = x_i d_i + c_i for a central constant c_i
fixed by the variant.

The presentation is data: each ``Relation`` holds the two generators it
brackets and the integer linear combination of generators the bracket
equals, and ``_relations`` is the one place that writes these down.  Each
residual is bilinear in the images and the central constants and shifts of
the h images bracket to zero, so the unscaled ("raw") bracket of every
relation depends on the preset alone: it is computed once per ``LiePreset``
from one summary per image, and kept as scalars on the generator images.  A
pair of images that contract in neither order, where no index has the d of
one meeting the x of the other, and whose sign rule, read off the block
lengths and parities of their terms, is even is zero at once
(``_live_pairs``); an even image c + sum w_k x_k d_k against an image whose
terms share one eigenvalue gives that eigenvalue times the image, read off
the weights.  Only the O(rank) other pairs, the diagonal e-f pairs, take
the closed-form monomial products, and their bracket is read off the images
of the relation's right-hand side.  A check then costs O(1) per relation: a
relation whose raw bracket and right-hand side are both empty passes with a
shared zero residual, and any other compares one scalar per generator image
and one constant; only a relation that fails builds its residual.  Scale
factors live in version-controlled fixtures; the ``calibrate`` solver
re-derives them by exact scalar-ratio matching (the raising scale is pinned
by the column-word comparison, the lowering scale by the diagonal e-f
relations, read from the same raw brackets) and returns the relation and
triangle reports of its answer.  A preset of rank p + q above
``MAX_LIE_RANK`` raises ``ResourceCapError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .algebra import (
    Signature, SuperElement, _exact, _mono_product, accumulate_terms,
)
from .datum import GammaMatrix, phi_generator, require_valid
from .errors import ResourceCapError

FAMILIES = ("gl", "osp_even", "osp_odd")
# Largest p + q a preset may have: a presentation holds about 3.5 (p + q)^2
# relations, each printed and decided in O(1) from the summaries of its two
# images; only the O(p + q) whose images contract, where the d of one meets
# the x of the other, take monomial products (lie check gl 32 32 takes
# about 0.03 s in process on a 2-vCPU guest), and its column matrix holds
# (p + q)^2 entries.
MAX_LIE_RANK = 64


def super_bracket(a: SuperElement, b: SuperElement, pa: int, pb: int) -> SuperElement:
    """ab - (-1)^(pa*pb) ba for declared parities pa, pb."""
    if pa & pb:
        return a * b + b * a
    return a * b - b * a


def zeta_matrix(family: str, p: int, q: int) -> GammaMatrix:
    """Column matrix of the family: bidiagonal plus a family-specific last column."""
    sig = _target_signature(family, p, q)
    n = p + q
    m = n - 1 if family == "gl" else n
    rows = [[0] * m for _ in range(n)]
    for c in range(min(m, n - 1)):
        rows[c][c] = 1
        rows[c + 1][c] = -1
    if family == "osp_even":
        rows[n - 1][n - 1] = 2
    elif family == "osp_odd":
        rows[n - 1][n - 1] = 1
    return GammaMatrix(sig, tuple(tuple(r) for r in rows))


def _target_signature(family: str, p: int, q: int) -> Signature:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    n = p + q
    if n > MAX_LIE_RANK:
        raise ResourceCapError(f"rank p + q = {n} exceeds the Lie rank cap {MAX_LIE_RANK}")
    if family == "gl" and n < 2:
        raise ValueError("the gl family needs p + q >= 2")
    if family == "osp_even" and q < 1:
        raise ValueError(
            "osp_even needs q >= 1: its squared last generator would sit on a "
            "Clifford direction otherwise"
        )
    if family == "osp_odd":
        return Signature("plus", (0,) * p + (1,) * q)
    return Signature("minus", (1,) * p + (0,) * q)


class Relation(NamedTuple):
    """``[left, right] = sum(coefficient * generator for generator, coefficient
    in linear)``, each generator ``("e" | "f" | "h", index)`` and each listed
    coefficient a nonzero int."""

    left: tuple[str, int]
    right: tuple[str, int]
    linear: tuple[tuple[tuple[str, int], int], ...] = ()

    @property
    def label(self) -> str:
        (a, i), (b, j) = self.left, self.right
        return f"[{a}{i + 1},{b}{j + 1}]"


@dataclass(frozen=True)
class Calibration:
    """Per-generator scale factors and h shifts, plus expected h offsets."""

    e_scale: tuple[Fraction, ...]
    f_scale: tuple[Fraction, ...]
    h_shift: tuple[Fraction, ...]
    expected_h_offsets: tuple[Fraction, ...]

    def to_dict(self) -> dict:
        return {
            "e_scale": [str(c) for c in self.e_scale],
            "f_scale": [str(c) for c in self.f_scale],
            "h_shift": [str(c) for c in self.h_shift],
            "h_offsets": [str(c) for c in self.expected_h_offsets],
        }


def unit_calibration(ne: int, n: int) -> Calibration:
    one = Fraction(1)
    zero = Fraction(0)
    return Calibration((one,) * ne, (one,) * ne, (zero,) * n, (zero,) * n)


@dataclass(frozen=True)
class LiePreset:
    """A presentation as built by ``preset``, which validates ``zeta``; the
    matrix keeps its verdict, so later reads of ``zeta`` do not repeat it."""

    family: str
    p: int
    q: int
    sig: Signature
    zeta: GammaMatrix
    e_images: tuple[SuperElement, ...]
    f_images: tuple[SuperElement, ...]
    h_images: tuple[SuperElement, ...]
    e_parity: tuple[int, ...]
    relations: tuple[Relation, ...]
    scalings: Calibration

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def ne(self) -> int:
        return len(self.e_images)

    @cached_property
    def raw_brackets(self) -> tuple[Optional[tuple], ...]:
        """Unscaled bracket of each relation's two images, in relation order,
        as a pair (span, rest) (None when it is zero; see ``_ZERO``),
        computed on first read."""
        return _raw_brackets(self)


def preset(family: str, p: int, q: int) -> LiePreset:
    """Fully populated presentation for one family at size (p, q)."""
    sig = _target_signature(family, p, q)
    n = p + q
    zeta = zeta_matrix(family, p, q)
    require_valid(zeta)
    ne = zeta.m
    half = Fraction(1, 2)
    # c_i by the parity of index i
    h_const = (half, -half) if sig.sign == "minus" else (-half, half)
    unit = ((0, 0),) * n

    def image(i, blocks, const=0):
        # blocks at the indices from i on are a normal-ordered word, so the
        # image is that one monomial with coefficient 1
        terms = {unit[:i] + blocks + unit[i + len(blocks):]: 1}
        if const:
            terms[unit] = const
        return SuperElement._raw(sig, terms)

    e_images = [image(j, ((1, 0), (0, 1))) for j in range(n - 1)]  # x_j d_{j+1}
    if family == "osp_even":
        e_images.append(image(n - 1, ((2, 0),)))  # x_n^2, on a Weyl index since q >= 1
    elif family == "osp_odd":
        e_images.append(image(n - 1, ((1, 0),)))  # x_n
    f_images = [img.star() for img in e_images]
    h_images = [image(i, ((1, 1),), h_const[sig.parity[i]]) for i in range(n)]  # x_i d_i + c_i

    e_parity = []
    for j in range(ne):
        if j < n - 1:
            conventional = 1 if (p >= 1 and j == p - 1) else 0
        elif family == "osp_even":
            conventional = 0
        else:
            conventional = sig.parity[n - 1]
        ambient = e_images[j].parity()
        if ambient != conventional:
            raise ValueError(
                f"generator parity mismatch for e{j + 1}: presentation says "
                f"{conventional}, image parity is {ambient}"
            )
        e_parity.append(conventional)

    return LiePreset(
        family=family,
        p=p,
        q=q,
        sig=sig,
        zeta=zeta,
        e_images=tuple(e_images),
        f_images=tuple(f_images),
        h_images=tuple(h_images),
        e_parity=tuple(e_parity),
        relations=_relations(family, n, p),
        scalings=unit_calibration(ne, n),
    )


def _relations(family: str, n: int, p: int) -> tuple[Relation, ...]:
    """The displayed presentation, in report order."""
    e = [("e", j) for j in range(n)]
    f = [("f", j) for j in range(n)]
    h = [("h", i) for i in range(n)]
    new = tuple.__new__  # a Relation without the Python call of Relation.__new__

    def h_weights(js):
        # [h_i, e_j] = (delta_ij - delta_i,j+1) e_j, negated for f_j
        out = []
        for i, hi in enumerate(h):
            for j in js:
                c = (i == j) - (i == j + 1)
                if c:
                    out += (new(Relation, (hi, e[j], ((e[j], c),))),
                            new(Relation, (hi, f[j], ((f[j], -c),))))
                else:
                    out += (new(Relation, (hi, e[j], ())), new(Relation, (hi, f[j], ())))
        return out

    ngl = n - 1  # generators carried over from the gl presentation
    rels = [new(Relation, (h[i], h[j], ())) for i in range(n) for j in range(i + 1, n)]
    rels += h_weights(range(ngl))
    # [e_i, f_i] = h_i - h_{i+1}, or h_i + h_{i+1} across the odd/even seam
    rels += [new(Relation, (e[i], f[j], () if i != j else
                            ((h[i], 1), (h[i + 1], 1 if i == p - 1 else -1))))
             for i in range(ngl) for j in range(ngl)]
    if family == "osp_odd":
        last = n - 1
        rels += h_weights((last,))
        rels.append(new(Relation, (e[last], f[last], ((h[last], 1),))))
        for i in range(ngl):
            rels += (new(Relation, (e[i], f[last], ())), new(Relation, (e[last], f[i], ())))
    return tuple(rels)


@dataclass
class RelationResult:
    label: str
    passed: bool
    residual: SuperElement


@dataclass
class ResidualReport:
    """The label of every relation in report order and, by position, the
    residual of each that fails; every other relation passes with the
    shared ``zero`` residual."""

    labels: list[str]
    residuals: dict[int, SuperElement]
    zero: SuperElement

    @property
    def all_pass(self) -> bool:
        return not self.residuals

    @cached_property
    def results(self) -> list[RelationResult]:
        failed, zero = self.residuals, self.zero
        return [RelationResult(label, k not in failed, failed.get(k, zero))
                for k, label in enumerate(self.labels)]

    def failures(self) -> list[RelationResult]:
        return [RelationResult(self.labels[k], False, r) for k, r in self.residuals.items()]

    def to_dict(self) -> dict:
        failed, zero = self.residuals, str(self.zero)
        return {
            "all_pass": self.all_pass,
            "relations": [
                {"relation": label, "pass": k not in failed,
                 "residual": str(failed[k]) if k in failed else zero}
                for k, label in enumerate(self.labels)
            ],
        }


def _support_terms(sig: Signature, terms: Mapping) -> list:
    """(monomial, coefficient, x mask, d mask, length, parity) per term: the
    masks are the bitmasks of the indices where the monomial has an x and a
    d, their union its support, the length the parity of its total block
    length."""
    parity = sig.parity
    out = []
    for mono, c in terms.items():
        xs = ds = length = odd = 0
        for i, (a, b) in enumerate(mono):
            if a or b:
                if a:
                    xs |= 1 << i
                if b:
                    ds |= 1 << i
                length += a + b
                if parity[i]:
                    odd += a + b
        out.append((mono, c, xs, ds, length & 1, odd & 1))
    return out


def _bracket_terms(sig: Signature, a: list, b: list, pa: int, pb: int) -> dict:
    """ab - (-1)^(pa*pb) ba on ``_support_terms`` lists.

    Two monomials with no index where the d of one meets the x of the other
    contract in neither order: both products are the one monomial of the
    summed exponents (or vanish together on a Clifford index), and m2*m1 =
    (-1)^(base*L1*L2 + P1*P2) m1*m2, with L the total block lengths, P the
    parities (the block lengths on odd indices), and base 1 for the plus
    variant and 0 for minus.  So such a pair brackets to twice m1*m2 when
    that exponent and pa*pb differ in parity, and to zero otherwise; only a
    pair that contracts takes both products.
    """
    swap = 1 if pa & pb else -1
    plus = int(sig.sign == "plus")
    acc: dict = {}
    for m1, c1, x1, d1, l1, o1 in a:
        for m2, c2, x2, d2, l2, o2 in b:
            if d1 & x2 or d2 & x1:
                c = c1 * c2
                accumulate_terms(acc, ((m, c * s) for m, s in _mono_product(sig, m1, m2)))
                c = swap * c
                accumulate_terms(acc, ((m, c * s) for m, s in _mono_product(sig, m2, m1)))
            elif (plus & l1 & l2) ^ (o1 & o2) ^ (pa & pb):
                c = 2 * c1 * c2
                accumulate_terms(acc, ((m, c * s) for m, s in _mono_product(sig, m1, m2)))
    return acc


class _Summary(NamedTuple):
    """One image as ``_raw_brackets`` reads it: its ``_support_terms``;
    when it is a constant plus sum w_k x_k d_k, the weights ((k, w_k), ...)
    (None otherwise); the unions of its x and d masks; the (length, parity)
    bits its terms share, as 2 * length + parity (None when two differ);
    and its first term that is not a constant, (monomial, coefficient)."""

    terms: list
    weights: Optional[tuple[tuple[int, object], ...]]
    xs: int
    ds: int
    bits: Optional[int]
    pivot: Optional[tuple]


def _summary(sig: Signature, terms: Mapping) -> _Summary:
    terms = _support_terms(sig, terms)
    xs = ds = 0
    weights = []
    classes = set()
    pivot = None
    for mono, c, x, d, length, odd in terms:
        xs |= x
        ds |= d
        classes.add(2 * length + odd)
        s = x | d
        if s and pivot is None:
            pivot = mono, c
        if s and weights is not None:
            k = s.bit_length() - 1
            if s != 1 << k or mono[k] != (1, 1):
                weights = None
            else:
                weights.append((k, c))
    bits = classes.pop() if len(classes) == 1 else None
    weights = None if weights is None else tuple(weights)
    return _Summary(terms, weights, xs, ds, bits, pivot)


# A raw bracket, when it is not zero, is a pair (span, rest): the bracket
# is sum(r * image of g for g, r in span) plus rest, a read-only coefficient
# map, on the unshifted generator images, each r nonzero.
_EMPTY = MappingProxyType({})
_ZERO = ((), _EMPTY)


def _weight_ratio(weights: tuple, x: _Summary) -> Optional[object]:
    """lam with [h, X] = lam X for an even h = c + sum w_k x_k d_k, or None.

    x_k d_k commutes with every generator of another index and
    [x_k d_k, x_k^a d_k^b] = (a - b) x_k^a d_k^b, on a Weyl index and on a
    Clifford one alike, so each term of X is an eigenvector with eigenvalue
    sum_k w_k (a_k - b_k); lam is that eigenvalue when all terms share it.
    """
    value = None
    for mono, *_ in x.terms:
        k = 0
        for i, w in weights:
            a, b = mono[i]
            if a != b:
                k += w * (a - b)
        if value is not None and k != value:
            return None
        value = k
    return value


def _decompose(raw: dict, linear, info: dict) -> Optional[tuple]:
    """A bracket map as a raw bracket over the right-hand side's generators:
    each takes the ratio at the pivot of its image, and what those multiples
    leave over is the rest; None when nothing is left at all."""
    span = []
    for g, _ in linear:
        image = info[g][0]
        if image.pivot is None:
            continue
        pivot, c = image.pivot
        r = raw.pop(pivot, 0)
        if r:
            if c != 1:
                r = Fraction(r, c)
                r = r.numerator if r.denominator == 1 else r
            # the pivot cancels exactly; subtract r times the other terms
            for m, v, *_ in image.terms:
                if m != pivot:
                    old = raw.get(m)
                    v = -r * v if old is None else old - r * v
                    if v:
                        raw[m] = v
                    else:
                        del raw[m]
            span.append((g, r))
    return (tuple(span), MappingProxyType(raw)) if span or raw else None


def _live_pairs(sig: Signature, info: dict) -> set:
    """The ordered generator pairs whose bracket can be nonzero: a contact,
    where the x of one meets the d of the other at some index, or a pair of
    (length, parity, declared parity) classes on which the sign rule of
    ``_bracket_terms`` is odd, a generator with mixed classes pairing with
    all.  Every other pair contracts in neither order and brackets to zero."""
    # the sign rule is odd when l1 l2 base + o1 o2 + p1 p2 is, on the bits
    # (length, parity, declared parity) of each generator
    form = 0b111 if sig.sign == "plus" else 0b011
    at_x, at_d, classes = {}, {}, {}
    for g, (summary, parity) in info.items():
        for masks, mask in ((at_x, summary.xs), (at_d, summary.ds)):
            while mask:
                low = mask & -mask
                masks.setdefault(low, []).append(g)
                mask ^= low
        bits = None if summary.bits is None else 2 * summary.bits + parity
        classes.setdefault(bits, []).append(g)
    live = set()
    for low, xs in at_x.items():
        for a, b in product(xs, at_d.get(low, ())):
            live.add((a, b))
            live.add((b, a))
    for v, first in classes.items():
        for w, second in classes.items():
            if v is None or w is None or (v & w & form).bit_count() & 1:
                live.update(product(first, second))
    return live


def _raw_brackets(preset: LiePreset) -> tuple[Optional[tuple], ...]:
    """The unscaled bracket of each relation as a raw bracket, None where it is
    zero, from one summary per image: a pair outside ``_live_pairs`` is
    zero at once, an even diagonal against an image whose terms share an
    eigenvalue gives that eigenvalue times the image, and only the other
    pairs build a map, which is then read off the relation's right-hand
    side."""
    sig = preset.sig
    info = {}
    for kind, images, parity in (("e", preset.e_images, preset.e_parity),
                                 ("f", preset.f_images, preset.e_parity),
                                 ("h", preset.h_images, (0,) * preset.n)):
        for k, (img, par) in enumerate(zip(images, parity)):
            info[kind, k] = _summary(sig, img.terms), par
    live = _live_pairs(sig, info)
    relations = preset.relations
    out = [None] * len(relations)
    for k in [k for k, (left, right, _) in enumerate(relations) if (left, right) in live]:
        left, right, linear = relations[k]
        (a, pa), (b, pb) = info[left], info[right]
        r = None
        if a.weights is not None and not pa:
            r, gen = _weight_ratio(a.weights, b), right
        elif b.weights is not None and not pb:
            r, gen = _weight_ratio(b.weights, a), left
            r = None if r is None else -r
        if r is None:
            out[k] = _decompose(_bracket_terms(sig, a.terms, b.terms, pa, pb), linear, info)
        elif r:
            out[k] = (((gen, r),), _EMPTY)
    return tuple(out)


def _exact_int(c):
    """``_exact(c)``, an integral value as an int: int products are cheaper."""
    if type(c) is not Fraction:
        c = _exact(c)
    return c.numerator if c.denominator == 1 else c


def _generator_table(preset: LiePreset, cal: Calibration) -> dict:
    """generator -> (scale, shift) on a calibration, each value converted
    once: e and f images take their scales, h images are not scaled and
    carry their shifts on the unit monomial."""
    table = {}
    for kind, scales in (("e", cal.e_scale), ("f", cal.f_scale)):
        for k, scale in enumerate(scales):
            table[kind, k] = (_exact_int(scale), 0)
    for k, shift in enumerate(cal.h_shift):
        table["h", k] = (1, _exact_int(shift))
    return table


def _image_terms(preset: LiePreset, generator: tuple[str, int]) -> Mapping:
    kind, k = generator
    return getattr(preset, f"{kind}_images")[k].terms


def _residual_terms(preset: LiePreset, coeffs: dict, const, rest: Mapping, scale) -> dict:
    """sum(c * image of g for g, c in coeffs) + const + scale * rest, as a
    map: the residual of a relation whose scalars did not all vanish."""
    acc: dict = {}
    for g, c in coeffs.items():
        if c:
            accumulate_terms(acc, ((m, c * v) for m, v in _image_terms(preset, g).items()))
    if const:
        accumulate_terms(acc, ((SuperElement._unit_key(preset.sig), const),))
    if scale:
        accumulate_terms(acc, ((m, scale * v) for m, v in rest.items()))
    return acc


def check_relations(preset: LiePreset, scalings: Optional[Calibration] = None) -> ResidualReport:
    """Residual of every listed relation on the scaled images.  A relation
    whose raw bracket and right-hand side are both empty passes unscaled;
    any other is scaled bracket minus right-hand side as one scalar per
    generator image and a constant from the h shifts, and passes when these
    all vanish; only otherwise is its residual built."""
    table = _generator_table(preset, scalings or preset.scalings)
    names = {g: f"{g[0]}{g[1] + 1}" for g in table}
    relations, raws = preset.relations, preset.raw_brackets
    labels = [f"[{names[left]},{names[right]}]" for left, right, _ in relations]
    residuals = {}
    for k in [k for k, raw in enumerate(raws) if raw is not None or relations[k].linear]:
        (left, right, linear), raw = relations[k], raws[k]
        span, rest = raw or _ZERO
        scale = table[left][0] * table[right][0]
        coeffs = {g: scale * r for g, r in span}
        const = 0
        for g, c in linear:
            s, shift = table[g]
            coeffs[g] = coeffs.get(g, 0) - c * s
            const -= c * shift
        if const or rest and scale or any(coeffs.values()):
            terms = _residual_terms(preset, coeffs, const, rest, scale)
            if terms:
                residuals[k] = SuperElement._raw(preset.sig, terms)
    return ResidualReport(labels, residuals, SuperElement.zero(preset.sig))


@dataclass
class TriangleReport:
    """Column-word vs scaled raising images, and the central h offsets."""

    x_matches: list[bool]
    h_offsets: list[Optional[Fraction]]
    expected_offsets: tuple[Fraction, ...]

    @property
    def all_x_match(self) -> bool:
        return all(self.x_matches)

    @property
    def offsets_constant(self) -> bool:
        return all(o is not None for o in self.h_offsets)

    @property
    def offsets_match_expected(self) -> bool:
        return self.offsets_constant and tuple(self.h_offsets) == tuple(
            self.expected_offsets
        )

    @property
    def passed(self) -> bool:
        return self.all_x_match and self.offsets_match_expected

    def to_dict(self) -> dict:
        return {
            "x_matches": self.x_matches,
            "h_offsets": [None if o is None else str(o) for o in self.h_offsets],
            "expected_h_offsets": [str(o) for o in self.expected_offsets],
            "pass": self.passed,
        }


def check_triangle(preset: LiePreset, scalings: Optional[Calibration] = None) -> TriangleReport:
    """Compare column words with scaled raising images and extract h offsets.

    The ring-side image of h_i is lam(i,i)*(u_i - 1), which embeds to
    x_i d_i exactly, so the reported offset is the central constant carried
    by the differential-operator image of h_i.
    """
    return _triangle(preset, scalings or preset.scalings, _column_words(preset))


def _column_words(preset: LiePreset) -> list[SuperElement]:
    return [phi_generator(preset.zeta, c) for c in range(preset.zeta.m)]


def _triangle(preset: LiePreset, cal: Calibration, words: list[SuperElement]) -> TriangleReport:
    """``check_triangle`` on column words already built, on coefficient maps:
    each word against its scaled raising image, and each shifted h image
    minus x_i d_i, the embedded ring side."""
    x_matches = [_is_multiple(word.terms, img.terms, _exact_int(scale))
                 for word, img, scale in zip(words, preset.e_images, cal.e_scale)]
    one = SuperElement._unit_key(preset.sig)
    h_offsets: list[Optional[Fraction]] = []
    for i, (img, shift) in enumerate(zip(preset.h_images, cal.h_shift)):
        # img + shift - x_i d_i is a constant iff img is x_i d_i plus a constant
        terms = img.terms
        if terms.get(one[:i] + ((1, 1),) + one[i + 1:]) != 1 or len(terms) != 1 + (one in terms):
            h_offsets.append(None)
        elif shift:
            h_offsets.append(terms.get(one, 0) + _exact_int(shift) or 0)
        else:
            h_offsets.append(terms.get(one, 0))
    return TriangleReport(x_matches, h_offsets, cal.expected_h_offsets)


def _is_multiple(num: Mapping, den: Mapping, n, c=1) -> bool:
    """num == (n / c) * den on coefficient maps, with no map or quotient built."""
    return len(num) == (len(den) if n else 0) and all(
        num.get(m, 0) * c == n * v for m, v in den.items())


def _scalar_ratio(num: Mapping, den: Mapping) -> Optional[Fraction]:
    """rho with num == rho * den on coefficient maps, when one exists."""
    if not den:
        return Fraction(1) if not num else None
    mono, c = next(iter(den.items()))
    n = num.get(mono, 0)
    return Fraction(n, c) if _is_multiple(num, den, n, c) else None


def _target_ratio(preset: LiePreset, linear, raw: Optional[tuple]) -> Optional[Fraction]:
    """rho with the unscaled right-hand side equal to rho * raw: one scalar
    per image when raw spans the same images, else on maps."""
    span, rest = raw or _ZERO
    found = dict(span)
    if linear and not rest and len(found) == len(linear) == len({g for g, _ in linear} & found.keys()):
        g, c = linear[0]
        r = found[g]
        if all(d * r == c * found[h] for h, d in linear):
            return Fraction(c, r)
    target = accumulate_terms({}, (
        (m, c * v) for g, c in linear for m, v in _image_terms(preset, g).items()))
    return _scalar_ratio(target, _residual_terms(preset, found, 0, rest, 1))


@dataclass
class CalibrationResult:
    calibration: Calibration
    solved: bool
    message: str
    report: ResidualReport  # check_relations on ``calibration``
    triangle: TriangleReport  # check_triangle on ``calibration``


def calibrate(preset: LiePreset) -> CalibrationResult:
    """Solve for scale factors by exact ratio matching, then verify.

    The raising scales come from the column-word comparison, the lowering
    scales from the diagonal e-f relations evaluated on raw images; h
    shifts stay at zero.  Every result carries the relation and triangle
    reports of the calibration it returns.
    """
    ne, n = preset.ne, preset.n
    unit = unit_calibration(ne, n)
    words = _column_words(preset)

    def failed(message: str) -> CalibrationResult:
        report = check_relations(preset, unit)
        return CalibrationResult(unit, False, message, report, _triangle(preset, unit, words))

    e_scale = []
    for c in range(ne):
        rho = _scalar_ratio(words[c].terms, preset.e_images[c].terms)
        if rho is None or rho == 0:
            return failed(f"column word {c + 1} is not a scalar multiple of the raising image")
        e_scale.append(rho)
    f_scale = [Fraction(1)] * ne
    diagonal = [(rel, raw) for rel, raw in zip(preset.relations, preset.raw_brackets)
                 if rel.right[0] == "f" and rel.left == ("e", rel.right[1])]
    for rel, raw in diagonal:
        i = rel.left[1]
        rho = _target_ratio(preset, rel.linear, raw)
        if rho is None or rho == 0:
            return failed(f"relation {rel.label} is not a scalar away from its target")
        f_scale[i] = rho / e_scale[i]
    zero = (Fraction(0),) * n
    cal = Calibration(tuple(e_scale), tuple(f_scale), zero, zero)
    triangle = _triangle(preset, cal, words)
    if not triangle.offsets_constant:
        return CalibrationResult(
            cal, False, "h comparison is not a central constant",
            check_relations(preset, cal), triangle,
        )
    # x_matches and h_offsets do not depend on the expected offsets
    cal = Calibration(cal.e_scale, cal.f_scale, zero, tuple(triangle.h_offsets))
    triangle = TriangleReport(triangle.x_matches, triangle.h_offsets, cal.expected_h_offsets)
    report = check_relations(preset, cal)
    labels = [r.label for r in report.failures()]
    message = f"unresolved residuals: {labels}" if labels else "solved"
    return CalibrationResult(cal, not labels, message, report, triangle)


def _fixture_value(entry: dict, family: str, key: str) -> Fraction:
    """One exact fixture value: a JSON integer or a rational string."""
    if key not in entry:
        raise ValueError(f"{family}: missing key {key!r}")
    value = entry[key]
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(
        f"{family}: {key} must be an integer or a rational string like \"1/2\", got {value!r}"
    )


def load_calibration(preset: LiePreset, path: Optional[str] = None) -> Calibration:
    """Frozen scale factors for a preset, from the packaged fixture or a file.

    Values must be JSON integers or exact rational strings; anything else
    (a float in particular) raises ValueError naming the key.
    """
    if path is None:
        from pkgutil import get_data  # only this path reads the package data

        text = get_data(__package__, "data/lie_calibration.json")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    entry = data.get(preset.family) if isinstance(data, dict) else None
    if not isinstance(entry, dict):
        raise ValueError(f"no calibration object for family {preset.family!r}")

    def value(key: str) -> Fraction:
        return _fixture_value(entry, preset.family, key)

    ne, n = preset.ne, preset.n
    e_scale = [value("e_scale")] * ne
    f_scale = [value("f_scale")] * ne
    if ne and preset.family == "osp_odd":
        f_scale[-1] = value("f_scale_last")
    h_shift = [value("h_shift")] * n
    off = value("h_offset_scale")
    offsets = (off, -off)
    expected = tuple(offsets[parity] for parity in preset.sig.parity)
    return Calibration(tuple(e_scale), tuple(f_scale), tuple(h_shift), expected)
