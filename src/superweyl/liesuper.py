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
equals, and ``_relations`` is the one place that writes these down.  The
bracket residual of every relation is computed exactly on scaled images.
Each residual is bilinear in the images and the central constants and shifts
of the h images bracket to zero, so the unscaled ("raw") bracket of every
relation depends on the preset alone: it is computed once per ``LiePreset``,
on integer coefficient maps (exact fractions only where an image has them),
from one summary per image.  An even image c + sum w_k x_k d_k brackets each
monomial to a multiple of itself read off the weights.  Two image monomials
with no index where the d of one meets the x of the other bracket to zero
or to twice their product by a sign rule.  Only the O(rank) other pairs, in
``gl`` the diagonal e-f pairs, take the two closed-form monomial products,
so the O(rank^2) relations cost O(rank^2) in all, with a small constant per
relation.  Each calibration then costs one scalar multiple of every nonzero
raw bracket minus its right-hand side, from one table of scales and shifts
per call; a relation with neither passes as it is.  Scale factors live in
version-controlled fixtures; the ``calibrate`` solver re-derives them by
exact scalar-ratio matching (the raising scale is pinned by the column-word
comparison, the lowering scale by the diagonal e-f relations, read from the
same raw brackets and right-hand sides) and returns the relation and
triangle reports of its answer.  A preset of rank p + q above
``MAX_LIE_RANK`` raises ``ResourceCapError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .algebra import (
    Signature, SuperElement, _exact, _mono_product, accumulate_terms,
)
from .datum import GammaMatrix, phi_generator, require_valid
from .errors import ResourceCapError

FAMILIES = ("gl", "osp_even", "osp_odd")
# Largest p + q a preset may have: a presentation holds about 3.5 (p + q)^2
# relations, each printed and decided from the summaries of its two images;
# only the O(p + q) whose images contract, where the d of one meets the x of
# the other, take two monomial products per pair of terms (lie check gl 32 32
# takes 0.05-0.08 s), and its column matrix holds (p + q)^2 entries.
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
    def raw_brackets(self) -> tuple[Mapping, ...]:
        """Unscaled bracket of each relation's two images, in relation order,
        as read-only monomial -> coefficient maps (ints where the images'
        coefficients are integral), computed on first read."""
        return _raw_brackets(self)


def preset(family: str, p: int, q: int) -> LiePreset:
    """Fully populated presentation for one family at size (p, q)."""
    sig = _target_signature(family, p, q)
    n = p + q
    zeta = zeta_matrix(family, p, q)
    require_valid(zeta)
    ne = zeta.m
    half = Fraction(1, 2)
    h_const_sign = 1 if sig.sign == "minus" else -1

    def image(*blocks, const=0):
        # blocks (index, (a, b)) at ascending indices are a normal-ordered
        # word, so the image is that one monomial with coefficient 1
        pairs = [(0, 0)] * n
        for i, block in blocks:
            pairs[i] = block
        terms = {tuple(pairs): 1}
        if const:
            terms[((0, 0),) * n] = const
        return SuperElement._raw(sig, terms)

    e_images = [image((j, (1, 0)), (j + 1, (0, 1))) for j in range(n - 1)]  # x_j d_{j+1}
    if family == "osp_even":
        e_images.append(image((n - 1, (2, 0))))  # x_n^2, on a Weyl index since q >= 1
    elif family == "osp_odd":
        e_images.append(image((n - 1, (1, 0))))  # x_n
    f_images = [img.star() for img in e_images]
    h_images = [
        image((i, (1, 1)), const=h_const_sign * (half if sig.parity[i] == 0 else -half))
        for i in range(n)
    ]  # x_i d_i + c_i

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

    def h_weights(i, j):
        # [h_i, e_j] = (delta_ij - delta_i,j+1) e_j, negated for f_j
        c = (i == j) - (i == j + 1)
        if not c:
            return Relation(h[i], e[j], ()), Relation(h[i], f[j], ())
        return Relation(h[i], e[j], ((e[j], c),)), Relation(h[i], f[j], ((f[j], -c),))

    rels = [Relation(h[i], h[j], ()) for i in range(n) for j in range(i + 1, n)]
    ngl = n - 1  # generators carried over from the gl presentation
    for i in range(n):
        for j in range(ngl):
            rels += h_weights(i, j)
    for i in range(ngl):
        for j in range(ngl):
            # [e_i, f_i] = h_i - h_{i+1}, or h_i + h_{i+1} across the odd/even seam
            diagonal = ((h[i], 1), (h[i + 1], 1 if i == p - 1 else -1)) if i == j else ()
            rels.append(Relation(e[i], f[j], diagonal))
    if family == "osp_odd":
        last = n - 1
        for i in range(n):
            rels += h_weights(i, last)
        rels.append(Relation(e[last], f[last], ((h[last], 1),)))
        for i in range(ngl):
            rels += (Relation(e[i], f[last], ()), Relation(e[last], f[i], ()))
    return tuple(rels)


@dataclass
class RelationResult:
    label: str
    passed: bool
    residual: SuperElement


@dataclass
class ResidualReport:
    results: list[RelationResult]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[RelationResult]:
        return [r for r in self.results if not r.passed]

    def to_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "relations": [
                {"relation": r.label, "pass": r.passed, "residual": str(r.residual)}
                for r in self.results
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
    """One image as ``_raw_brackets`` reads it: its ``_support_terms``, the
    union of their supports and, when the image is a constant plus
    sum w_k x_k d_k, the weights ((k, w_k), ...) (None otherwise)."""

    terms: list
    support: int
    weights: Optional[tuple[tuple[int, object], ...]]


def _summary(sig: Signature, terms: Mapping) -> _Summary:
    terms = _support_terms(sig, terms)
    support = 0
    weights = []
    for mono, c, xs, ds, _, _ in terms:
        s = xs | ds
        support |= s
        if s and weights is not None:
            k = s.bit_length() - 1
            if s != 1 << k or mono[k] != (1, 1):
                weights = None
            else:
                weights.append((k, c))
    return _Summary(terms, support, None if weights is None else tuple(weights))


def _weight_terms(weights: tuple, terms: list, sign: int) -> dict:
    """sign * [h, X] for an even h = c + sum w_k x_k d_k and X given by its
    ``_support_terms``.  x_k d_k commutes with every generator of another
    index and [x_k d_k, x_k^a d_k^b] = (a - b) x_k^a d_k^b, on a Weyl index
    and on a Clifford one alike, so each term c m of X is an eigenvector
    with eigenvalue sum_k w_k (a_k - b_k)."""
    out = {}
    for mono, c, *_ in terms:
        k = 0
        for i, w in weights:
            a, b = mono[i]
            if a != b:
                k += w * (a - b)
        if k:
            out[mono] = sign * k * c
    return out


def _summary_bracket(sig: Signature, a: _Summary, b: _Summary, pa: int, pb: int) -> dict:
    """ab - (-1)^(pa*pb) ba from the summaries of a and b: an even diagonal
    operand by its weights, with no product; any other pair by
    ``_bracket_terms``."""
    shared = a.support & b.support
    if a.weights is not None and not pa:
        return _weight_terms(a.weights, b.terms, 1) if shared else {}
    if b.weights is not None and not pb:
        return _weight_terms(b.weights, a.terms, -1) if shared else {}
    return _bracket_terms(sig, a.terms, b.terms, pa, pb)


def _raw_brackets(preset: LiePreset) -> tuple[Mapping, ...]:
    """``_summary_bracket`` of each relation, on one summary per image;
    empty brackets share one empty map."""
    sig = preset.sig
    images = {
        kind: [_summary(sig, img.terms) for img in getattr(preset, f"{kind}_images")]
        for kind in "efh"
    }
    parity = {"e": preset.e_parity, "f": preset.e_parity, "h": (0,) * preset.n}
    empty = MappingProxyType({})
    out = []
    for (a, i), (b, j), _ in preset.relations:
        bracket = _summary_bracket(sig, images[a][i], images[b][j], parity[a][i], parity[b][j])
        out.append(MappingProxyType(bracket) if bracket else empty)
    return tuple(out)


def _exact_int(c):
    """``_exact(c)``, an integral value as an int: int products are cheaper."""
    c = _exact(c)
    return c.numerator if c.denominator == 1 else c


def _generator_table(preset: LiePreset, cal: Calibration) -> dict:
    """generator -> (scale, terms) of its image on a calibration, each value
    converted once: e and f images take their scales, h images are not
    scaled and carry their shifts on the unit monomial."""
    table = {}
    for kind, images, scales in (("e", preset.e_images, cal.e_scale),
                                 ("f", preset.f_images, cal.f_scale)):
        for k, (img, scale) in enumerate(zip(images, scales)):
            table[kind, k] = (_exact_int(scale), img.terms)
    one = SuperElement._unit_key(preset.sig)
    for k, (img, shift) in enumerate(zip(preset.h_images, cal.h_shift)):
        shift = _exact_int(shift)
        terms = accumulate_terms(dict(img.terms), ((one, shift),)) if shift else img.terms
        table["h", k] = (1, terms)
    return table


def _scaled_terms(scale, terms: Mapping) -> dict:
    """scale times a coefficient map, as a new map."""
    return {m: scale * c for m, c in terms.items()} if scale else {}


def _linear_terms(table: dict, linear, sign: int):
    """(monomial, coefficient) pairs of sign times a right-hand side on the
    images of ``_generator_table``."""
    for generator, coeff in linear:
        scale, terms = table[generator]
        c = sign * coeff * scale
        yield from ((m, c * v) for m, v in terms.items())


def _residual_terms(table: dict, rel: Relation, raw: Mapping) -> dict:
    """Scaled raw bracket minus the relation's right-hand side."""
    acc = _scaled_terms(table[rel.left][0] * table[rel.right][0], raw)
    if rel.linear:
        accumulate_terms(acc, _linear_terms(table, rel.linear, -1))
    return acc


def check_relations(preset: LiePreset, scalings: Optional[Calibration] = None) -> ResidualReport:
    """Residual of every listed relation on the scaled images; a relation
    whose raw bracket and right-hand side are both empty passes unscaled."""
    return _relation_report(preset, _generator_table(preset, scalings or preset.scalings))


def _relation_report(preset: LiePreset, table: dict) -> ResidualReport:
    """``check_relations`` on a table already built by ``_generator_table``."""
    sig = preset.sig
    zero = SuperElement.zero(sig)
    results = []
    for rel, raw in zip(preset.relations, preset.raw_brackets):
        if not (raw or rel.linear):
            results.append(RelationResult(rel.label, True, zero))
            continue
        terms = _residual_terms(table, rel, raw)
        results.append(RelationResult(rel.label, not terms, SuperElement._raw(sig, terms)))
    return ResidualReport(results)


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
    sig = preset.sig
    x_matches = [word.terms == _scaled_terms(_exact_int(scale), img.terms)
                 for word, img, scale in zip(words, preset.e_images, cal.e_scale)]
    one = SuperElement._unit_key(sig)
    h_offsets: list[Optional[Fraction]] = []
    for i, (img, shift) in enumerate(zip(preset.h_images, cal.h_shift)):
        xd = one[:i] + ((1, 1),) + one[i + 1:]
        diff = accumulate_terms(dict(img.terms), ((one, _exact_int(shift)), (xd, -1)))
        h_offsets.append(SuperElement._raw(sig, diff).constant_value())
    return TriangleReport(x_matches, h_offsets, cal.expected_h_offsets)


def _scalar_ratio(num: Mapping, den: Mapping) -> Optional[Fraction]:
    """rho with num == rho * den on coefficient maps, when one exists."""
    if not den:
        return Fraction(1) if not num else None
    mono, c = next(iter(den.items()))
    rho = Fraction(num.get(mono, 0), c)
    return rho if num == ({m: rho * v for m, v in den.items()} if rho else {}) else None


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
    table = _generator_table(preset, unit)
    words = _column_words(preset)

    def failed(message: str) -> CalibrationResult:
        report, triangle = _relation_report(preset, table), _triangle(preset, unit, words)
        return CalibrationResult(unit, False, message, report, triangle)

    e_scale = []
    for c in range(ne):
        rho = _scalar_ratio(words[c].terms, preset.e_images[c].terms)
        if rho is None or rho == 0:
            return failed(f"column word {c + 1} is not a scalar multiple of the raising image")
        e_scale.append(rho)
    f_scale = [Fraction(1)] * ne
    for rel, raw in zip(preset.relations, preset.raw_brackets):
        kind, i = rel.left
        if kind != "e" or rel.right != ("f", i):
            continue
        target = accumulate_terms({}, _linear_terms(table, rel.linear, 1))
        rho = _scalar_ratio(target, raw)
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
        from importlib import resources  # only this path reads the package data

        text = resources.files("superweyl").joinpath("data/lie_calibration.json").read_text()
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
    expected = tuple(off * (1 if preset.sig.parity[i] == 0 else -1) for i in range(n))
    return Calibration(tuple(e_scale), tuple(f_scale), tuple(h_shift), expected)
