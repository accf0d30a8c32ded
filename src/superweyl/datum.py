"""Integer matrices, their validation, and the ring data they induce.

A matrix gamma with n rows (one per superalgebra index) and m columns maps
each column i to a pair of generator words: X_i with image
x_1^(g_1i) ... x_n^(g_ni) and Y_i, the involution of X_i.  A valid matrix
yields central elements t_i, commuting shift automorphisms sigma_i (the
columns, as exponent vectors) and a symmetric sign matrix mu, which
together satisfy the twisted commutation relations

    X_i r = sigma_i(r) X_i,   Y_i X_i = t_i,   X_i Y_i = sigma_i(t_i),
    X_i Y_j = mu_ij Y_j X_i   (i != j)

inside the superalgebra, where words of column degree g are represented by
their images together with the formal degree vector g.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import lgamma, log
from operator import mul
from typing import Iterable, Sequence

from .algebra import Signature, SuperElement, _word_terms, int_tuple
from .basering import BaseRingElement, _expand_roots, _per_index, _roots, project_zero
from .errors import InvalidGammaError, ResourceCapError


@dataclass(frozen=True)
class GammaMatrix:
    """n x m integer matrix over a signature; rows carry the parities."""

    sig: Signature
    rows: tuple[tuple[int, ...], ...]
    # largest |entry|, set once here for require_valid's entry cap
    max_abs_entry: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(int_tuple(row, "matrix entries") for row in self.rows)
        if len(rows) != self.sig.n:
            raise ValueError(f"matrix has {len(rows)} rows, signature has {self.sig.n}")
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one column")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise ValueError("all rows must have the same length")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "max_abs_entry", max(abs(v) for row in rows for v in row))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows)

    @cached_property
    def column_degrees(self) -> tuple[int, ...]:
        """Total generator exponent of each column's word: sum of |entries|."""
        return tuple(sum(abs(row[c]) for row in self.rows) for c in range(self.m))

    @cached_property
    def clifford_view(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
        """(Clifford rows, plus, minus), built in one pass on first read: bit k
        of ``plus[c]`` (``minus[c]``) is set when column c is positive
        (negative; 1 and -1 on a valid matrix) on the k-th Clifford row, so a
        column touches a Clifford row iff its two masks are not both zero."""
        cliff = tuple(self.rows[r] for r in self.sig.clifford_indices)
        plus, minus = [0] * self.m, [0] * self.m
        for k, row in enumerate(cliff):
            for c, v in enumerate(row):
                if v > 0:
                    plus[c] |= 1 << k
                elif v < 0:
                    minus[c] |= 1 << k
        return cliff, tuple(plus), tuple(minus)

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate_gamma``'s report, computed on first read and kept."""
        return validate_gamma(self)

    def apply(self, g: Sequence[int]) -> tuple[int, ...]:
        """Image of g under the linear map Z^m -> Z^n."""
        if len(g) != self.m:
            raise ValueError(f"vector has length {len(g)}, expected {self.m}")
        return tuple(sum(map(mul, row, g)) for row in self.rows)


def identity_gamma(sig: Signature) -> GammaMatrix:
    n = sig.n
    return GammaMatrix(sig, tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ))


def gamma_from_dict(data: dict) -> GammaMatrix:
    """Build a matrix from the JSON schema {sign, parity, gamma}."""
    try:
        sign = data["sign"]
        parity = data["parity"]
        rows = data["gamma"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix object needs keys sign, parity, gamma: {exc}")
    return GammaMatrix(Signature(sign, tuple(parity)), tuple(tuple(r) for r in rows))


def gamma_to_dict(gm: GammaMatrix) -> dict:
    return {
        "sign": gm.sig.sign,
        "parity": list(gm.sig.parity),
        "gamma": [list(row) for row in gm.rows],
    }


@dataclass(frozen=True)
class ValidationReport:
    """Per-violation diagnostics; the matrix is valid iff all are empty.

    Indices are 0-based; ``to_dict`` renders them 1-based for reports.  The
    report is frozen, since ``GammaMatrix.validation`` keeps it as the
    matrix's verdict and ``InvalidGammaError.report`` hands it out.
    """

    zero_columns: tuple[int, ...] = ()
    clifford_violations: tuple[tuple[int, int], ...] = ()
    sign_violations: tuple[tuple[int, int], ...] = ()

    @property
    def valid(self) -> bool:
        return not (self.zero_columns or self.clifford_violations or self.sign_violations)

    def summary(self) -> str:
        if self.valid:
            return "valid"
        bits = []
        if self.zero_columns:
            bits.append(f"zero columns {[c + 1 for c in self.zero_columns]}")
        if self.clifford_violations:
            bits.append(
                "entries above 1 on Clifford rows at "
                + str([(r + 1, c + 1) for r, c in self.clifford_violations])
            )
        if self.sign_violations:
            bits.append(
                "column pairs with an uncancelled positive overlap "
                + str([(i + 1, j + 1) for i, j in self.sign_violations])
            )
        return "; ".join(bits)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "zero_columns": [c + 1 for c in self.zero_columns],
            "clifford_violations": [[r + 1, c + 1] for r, c in self.clifford_violations],
            "sign_violations": [[i + 1, j + 1] for i, j in self.sign_violations],
        }


def validate_gamma(gm: GammaMatrix) -> ValidationReport:
    """Check zero columns, the Clifford entry bound, and the sign condition.

    A column pair (i, j) is acceptable when some Clifford row has a strictly
    negative entry product (the crossed words collapse to zero on that row),
    or when every row has a non-positive entry product (the words commute up
    to a sign).  A pair that shares no nonzero row is acceptable, so only the
    pairs found through the per-row column lists are visited, each decided
    from bitmasks of its columns' positive and negative rows.  Each call
    builds a new report and applies no caps.
    """
    n, m = gm.n, gm.m
    cliff = [gm.sig.is_clifford(r) for r in range(n)]
    cliff_rows = sum(1 << r for r in range(n) if cliff[r])
    pos, neg = [0] * m, [0] * m  # per column, bitmasks of its positive and negative rows
    row_columns = []  # per row, its nonzero columns in ascending order
    for r, row in enumerate(gm.rows):
        columns = []
        for c, v in enumerate(row):
            if v:
                columns.append(c)
                if v > 0:
                    pos[c] |= 1 << r
                else:
                    neg[c] |= 1 << r
        row_columns.append(columns)
    zero_columns = [c for c in range(m) if not (pos[c] or neg[c])]
    clifford_violations = [
        (r, c) for r in range(n) if cliff[r] for c in range(m) if abs(gm.rows[r][c]) > 1
    ]
    sign_violations = []
    for i in range(m):
        pi, ni = pos[i], neg[i]
        partners = set()
        for r in range(n):
            if gm.rows[r][i]:
                columns = row_columns[r]
                partners.update(columns[bisect_right(columns, i):])
        for j in sorted(partners):
            if (pi & pos[j] or ni & neg[j]) and not (pi & neg[j] | ni & pos[j]) & cliff_rows:
                sign_violations.append((i, j))
    return ValidationReport(tuple(zero_columns), tuple(clifford_violations), tuple(sign_violations))


# Largest |entry| a derived computation accepts: t_i holds a degree-|k|
# factor per row, and from about k = 1500 its coefficients pass Python's
# int-to-str digit limit, so they no longer render.
MAX_ENTRY = 1000


def require_valid(gm: GammaMatrix) -> None:
    """Raise InvalidGammaError for an invalid matrix, ResourceCapError for an
    entry beyond MAX_ENTRY, on every call; the verdict is read from
    ``gm.validation``, so each matrix object is validated at most once."""
    if not gm.validation.valid:
        raise InvalidGammaError(gm.validation)
    if gm.max_abs_entry > MAX_ENTRY:
        raise ResourceCapError(f"|entry| = {gm.max_abs_entry} exceeds the entry cap {MAX_ENTRY}")


# Most terms one t_i may hold: the column (100, -100) gives
# t_i = d1^100 x1^100 x2^100 d2^100, 10,100 terms and 2.2 MB of text.  The
# term count is known before t_i is expanded.
MAX_T_TERMS = 10_000

# Most digits one t_i may hold, estimated from the entries: the term count
# times the sum over rows of 1 + log10 of the product of 1 + |r| over the
# row's roots r, which is |k|! for an entry k > 0 and (|k| + 1)! for k < 0.
# That product bounds every coefficient of the row's factor, so the estimate
# bounds the digits of t_i.  [[1000], [-9]], at the term cap with
# coefficients of about 2,570 digits, estimates 25.8 million and would print
# 15.5 MB; [[300], [-30]] estimates 6.0 million.
MAX_T_DIGITS = 10_000_000


def derive_t(gm: GammaMatrix, col: int) -> BaseRingElement:
    """Central element t_i = product over rows of the paired-word factor.

    Row r with entry k contributes the factor with roots ``_roots(k)``; the
    factors live in distinct variables, so t_i is their outer product, one
    ``_per_index`` pass per row from the column as its one key, each a
    direct pass, since no two terms ever share a key.  A t_i of more than
    MAX_T_TERMS terms, or of more than MAX_T_DIGITS estimated digits, raises
    ResourceCapError before any factor is expanded.
    """
    require_valid(gm)
    sig = gm.sig
    column = gm.column(col)
    terms, digits = _t_size(column)
    if terms > MAX_T_TERMS:
        raise ResourceCapError(f"t_{col + 1} has {terms} terms, over the term cap {MAX_T_TERMS}")
    if digits > MAX_T_DIGITS:
        raise ResourceCapError(
            f"t_{col + 1} has about {round(digits)} digits, over the digit cap {MAX_T_DIGITS}"
        )
    return BaseRingElement._raw(sig, _per_index(
        sig, [(column, 1)], lambda r, k: _expand_roots(sig.is_clifford(r), _roots(k))))


def _t_size(column: Sequence[int]) -> tuple[int, float]:
    """Term count and digit estimate (see MAX_T_DIGITS) of a column's t_i, in
    O(rows).  Entry k puts |k| roots on its row, with no two of opposite sign,
    so its factor has |k| + 1 nonzero coefficients, less the constant term
    when 0 is a root (k > 0); the product of 1 + |r| over its roots is
    Gamma(|k| + 1 + (k < 0))."""
    terms, logs = 1, 0.0
    for k in column:
        terms *= abs(k) + (k <= 0)
        logs += lgamma(abs(k) + 1 + (k < 0))
    return terms, terms * (len(column) + logs / log(10))


def derive_mu(gm: GammaMatrix):
    """Sign matrix mu plus the column parities it is built from.

    p(i) is the column sum twisted by the row parities, p'(i) the plain sum,
    both mod 2.  mu_ij = base^(p'(i)p'(j)) * (-1)^(p(i)p(j)) with base = -1
    for the plus variant and +1 for minus.  The matrix is symmetric; only
    off-diagonal entries enter the commutation relations.
    """
    require_valid(gm)
    cols = [gm.column(c) for c in range(gm.m)]
    pparity = tuple(sum(v * p for v, p in zip(col, gm.sig.parity)) & 1 for col in cols)
    pprime = tuple(sum(col) & 1 for col in cols)
    base = -1 if gm.sig.sign == "plus" else 1
    mu = tuple(
        tuple(
            (base if pprime[i] and pprime[j] else 1)
            * (-1 if pparity[i] and pparity[j] else 1)
            for j in range(gm.m)
        )
        for i in range(gm.m)
    )
    return mu, pparity, pprime


@dataclass(frozen=True)
class TgwDatum:
    """Derived data bundle for a validated matrix.

    ``t`` is expanded from ``gm`` on first read: it has a term per choice of
    one coefficient from every row factor, and consistency_check never reads it.
    """

    gm: GammaMatrix
    sigma: tuple[tuple[int, ...], ...]
    mu: tuple[tuple[int, ...], ...]
    pparity: tuple[int, ...]
    pprime: tuple[int, ...]

    @cached_property
    def t(self) -> tuple[BaseRingElement, ...]:
        return tuple(derive_t(self.gm, c) for c in range(self.gm.m))


def derive_datum(gm: GammaMatrix) -> TgwDatum:
    mu, pparity, pprime = derive_mu(gm)
    return TgwDatum(
        gm=gm,
        sigma=tuple(gm.column(c) for c in range(gm.m)),
        mu=mu,
        pparity=pparity,
        pprime=pprime,
    )


CONSISTENCY_NOTE = (
    "diagnostic only: when some t_i is a zero divisor these identities are "
    "not known to decide consistency, so failures are reported, not judged"
)


@dataclass
class ConsistencyInstance:
    kind: str  # "pair" or "triple"
    indices: tuple[int, ...]
    passed: bool


@dataclass
class ConsistencyReport:
    instances: list[ConsistencyInstance]
    note: str = CONSISTENCY_NOTE

    @property
    def all_pass(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def to_dict(self) -> dict:
        return {
            "diagnostic": self.note,
            "all_pass": self.all_pass,
            "pairs": [
                {"i": i + 1, "j": j + 1, "pass": inst.passed}
                for inst in self.instances
                if inst.kind == "pair"
                for i, j in [inst.indices]
            ],
            "triples": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "pass": inst.passed}
                for inst in self.instances
                if inst.kind == "triple"
                for i, j, k in [inst.indices]
            ],
        }


# Most pair and triple instances one check may run: m(m-1)/2 + m(m-1)(m-2)/2
# at m = 64, the widest zeta matrix a Lie preset builds.  The 128-column
# all-Clifford matrix has 1,032,256 instances and prints 24 MB.
MAX_CONSISTENCY_INSTANCES = 127_008


def _require_instance_count(m: int) -> None:
    """Raise ResourceCapError when m columns give more than
    MAX_CONSISTENCY_INSTANCES pair and triple instances."""
    pairs = m * (m - 1) // 2
    count = pairs + pairs * (m - 2)  # each pair {i, k} once more per j outside it
    if count > MAX_CONSISTENCY_INSTANCES:
        raise ResourceCapError(
            f"{m} columns give {count} consistency instances, over the cap "
            f"{MAX_CONSISTENCY_INSTANCES}"
        )


def matrix_consistency(gm: GammaMatrix) -> ConsistencyReport:
    """``consistency_check(derive_datum(gm))``, with the instances counted
    from ``gm.m`` first: a matrix over MAX_CONSISTENCY_INSTANCES raises
    ResourceCapError before its datum is derived or it is validated."""
    _require_instance_count(gm.m)
    return consistency_check(derive_datum(gm))


def consistency_check(datum: TgwDatum) -> ConsistencyReport:
    """Evaluate the pair and triple identities exactly in the base ring.

    Pairs i < j:   sigma_i sigma_j(t_i t_j) = mu_ij mu_ji sigma_i(t_i) sigma_j(t_j)
    Triples:       sigma_i sigma_k(t_j) t_j = sigma_i(t_j) sigma_k(t_j),
                   for j and an unordered pair {i, k} disjoint from j.

    Both families are symmetric in the swapped indices, so unordered
    iteration covers all instances.

    Each t_i is a pure tensor: one monic factor per row, with the integer
    roots ``_roots`` of the entry, and each sigma shifts every row on its
    own, so both sides of every identity are pure tensors c * (x)_r f_r(u_r)
    over the rows the columns involved touch, kept as their roots.  On a
    Weyl row a shift by s adds s to every root and a product merges them.
    On a Clifford row (u^2 = u) an odd shift maps the root r to 1 - r, and
    a product takes the union, zero once it holds both 0 and 1.  An
    instance costs O(n) root operations over the rows its columns touch,
    with no polynomial arithmetic, and there are O(m^3) instances.  More
    than MAX_CONSISTENCY_INSTANCES of them raise ResourceCapError before any
    is checked.

    Only the instances whose columns share a row are computed.  When
    columns i and j share none, sigma_j fixes t_i and sigma_i fixes t_j, so
    both sides of the pair are the nonzero t_i t_j and the pair holds iff
    mu_ij mu_ji = 1.  A triple where i or k shares no row with j holds: say
    sigma_i fixes t_j, then both sides are sigma_k(t_j) t_j.
    """
    gm, sigma, mu = datum.gm, datum.sigma, datum.mu
    m = gm.m
    _require_instance_count(m)
    cliff = [gm.sig.is_clifford(r) for r in range(gm.n)]
    t = [{r: tuple(_roots(k)) for r, k in enumerate(gm.column(c)) if k} for c in range(m)]

    def shifted(c, s):
        return {r: _shift_factor(f, s[r], cliff[r]) for r, f in t[c].items()}

    def times(a, b):
        out = dict(a)
        for r, g in b.items():
            out[r] = _times_factor(out[r], g, cliff[r]) if r in out else g
        return out

    rows_of = [sum(1 << r for r in f) for f in t]  # per column, a bitmask of its rows

    instances: list[ConsistencyInstance] = []
    for i in range(m):
        for j in range(i + 1, m):
            scalar = mu[i][j] * mu[j][i]
            if rows_of[i] & rows_of[j]:
                si, sj = sigma[i], sigma[j]
                both = tuple(a + b for a, b in zip(si, sj))
                lhs = times(shifted(i, both), shifted(j, both))
                rhs = times(shifted(i, si), shifted(j, sj))
                holds = _same_tensor(lhs, rhs, scalar)
            else:
                # sigma_j fixes t_i and sigma_i fixes t_j: both sides are t_i t_j
                holds = scalar == 1
            instances.append(ConsistencyInstance("pair", (i, j), holds))
    for j in range(m):
        meets = [bool(rows & rows_of[j]) for rows in rows_of]
        for i in range(m):
            if i == j:
                continue
            for k in range(i + 1, m):
                if k == j:
                    continue
                holds = True  # sigma_i or sigma_k fixes t_j, and the factors commute
                if meets[i] and meets[k]:
                    si, sk = sigma[i], sigma[k]
                    both = tuple(a + b for a, b in zip(si, sk))
                    lhs = times(shifted(j, both), t[j])
                    rhs = times(shifted(j, si), shifted(j, sk))
                    holds = _same_tensor(lhs, rhs)
                instances.append(ConsistencyInstance("triple", (i, j, k), holds))
    return ConsistencyReport(instances)


def _shift_factor(f: tuple[int, ...], s: int, clifford: bool) -> tuple[int, ...]:
    """Roots of f(u - s), or of f(1 - u) for odd s on a Clifford row."""
    if clifford:
        return tuple(1 - r for r in f) if s & 1 else f
    return tuple(r + s for r in f) if s else f


def _times_factor(f: tuple[int, ...], g: tuple[int, ...], clifford: bool):
    """Sorted roots of the product of two row factors, or None for zero: on
    a Clifford row, where each factor has one root, when the roots differ."""
    if clifford:
        return f if f == g else None
    return tuple(sorted(f + g))


def _same_tensor(lhs: dict, rhs: dict, scalar: int = 1) -> bool:
    """Whether the pure tensor lhs equals scalar * rhs, each given by the
    sorted roots of its monic row factors on the same rows (None for a zero
    factor).  A tensor is zero iff one of its factors is, and two nonzero
    ones agree iff the scalar is 1 and their roots agree row by row."""
    lhs_zero = None in lhs.values()
    rhs_zero = not scalar or None in rhs.values()
    if lhs_zero or rhs_zero:
        return lhs_zero and rhs_zero
    return scalar == 1 and lhs == rhs


def phi_generator(gm: GammaMatrix, col: int, kind: str = "X") -> SuperElement:
    """Image of the generator X_i (column word) or Y_i (its involution)."""
    require_valid(gm)
    _check_letter(gm, col, kind)
    pairs = tuple((k, 0) if k >= 0 else (0, -k) for k in gm.column(col))
    el = SuperElement._raw(gm.sig, {pairs: 1})  # valid: require_valid passed the matrix
    return el if kind == "X" else el.star()


def _check_letter(gm: GammaMatrix, col: int, kind: str) -> None:
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', got {kind!r}")
    if not 0 <= col < gm.m:
        raise IndexError(f"column {col} out of range for m={gm.m}")


@dataclass(frozen=True)
class GradedElement:
    """A superalgebra element tagged with its formal column degree."""

    degree: tuple[int, ...]
    image: SuperElement

    @property
    def is_zero(self) -> bool:
        return self.image.is_zero

    def star(self) -> "GradedElement":
        return GradedElement(tuple(-d for d in self.degree), self.image.star())


# Largest total generator exponent of a word eval_word multiplies out.  A
# word of total exponent 2k can reach d^k x^k, whose largest coefficient has
# 2,593 digits at k = 1000 (Y1,X1 on [[1000]]), 3,359 at k = 1250 and passes
# Python's 4,300-digit int-to-str limit near k = 1550.
MAX_WORD_DEGREE = 2500


def eval_word(gm: GammaMatrix, word: Iterable[tuple[str, int]]) -> GradedElement:
    """Ordered product of generator images for a word over {X_i, Y_i}.

    Each letter is written as a word in the x and d generators: X_i is
    x_r^k (k > 0) or d_r^|k| (k < 0) for the entries k of column i, rows
    ascending, and Y_i is that word reversed with x and d swapped.  The
    concatenation is normalized once, as ``word_element`` does.

    A zero image with a nonzero formal degree means the word vanishes in the
    graded algebra the matrix defines.  A word whose letters carry more than
    MAX_WORD_DEGREE generator exponents in all (the sum of |entries| of each
    letter's column) raises ResourceCapError before any work is done, and
    the normalization applies the word caps of ``algebra``.
    """
    require_valid(gm)
    word = list(word)
    degrees, m = gm.column_degrees, gm.m
    # a letter out of range is left to _check_letter's IndexError below
    total = sum(degrees[col] for _, col in word if 0 <= col < m)
    if total > MAX_WORD_DEGREE:
        raise ResourceCapError(
            f"word degree {total} exceeds the word-degree cap {MAX_WORD_DEGREE}"
        )
    degree = [0] * m
    powers: list[tuple[int, int]] = []
    for kind, col in word:
        _check_letter(gm, col, kind)
        # letter code 2r for x_r and 2r + 1 for d_r, as in word_element
        x_word = [(2 * r + (k < 0), abs(k)) for r, k in enumerate(gm.column(col)) if k]
        if kind == "X":
            powers += x_word
            degree[col] += 1
        else:
            powers += [(code ^ 1, k) for code, k in reversed(x_word)]
            degree[col] -= 1
    return GradedElement(tuple(degree), SuperElement._raw(gm.sig, _word_terms(gm.sig, powers)))


def gradation_pair(a: GradedElement, b: GradedElement) -> BaseRingElement:
    """Degree-zero component of the product of two graded elements."""
    return project_zero(a.image * b.image)
