"""Shared test utilities.

The action oracle here is deliberately independent of the package's
product engine (it imports nothing from its internals): basis vectors of a polynomial-times-exterior space are
acted on letter by letter, with Koszul signs tracked directly.  Clifford
directions contribute exterior factors (kept sorted, insertion and deletion
signs counted), the remaining directions contribute polynomial factors, and
a polynomial-direction letter crossing the exterior block picks up the
mixed swap sign of the variant (+1 for minus, -1 for plus).

``expanded_consistency`` is the second oracle: it decides the consistency
identities by expanding both sides in all n base-ring variables through
``tau_apply`` and ``BaseRingElement`` products, the way ``consistency_check``
did before it went row by row.

``closed_form_consistency`` decides the same identities for derived data
from the signs and parities of the entries alone, with no ring arithmetic.

``expanded_relations`` is the third: it builds every Chevalley relation
residual from scaled ``SuperElement`` images and ``super_bracket``, the way
``check_relations`` did before it scaled brackets cached per preset.  It
keeps its own list of relations, each named by a kind string and decoded
case by case, so it does not read the library's relation table.

``product_eval_word`` is the fourth: it multiplies a word's generator
images letter by letter with ``SuperElement`` products, the way
``eval_word`` did before it normalized the whole word at once.

``exhaustive_witness`` is the fifth: it searches the orderings of a degree
vector's letters with no first-touch rule, so it enters and memoizes every
subtree that starts a Clifford row with the wrong sign, the way
``is_in_support`` did before.  Its witness is still the least admissible
column sequence, so the two must agree.

``substituted_iota`` is the sixth: it embeds a base-ring element by
normalizing each term's word (d_1 x_1)^e1 ... (d_n x_n)^en through
``word_element``, the way ``iota_embed`` did before it applied Stirling
rows one index at a time.  ``fock_values`` gives the eigenvalues of the
u_i on a basis vector of the action above, so a degree-zero element can be
checked against a base-ring polynomial without either bridge.

``dense_validation`` is the seventh: it decides the sign condition of
``validate_gamma`` on every column pair in turn, from the entry products of
all rows, the way ``validate_gamma`` did before it visited only the pairs
that share a nonzero row.

``product_tau_apply`` is the eighth: it applies a shift automorphism term by
term, multiplying the closed-form images u_i - k (or 1 - u_i) as
``BaseRingElement`` powers kept per (index, exponent), the way ``tau_apply``
did before it applied binomial rows one index at a time.

``product_t`` is the ninth: it builds t_i as the ``BaseRingElement`` product
of its row factors, each factor the product of its linear factors u_r - root
(or 1 - u_r on a Clifford row), with no coefficient rows.

``list_injectivity_report`` is the tenth: it builds the injectivity report
from the members of ``exhaustive_scan``, keeping every image and projected
image as a list and reading each flag off whole lists, the way
``injectivity_report`` did before it kept one set of images.

``run_fold_word_terms`` is the eleventh: it cuts a word of letter codes into
its maximal runs already in normal order and folds them left to right into
one multi-index accumulator through ``_mono_product``, the way
``_word_terms`` did before it normalized one index at a time.
``eval_word_codes`` spells a word over {X_i, Y_i} in those letter codes.

``dfs_arrange`` is the twelfth: it takes the same arguments as
``superweyl.support._arrange`` and places one letter per step, with the
first-touch rule and the shared failed-state memo but no repeated periods,
the way ``_arrange`` did before it repeated a recurring descent in one step.
Its witness, the states it adds to the memo and the counts it leaves must
all be the same.
"""

import itertools

from fractions import Fraction
from math import log10

from superweyl import (
    BaseRingElement,
    GammaMatrix,
    Signature,
    SuperElement,
    gamma_rank_kernel,
    phi_generator,
    super_bracket,
    tau_apply,
    validate_gamma,
    word_element,
    zeta_matrix,
)
from superweyl.algebra import _mono_product, accumulate_terms
from superweyl.basering import _roots
from superweyl.datum import ValidationReport
from superweyl.support import InjectivityReport

# A basis vector is (exterior subset frozenset, polynomial exponent tuple).
# A letter is coded 2*index + kind, with kind 0 for x and 1 for d.


def _mono_letters(mono):
    out = []
    for i, (a, b) in enumerate(mono):
        out.extend([2 * i] * a)
        out.extend([2 * i + 1] * b)
    return out


def basis_vec(exts=(), poly=None, n=1):
    return (frozenset(exts), tuple(poly) if poly is not None else (0,) * n)


def apply_letter(sig, code, vec):
    """Apply one generator letter; returns (sign_or_coeff, vec) or None."""
    i, kind = code >> 1, code & 1
    exts, poly = vec
    if sig.is_clifford(i):
        sign = -1 if sum(1 for j in exts if j < i) % 2 else 1
        if kind == 0:
            if i in exts:
                return None
            return sign, (exts | {i}, poly)
        if i not in exts:
            return None
        return sign, (exts - {i}, poly)
    mixed = 1 if sig.sign == "minus" else -1
    cross = mixed ** len(exts)
    if kind == 0:
        p = list(poly)
        p[i] += 1
        return cross, (exts, tuple(p))
    if poly[i] == 0:
        return None
    p = list(poly)
    p[i] -= 1
    return cross * poly[i], (exts, tuple(p))


def act(sig, elem, states):
    """Apply an element to a dict {vec: coeff}; returns the same shape."""
    if isinstance(states, tuple):
        states = {states: Fraction(1)}
    out = {}
    for mono, coeff in elem.terms.items():
        letters = _mono_letters(mono)
        cur = dict(states)
        for code in reversed(letters):
            nxt = {}
            for vec, c in cur.items():
                hit = apply_letter(sig, code, vec)
                if hit is None:
                    continue
                s, vec2 = hit
                c2 = nxt.get(vec2, Fraction(0)) + c * s
                if c2:
                    nxt[vec2] = c2
                else:
                    nxt.pop(vec2, None)
            cur = nxt
        for vec, c in cur.items():
            c2 = out.get(vec, Fraction(0)) + coeff * c
            if c2:
                out[vec] = c2
            else:
                out.pop(vec, None)
    return out


def fock_values(sig, vec):
    """Eigenvalue of each u_i = d_i x_i on a basis vector: poly[i] + 1 on a
    polynomial index, 1 on an empty and 0 on an occupied exterior index."""
    exts, poly = vec
    return tuple(
        (0 if i in exts else 1) if sig.is_clifford(i) else poly[i] + 1 for i in range(sig.n)
    )


def substituted_iota(r):
    """iota_embed(r) as the sum over terms of the normalized words
    (d_1 x_1)^e1 ... (d_n x_n)^en."""
    sig = r.sig
    out = SuperElement.zero(sig)
    for exps, coeff in r.terms.items():
        word = [(kind, i) for i, e in enumerate(exps) for _ in range(e) for kind in "dx"]
        out = out + coeff * word_element(sig, word)
    return out


def product_tau_apply(exponents, r):
    """tau_1^e1 ... tau_n^en applied to r through ring products: each term's
    shifted variables are replaced by powers of their images, cached per
    (index, exponent)."""
    sig = r.sig
    one = BaseRingElement.one(sig)
    images = [None] * sig.n
    for i, k in enumerate(exponents):
        u = BaseRingElement.u(sig, i)
        if k and sig.is_clifford(i):
            images[i] = one - u if k % 2 else u
        elif k:
            images[i] = u - BaseRingElement.const(sig, k)
    powers = {}
    out = BaseRingElement.zero(sig)
    for exps, coeff in r.terms.items():
        untouched = tuple(0 if images[i] and d else d for i, d in enumerate(exps))
        term = BaseRingElement(sig, {untouched: coeff})
        for i, d in enumerate(exps):
            if d and images[i]:
                if (i, d) not in powers:
                    powers[i, d] = images[i] ** d
                term = term * powers[i, d]
        out = out + term
    return out


def product_t(gm, col):
    """t_col as a product of ring elements: on row r with entry k, the
    factors u_r (u_r + 1) ... (u_r + k - 1) for k > 0 and (u_r - 1) ...
    (u_r - |k|) for k < 0, and 1 - u_r for k = -1 on a Clifford row."""
    sig = gm.sig
    one = BaseRingElement.one(sig)
    t = one
    for r, k in enumerate(gm.column(col)):
        u = BaseRingElement.u(sig, r)
        factor = one
        if sig.is_clifford(r) and k < 0:
            factor = one - u
        else:
            for s in range(k) if k > 0 else range(-1, k - 1, -1):
                factor = factor * (u + BaseRingElement.const(sig, s))
        t = t * factor
    return t


def per_root_t_size(column):
    """Term count and digit estimate of a column's t_i, root by root, as
    ``derive_t`` once computed them: a factor per entry k with len(_roots(k))
    + (k <= 0) nonzero coefficients, and 1 + log10 of the product of 1 + |r|
    over its roots, one log10 per root."""
    terms = 1
    for k in column:
        terms *= len(_roots(k)) + (k <= 0)
    return terms, terms * sum(1 + sum(log10(1 + abs(r)) for r in _roots(k)) for k in column)


def sample_basis(sig, rng, max_poly=2):
    exts = frozenset(i for i in sig.clifford_indices if rng.random() < 0.5)
    poly = tuple(
        0 if sig.is_clifford(i) else rng.randint(0, max_poly) for i in range(sig.n)
    )
    return (exts, poly)


def random_monomial(sig, rng, max_exp=2, budget=4):
    pairs = []
    left = budget
    for i in range(sig.n):
        cap = 1 if sig.is_clifford(i) else max_exp
        a = rng.randint(0, min(cap, left))
        left -= a
        b = rng.randint(0, min(cap, left))
        left -= b
        pairs.append((a, b))
    return tuple(pairs)


def random_element(sig, rng, max_terms=3, max_exp=2, budget=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = random_monomial(sig, rng, max_exp, budget)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return SuperElement(sig, terms)


def random_homogeneous(sig, rng, max_terms=3, max_exp=2):
    """Nonzero element whose monomials all share one degree vector."""
    degree = tuple(
        rng.randint(-1, 1) if sig.is_clifford(i) else rng.randint(-max_exp, max_exp)
        for i in range(sig.n)
    )
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        pairs = []
        for i, d in enumerate(degree):
            cap = 1 if sig.is_clifford(i) else max_exp
            b = rng.randint(max(0, -d), max(0, min(cap - d, cap)))
            a = d + b
            if not 0 <= a <= cap or not 0 <= b <= cap:
                a, b = (d, 0) if d >= 0 else (0, -d)
            pairs.append((a, b))
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        mono = tuple(pairs)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    el = SuperElement(sig, terms)
    if el.is_zero:
        mono = tuple((d, 0) if d >= 0 else (0, -d) for d in degree)
        el = SuperElement(sig, {mono: Fraction(1)})
    return el


def random_signature(rng, max_n=3):
    n = rng.randint(1, max_n)
    return Signature(
        rng.choice(["minus", "plus"]), tuple(rng.randint(0, 1) for _ in range(n))
    )


def random_word(sig, rng, max_len=8):
    length = rng.randint(0, max_len)
    return [
        (rng.choice(["x", "d"]), rng.randrange(sig.n)) for _ in range(length)
    ]


def random_valid_gamma(rng, max_n=3, max_m=3, sign=None, parity=None):
    """Rejection-sample a valid matrix; sparse columns keep acceptance high."""
    while True:
        n = len(parity) if parity is not None else rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        sig = Signature(
            sign or rng.choice(["minus", "plus"]),
            tuple(parity) if parity is not None else tuple(
                rng.randint(0, 1) for _ in range(n)
            ),
        )
        rows = [[0] * m for _ in range(n)]
        for c in range(m):
            while True:
                col = [
                    rng.choice((-1, 0, 0, 1)) if sig.is_clifford(r)
                    else rng.choice((-2, -1, 0, 0, 1, 2))
                    for r in range(n)
                ]
                if any(col):
                    break
            for r in range(n):
                rows[r][c] = col[r]
        gm = GammaMatrix(sig, tuple(tuple(r) for r in rows))
        if validate_gamma(gm).valid:
            return gm


def dense_validation(gm):
    """``validate_gamma``'s report, from every column pair in turn."""
    n, m = gm.n, gm.m
    cliff = [gm.sig.is_clifford(r) for r in range(n)]
    zero_columns = [c for c in range(m) if all(gm.rows[r][c] == 0 for r in range(n))]
    clifford_violations = [
        (r, c) for r in range(n) if cliff[r] for c in range(m) if abs(gm.rows[r][c]) > 1
    ]
    sign_violations = []
    for i in range(m):
        for j in range(i + 1, m):
            prods = [gm.rows[r][i] * gm.rows[r][j] for r in range(n)]
            if any(p < 0 and cliff[r] for r, p in enumerate(prods)):
                continue
            if any(p > 0 for p in prods):
                sign_violations.append((i, j))
    return ValidationReport(tuple(zero_columns), tuple(clifford_violations), tuple(sign_violations))


def random_degree_vector(rng, m, max_total=6):
    total = rng.randint(0, max_total)
    g = [0] * m
    for _ in range(total):
        g[rng.randrange(m)] += rng.choice((-1, 1))
    return tuple(g)


def bidiagonal_matrix(sig, m, last=None):
    """Columns e_c - e_(c+1), plus an optional single entry closing column."""
    n = sig.n
    rows = [[0] * m for _ in range(n)]
    for c in range(min(m, n - 1)):
        rows[c][c] = 1
        rows[c + 1][c] = -1
    if last is not None:
        rows[n - 1][m - 1] = last
    return GammaMatrix(sig, tuple(tuple(r) for r in rows))


def inj_example_matrices(p=1, q=2):
    """The three injectivity example shapes over the plus variant."""
    sig = Signature("plus", (0,) * p + (1,) * q)
    n = p + q
    return {
        "alpha": bidiagonal_matrix(sig, n - 1),
        "beta": bidiagonal_matrix(sig, n, last=1),
        "gamma": bidiagonal_matrix(sig, n, last=2),
    }


def zeta_matrices(max_rank):
    """{(family, p, q): zeta matrix} for every preset of rank p + q <= max_rank."""
    return {
        (family, p, q): zeta_matrix(family, p, q)
        for family in ("gl", "osp_even", "osp_odd")
        for p in range(max_rank + 1)
        for q in range(max_rank + 1 - p)
        if p + q >= (2 if family == "gl" else 1) and (q >= 1 or family != "osp_even")
    }


def expanded_consistency(datum):
    """(kind, indices, passed) per instance, in ``consistency_check`` order."""
    m = datum.gm.m
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            si, sj = datum.sigma[i], datum.sigma[j]
            both = tuple(a + b for a, b in zip(si, sj))
            lhs = tau_apply(both, datum.t[i] * datum.t[j])
            rhs = (datum.mu[i][j] * datum.mu[j][i]) * (
                tau_apply(si, datum.t[i]) * tau_apply(sj, datum.t[j])
            )
            out.append(("pair", (i, j), lhs == rhs))
    for j in range(m):
        for i in range(m):
            if i == j:
                continue
            for k in range(i + 1, m):
                if k == j:
                    continue
                si, sk = datum.sigma[i], datum.sigma[k]
                both = tuple(a + b for a, b in zip(si, sk))
                lhs = tau_apply(both, datum.t[j]) * datum.t[j]
                rhs = tau_apply(si, datum.t[j]) * tau_apply(sk, datum.t[j])
                out.append(("triple", (i, j, k), lhs == rhs))
    return out


def closed_form_consistency(gm):
    """(kind, indices, passed) per instance for ``derive_datum(gm)``, in
    ``consistency_check`` order, read off the entries.

    Every pair identity holds.  A triple (i, j, k) holds iff some Clifford
    row r with g_rj != 0 has g_ri + g_rk odd (both sides vanish there), or
    every row r with g_rj != 0 has g_ri * g_rk = 0.
    """
    m = gm.m
    out = [("pair", (i, j), True) for i in range(m) for j in range(i + 1, m)]
    for j in range(m):
        rows = [row for row in gm.rows if row[j]]
        clifford = [row for r, row in enumerate(gm.rows) if row[j] and gm.sig.is_clifford(r)]
        for i in range(m):
            if i == j:
                continue
            for k in range(i + 1, m):
                if k == j:
                    continue
                vanish = any((row[i] + row[k]) % 2 for row in clifford)
                commute = all(row[i] * row[k] == 0 for row in rows)
                out.append(("triple", (i, j, k), vanish or commute))
    return out


def widen_weyl_entries(gm, rng, top=1000):
    """gm with each nonzero entry on a Weyl row given a random magnitude in
    1..top and its sign kept.  Validity depends only on the signs of the
    Weyl entries, so a valid matrix stays valid."""
    rows = tuple(
        row if gm.sig.is_clifford(r)
        else tuple(v and (1 if v > 0 else -1) * rng.randint(1, top) for v in row)
        for r, row in enumerate(gm.rows)
    )
    return GammaMatrix(gm.sig, rows)


def _oracle_relations(family, n, p):
    """(label, kind, i, j) per relation, in ``check_relations`` order."""
    rels = []
    ngl = n - 1
    for i in range(n):
        for j in range(i + 1, n):
            rels.append((f"[h{i + 1},h{j + 1}]", "hh", i, j))
    for i in range(n):
        for j in range(ngl):
            rels.append((f"[h{i + 1},e{j + 1}]", "he", i, j))
            rels.append((f"[h{i + 1},f{j + 1}]", "hf", i, j))
    for i in range(ngl):
        for j in range(ngl):
            rels.append((f"[e{i + 1},f{j + 1}]", "ef", i, j))
    if family == "osp_odd":
        last = n - 1
        for i in range(n):
            rels.append((f"[h{i + 1},e{n}]", "hen", i, last))
            rels.append((f"[h{i + 1},f{n}]", "hfn", i, last))
        rels.append((f"[e{n},f{n}]", "enfn", last, last))
        for i in range(ngl):
            rels.append((f"[e{i + 1},f{n}]", "efn", i, last))
            rels.append((f"[e{n},f{i + 1}]", "enf", last, i))
    return rels


def _relation_residual(preset, kind, i, j, E, F, H):
    pe = preset.e_parity
    if kind == "hh":
        return super_bracket(H[i], H[j], 0, 0)
    if kind == "he":
        coeff = (1 if i == j else 0) - (1 if i == j + 1 else 0)
        return super_bracket(H[i], E[j], 0, pe[j]) - coeff * E[j]
    if kind == "hf":
        coeff = -(1 if i == j else 0) + (1 if i == j + 1 else 0)
        return super_bracket(H[i], F[j], 0, pe[j]) - coeff * F[j]
    if kind == "ef":
        res = super_bracket(E[i], F[j], pe[i], pe[j])
        if i == j:
            sign = -1 if i == preset.p - 1 else 1
            res = res - (H[i] - sign * H[i + 1])
        return res
    if kind == "hen":
        coeff = 1 if i == j else 0
        return super_bracket(H[i], E[j], 0, pe[j]) - coeff * E[j]
    if kind == "hfn":
        coeff = -1 if i == j else 0
        return super_bracket(H[i], F[j], 0, pe[j]) - coeff * F[j]
    if kind == "enfn":
        return super_bracket(E[i], F[j], pe[i], pe[j]) - H[i]
    if kind in ("efn", "enf"):
        return super_bracket(E[i], F[j], pe[i], pe[j])
    raise ValueError(f"unknown relation kind {kind!r}")


def expanded_relations(preset, cal):
    """(label, passed, residual) per relation, in ``check_relations`` order."""
    E = [c * img for c, img in zip(cal.e_scale, preset.e_images)]
    F = [c * img for c, img in zip(cal.f_scale, preset.f_images)]
    one = SuperElement.one(preset.sig)
    H = [img + s * one for s, img in zip(cal.h_shift, preset.h_images)]
    out = []
    for label, kind, i, j in _oracle_relations(preset.family, preset.n, preset.p):
        res = _relation_residual(preset, kind, i, j, E, F, H)
        out.append((label, res.is_zero, res))
    return out


def product_eval_word(gm, word):
    """(degree, image) of a word over {X_i, Y_i}, one generator image at a time."""
    degree = [0] * gm.m
    image = SuperElement.one(gm.sig)
    for kind, col in word:
        image = image * phi_generator(gm, col, kind)
        degree[col] += 1 if kind == "X" else -1
    return tuple(degree), image


def run_fold_word_terms(sig, codes):
    """Normal form of a word of letter codes (2*index, + 1 for d), as
    monomial -> coefficient, by the product of its normal-ordered runs."""
    n = sig.n
    runs = []
    prev = 2 * n
    for code in codes:
        if code < prev:
            pairs = [[0, 0] for _ in range(n)]
            runs.append(pairs)
        pairs[code >> 1][code & 1] += 1
        prev = code
    if any(max(pairs[i]) > 1 for pairs in runs for i in sig.clifford_indices):
        return {}
    monos = [tuple(map(tuple, pairs)) for pairs in runs] or [((0, 0),) * n]
    acc = {monos[0]: 1}
    for run in monos[1:]:
        acc = accumulate_terms({}, (
            (mono, c * s) for m, c in acc.items() for mono, s in _mono_product(sig, m, run)
        ))
    return acc


def eval_word_codes(gm, word):
    """Letter codes of a word over {X_i, Y_i}: X_i spells its column, rows
    ascending, as x_r^k (k > 0) or d_r^|k|; Y_i is that reversed, x and d
    swapped."""
    codes = []
    for kind, col in word:
        x_word = [2 * r + (k < 0) for r, k in enumerate(gm.column(col)) for _ in range(abs(k))]
        codes += x_word if kind == "X" else [code ^ 1 for code in reversed(x_word)]
    return codes


def _letters(gm, g):
    """(column, sign, plus, minus) per nonzero column of g: bit k of plus
    (minus) is set when the signed column is 1 (-1) on the k-th Clifford row."""
    clifford = [r for r in range(gm.n) if gm.sig.is_clifford(r)]
    letters = []
    for c, v in enumerate(g):
        if v:
            sign = 1 if v > 0 else -1
            entries = [sign * gm.rows[r][c] for r in clifford]
            plus = sum(1 << k for k, e in enumerate(entries) if e > 0)
            minus = sum(1 << k for k, e in enumerate(entries) if e < 0)
            letters.append((c, sign, plus, minus))
    return letters


def exhaustive_arrange(letters, counts, failed):
    """Least admissible ordering of ``counts[i]`` copies of each letter, or
    None, with no first-touch rule; ``failed`` collects the exhausted states
    (remaining counts, rows whose last sign is 1, rows whose last sign is -1)."""
    if not any(plus or minus for _, _, plus, minus in letters):
        witness = []
        for (c, s, _, _), k in zip(letters, counts):
            witness += [(c, s)] * k
        return tuple(witness)
    total = sum(counts)
    path = []
    stack = [(0, 0, 0)]
    while stack:
        if len(path) == total:
            return tuple(letters[idx][:2] for idx in path)
        last_plus, last_minus, start = stack[-1]
        for idx in range(start, len(letters)):
            _, _, plus, minus = letters[idx]
            if not counts[idx] or plus & last_plus or minus & last_minus:
                continue
            counts[idx] -= 1
            keep = ~(plus | minus)
            new_plus, new_minus = last_plus & keep | plus, last_minus & keep | minus
            if (tuple(counts), new_plus, new_minus) not in failed:
                stack[-1] = (last_plus, last_minus, idx + 1)
                stack.append((new_plus, new_minus, 0))
                path.append(idx)
                break
            counts[idx] += 1
        else:
            stack.pop()
            failed.add((tuple(counts), last_plus, last_minus))
            if path:
                counts[path.pop()] += 1
    return None


def exhaustive_witness(gm, g, failed=None):
    """The witness of g (None for a non-member) by ``exhaustive_arrange``,
    after the Clifford containment test; ``failed`` may be shared between
    points with the same sign pattern."""
    image = gm.apply(g)
    if any(abs(image[r]) > 1 for r in range(gm.n) if gm.sig.is_clifford(r)):
        return None
    letters = _letters(gm, g)
    return exhaustive_arrange(letters, [abs(v) for v in g if v], set() if failed is None else failed)


def exhaustive_scan(gm, box, even_lattice=False):
    """(members with witnesses, exhausted states) of a box, every point in
    ``itertools.product`` order, one memo per sign pattern."""
    found, memos = [], {}
    for g in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if even_lattice and sum(g) % 2:
            continue
        failed = memos.setdefault(tuple((v > 0) - (v < 0) for v in g), set())
        witness = exhaustive_witness(gm, g, failed)
        if witness is not None:
            found.append((g, witness))
    return found, sum(map(len, memos.values()))


def list_injectivity_report(gm, box):
    """``injectivity_report(gm, box)`` from lists of every point's image and
    projected image."""
    rank, kernel = gamma_rank_kernel(gm)
    pts = [g for g, _ in exhaustive_scan(gm, box)[0]]
    images = [tuple(sum(row[c] * g[c] for c in range(gm.m)) for row in gm.rows) for g in pts]
    cliff = [gm.sig.is_clifford(r) for r in range(gm.n)]
    projected = [tuple(v % 2 if cliff[r] else v for r, v in enumerate(img)) for img in images]
    zero_fiber = all(not any(g) for g, img in zip(pts, images) if not any(img))
    return InjectivityReport(
        rank=rank,
        m=gm.m,
        kernel=kernel,
        box=[tuple(interval) for interval in box],
        points=pts,
        gamma_distinct_on_box=len(set(images)) == len(images),
        p_gamma_zero_fiber=zero_fiber,
        p_gamma_distinct_on_box=len(set(projected)) == len(projected),
    )


def dfs_arrange(letters, counts, failed, image_plus, image_minus):
    """``_arrange`` one letter per step: least admissible ordering of
    ``counts[i]`` copies of each letter (column, sign, plus, minus), or None,
    starting each row whose image is 1 (-1) as if its last sign were -1 (1),
    and adding the exhausted states to ``failed``."""
    total = sum(counts)
    path = []  # letter index placed at each depth
    stack = [(image_minus, image_plus, 0)]  # (rows last 1, rows last -1, next letter to try)
    while stack:
        if len(path) == total:
            return tuple(letters[idx][:2] for idx in path)
        last_plus, last_minus, start = stack[-1]
        for idx in range(start, len(letters)):
            _, _, plus, minus = letters[idx]
            # a letter may not repeat the last nonzero sign of any row it touches
            if not counts[idx] or plus & last_plus or minus & last_minus:
                continue
            counts[idx] -= 1
            keep = ~(plus | minus)
            new_plus, new_minus = last_plus & keep | plus, last_minus & keep | minus
            if not failed or (tuple(counts), new_plus, new_minus) not in failed:
                stack[-1] = (last_plus, last_minus, idx + 1)
                stack.append((new_plus, new_minus, 0))
                path.append(idx)
                break
            counts[idx] += 1
        else:
            stack.pop()
            failed.add((tuple(counts), last_plus, last_minus))
            if path:
                counts[path.pop()] += 1
    return None
