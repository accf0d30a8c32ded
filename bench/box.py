"""``box``: graded-support decisions plus the matrix validation they repeat.

No algebra products run inside a timed op: the support search works on
matrix entries only (it validates the matrix on every point it decides).
The oracle that re-decides membership through generator products runs in
the checks, outside the timed region and outside the traced spans.

Each round holds the pinned box enumerations, the injectivity report on
``nine_point.json``, deep membership queries on ``band.json`` and many
single-point queries (points with at most 8 letters, so the oracle can
decide them).

The seed permutes the rows of every matrix and flips the signs of some of
them.  Neither changes validity, rank, membership, witnesses or the work
of the search, which treats rows symmetrically, so each seed gives other
matrices and the same amount of work.  The query points and the extra
random matrices come from a fixed generator.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import superweyl as sw

from ops import Op, random_matrix

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ORACLE_CAP = 8

# (matrix name, box radius, members found) -- member counts recorded
# from the baseline commit and confirmed by the oracle on a sample of points.
FULL = {
    "enumerations": [
        ("clifford5", 3, 229),
        ("weyl4", 3, 2401),
        ("three_column", 6, 59),
    ],
    "injectivity": ("nine_point", 20, 9),
    "band_depths": (100, 200, 300, 400, 500, 600),
    "queries": 240,
    "oracle_sample": 12,
}
TINY = {
    "enumerations": [
        ("clifford3", 2, 25),
        ("weyl2", 2, 25),
        ("three_column", 2, 23),
    ],
    "injectivity": ("nine_point", 4, 9),
    "band_depths": (10, 50, 500, 600),
    "queries": 20,
    "oracle_sample": 4,
}

# Deeper queries exceed the interpreter's default recursion limit, because
# the support search recurses once per letter.
RECURSION_DEFECT = "is_in_support recurses once per letter: RecursionError past ~1000 letters"


def bidiagonal(n: int, sign: str, parity: int):
    """Columns e_c - e_(c+1) (the last column is e_n), all rows of one parity."""
    rows = [[0] * n for _ in range(n)]
    for c in range(n):
        rows[c][c] = 1
        if c + 1 < n:
            rows[c + 1][c] = -1
    return sw.GammaMatrix(sw.Signature(sign, (parity,) * n), tuple(map(tuple, rows)))


def load_sample(name: str):
    with open(SAMPLES / f"{name}.json", encoding="utf-8") as fh:
        return sw.gamma_from_dict(json.load(fh))


def _matrix(name: str):
    if name.startswith("clifford"):
        return bidiagonal(int(name[len("clifford"):]), "minus", 1)
    if name.startswith("weyl"):
        return bidiagonal(int(name[len("weyl"):]), "minus", 0)
    return load_sample(name)


def _row_transform(rng, gm):
    """The same matrix with rows permuted and some rows negated."""
    order = list(range(gm.n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in order]
    rows = tuple(tuple(s * v for v in gm.rows[r]) for r, s in zip(order, signs))
    sig = sw.Signature(gm.sig.sign, tuple(gm.sig.parity[r] for r in order))
    return sw.GammaMatrix(sig, rows)


def _small_point(rng, m: int, radius: int = 2):
    """A nonzero degree vector with at most ORACLE_CAP letters."""
    while True:
        g = tuple(rng.randint(-radius, radius) for _ in range(m))
        if any(g) and sum(map(abs, g)) <= ORACLE_CAP:
            return g


def _enumeration_op(label, gm, radius, members, sample, oracle) -> Op:
    box = [(-radius, radius)] * gm.m

    def check(found):
        points = [g for g, _ in found]
        if len(found) != members or points != sorted(set(points)):
            return False
        if not all(sw.verify_witness(gm, g, w) for g, w in found):
            return False
        member_set = set(points)
        return all(oracle(gm, g) == (g in member_set) for g in sample)

    return Op(
        f"enumerate_support {label} -{radius}:{radius}",
        lambda: sw.enumerate_support(gm, box),
        check,
        points=(2 * radius + 1) ** gm.m,
    )


def _injectivity_op(label, gm, radius, members, sample, oracle) -> Op:
    box = [(-radius, radius)] * gm.m

    def check(report):
        if len(report.points) != members or not report.passed:
            return False
        member_set = set(report.points)
        return all(oracle(gm, g) == (g in member_set) for g in sample)

    return Op(
        f"injectivity_report {label} -{radius}:{radius}",
        lambda: sw.injectivity_report(gm, box),
        check,
        points=(2 * radius + 1) ** gm.m,
    )


def _band_op(gm, depth) -> Op:
    g = (depth, depth)
    # both letters of band.json sit on its one Clifford row with opposite
    # signs, so the least admissible order simply alternates the two columns
    expected = ((0, 1), (1, 1)) * depth
    return Op(
        f"is_in_support band ({depth},{depth})",
        lambda: sw.is_in_support(gm, g),
        lambda witness: witness == expected,
        points=1,
        known_defect=RECURSION_DEFECT if 2 * depth >= 1000 else "",
        defect_seen=lambda out, error: isinstance(error, RecursionError),
    )


def _query_op(label, gm, g, oracle) -> Op:
    def check(witness):
        if witness is None:
            return not oracle(gm, g)
        return sw.verify_witness(gm, g, witness) and oracle(gm, g)

    return Op(f"is_in_support {label} {g}", lambda: sw.is_in_support(gm, g), check, points=1)


def build(rng, workdir, tiny: bool) -> list[Op]:
    size = TINY if tiny else FULL
    fixed = random.Random(0)
    # the product oracle is slow; identical checks in later rounds reuse it
    oracle = functools.cache(sw.oracle_membership)
    ops = []
    for name, radius, members in size["enumerations"]:
        gm = _row_transform(rng, _matrix(name))
        sample = [_small_point(rng, gm.m) for _ in range(size["oracle_sample"])]
        ops.append(_enumeration_op(name, gm, radius, members, sample, oracle))
    name, radius, members = size["injectivity"]
    gm = _row_transform(rng, _matrix(name))
    sample = [_small_point(rng, gm.m) for _ in range(size["oracle_sample"])]
    ops.append(_injectivity_op(name, gm, radius, members, sample, oracle))

    band = _row_transform(rng, load_sample("band"))
    ops.extend(_band_op(band, depth) for depth in size["band_depths"])

    pool = [(name, _matrix(name)) for name in
            ("three_column", "nine_point", "band", "identity_1_1",
             size["enumerations"][0][0], size["enumerations"][1][0])]
    for k in range(4):
        sign, parity, rows = random_matrix(fixed, fixed.randint(2, 4), fixed.randint(2, 4))
        gm = sw.GammaMatrix(sw.Signature(sign, tuple(parity)), tuple(map(tuple, rows)))
        pool.append((f"random{k}", gm))
    pool = [(label, _row_transform(rng, gm)) for label, gm in pool]
    for q in range(size["queries"]):
        label, gm = pool[q % len(pool)]
        ops.append(_query_op(label, gm, _small_point(fixed, gm.m), oracle))
    return ops
