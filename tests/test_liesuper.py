import dataclasses
import json
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from helpers import expanded_relations
from superweyl import (
    BaseRingElement,
    Calibration,
    ResourceCapError,
    Signature,
    SuperElement,
    calibrate,
    check_relations,
    check_triangle,
    consistency_check,
    derive_datum,
    iota_embed,
    load_calibration,
    phi_generator,
    preset,
    super_bracket,
    validate_gamma,
    word_element,
    zeta_matrix,
)
from superweyl import cli, liesuper
from superweyl.algebra import _mono_product, accumulate_terms
from superweyl.cli import run

ALL_COMBOS = [
    ("gl", p, q)
    for p in range(0, 4)
    for q in range(0, 4)
    if 2 <= p + q <= 3
] + [
    ("osp_even", p, q)
    for p in range(0, 4)
    for q in range(1, 4)
    if 1 <= p + q <= 3
] + [
    ("osp_odd", p, q)
    for p in range(0, 4)
    for q in range(0, 4)
    if 1 <= p + q <= 3
]


def test_preset_shapes_gl11():
    pre = preset("gl", 1, 1)
    assert pre.sig == Signature("minus", (1, 0))
    assert pre.ne == 1 and pre.n == 2
    assert pre.e_images[0] == word_element(pre.sig, [("x", 0), ("d", 1)])
    assert pre.f_images[0] == word_element(pre.sig, [("x", 1), ("d", 0)])
    assert pre.e_parity == (1,)  # the boundary generator is odd
    assert len(pre.h_images) == 2


def test_preset_last_generator_images():
    pre_even = preset("osp_even", 1, 1)
    xn = SuperElement.x(pre_even.sig, 1)
    assert pre_even.e_images[-1] == xn * xn
    pre_odd = preset("osp_odd", 1, 1)
    assert pre_odd.e_images[-1] == SuperElement.x(pre_odd.sig, 1)


def test_preset_f_is_involution_of_e():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        for e, f in zip(pre.e_images, pre.f_images):
            assert f == e.star()


def test_preset_rejects_unsupported_sizes():
    with pytest.raises(ValueError):
        preset("gl", 1, 0)
    with pytest.raises(ValueError):
        preset("osp_even", 2, 0)
    with pytest.raises(ValueError):
        preset("nope", 1, 1)


def test_zeta_matrices_validate_and_pass_consistency():
    for family, p, q in ALL_COMBOS:
        zeta = zeta_matrix(family, p, q)
        assert validate_gamma(zeta).valid
        assert consistency_check(derive_datum(zeta)).all_pass


def test_super_bracket_examples():
    sig = Signature("minus", (0, 1))
    h = word_element(sig, [("x", 0), ("d", 0)])
    assert super_bracket(h, h, 0, 0).is_zero
    # ambient-even Clifford generator with odd declared parity squares to zero
    sigp = Signature("plus", (0,))
    xi = SuperElement.x(sigp, 0)
    assert super_bracket(xi, xi, 1, 1).is_zero
    # Weyl-type pair of the plus variant: {x, d} = 1 + 2 x d
    sigw = Signature("plus", (1,))
    x, d = SuperElement.x(sigw, 0), SuperElement.d(sigw, 0)
    expected = SuperElement.one(sigw) + 2 * (x * d)
    assert super_bracket(x, d, 1, 1) == expected


def test_relations_pass_with_fixture():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        cal = load_calibration(pre)
        report = check_relations(pre, cal)
        assert report.all_pass, (family, p, q, [r.label for r in report.failures()])


def test_h_commutators_vanish_with_unit_scalings():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        report = check_relations(pre)  # preset default: unit scalings
        for res in report.results:
            if res.label.startswith("[h") and ",h" in res.label:
                assert res.passed, res.label


def test_osp_odd_unit_scaling_residual_is_h():
    # with unit scalings the closing bracket overshoots by exactly h_n
    pre = preset("osp_odd", 1, 1)
    report = check_relations(pre)
    residuals = {r.label: r for r in report.results}
    res = residuals["[e2,f2]"]
    assert not res.passed
    assert res.residual == pre.h_images[-1]


def test_triangle_offsets():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        cal = load_calibration(pre)
        report = check_triangle(pre, cal)
        assert report.all_x_match
        assert report.offsets_constant
        assert report.offsets_match_expected
        for off in report.h_offsets:
            assert off in (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))


def test_triangle_x_images_match_column_words():
    pre = preset("gl", 2, 1)
    cal = load_calibration(pre)
    for c in range(pre.zeta.m):
        assert phi_generator(pre.zeta, c, "X") == cal.e_scale[c] * pre.e_images[c]


def test_calibrate_matches_fixture():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        result = calibrate(pre)
        assert result.solved, (family, p, q, result.message)
        fixture = load_calibration(pre)
        assert result.calibration.e_scale == fixture.e_scale
        assert result.calibration.f_scale == fixture.f_scale
        assert result.calibration.h_shift == fixture.h_shift
        assert result.calibration.expected_h_offsets == fixture.expected_h_offsets


def test_super_bracket_antisymmetry():
    rng = random.Random(109)
    pre = preset("osp_odd", 1, 1)
    pool = (
        [(img, pre.e_parity[i]) for i, img in enumerate(pre.e_images)]
        + [(img, pre.e_parity[i]) for i, img in enumerate(pre.f_images)]
        + [(img, 0) for img in pre.h_images]
    )
    for _ in range(25):
        (a, pa), (b, pb) = rng.choice(pool), rng.choice(pool)
        sign = -1 if pa & pb else 1
        assert super_bracket(a, b, pa, pb) == (-sign) * super_bracket(b, a, pb, pa)


def test_super_jacobi_on_generator_images():
    rng = random.Random(113)
    for family, p, q in [("gl", 1, 1), ("osp_odd", 1, 1), ("osp_even", 1, 2)]:
        pre = preset(family, p, q)
        pool = (
            [(img, pre.e_parity[i]) for i, img in enumerate(pre.e_images)]
            + [(img, pre.e_parity[i]) for i, img in enumerate(pre.f_images)]
            + [(img, 0) for img in pre.h_images]
        )
        for _ in range(20):
            (a, pa), (b, pb), (c, pc) = (rng.choice(pool) for _ in range(3))
            lhs = super_bracket(a, super_bracket(b, c, pb, pc), pa, (pb + pc) % 2)
            mid = super_bracket(b, super_bracket(c, a, pc, pa), pb, (pc + pa) % 2)
            rhs = super_bracket(c, super_bracket(a, b, pa, pb), pc, (pa + pb) % 2)
            total = (
                (-1 if pa & pc else 1) * lhs
                + (-1 if pb & pa else 1) * mid
                + (-1 if pc & pb else 1) * rhs
            )
            assert total.is_zero


def test_lie_parity_matches_ambient():
    for family, p, q in ALL_COMBOS:
        pre = preset(family, p, q)
        for img, parity in zip(pre.e_images, pre.e_parity):
            assert img.parity() == parity


UP_TO_SIX = [
    (family, p, q)
    for family in ("gl", "osp_even", "osp_odd")
    for p in range(7)
    for q in range(7)
    if p + q <= 6
    and not (family == "gl" and p + q < 2)
    and not (family == "osp_even" and q < 1)
    and not (family == "osp_odd" and p + q < 1)
]


def _random_calibration(rng, pre):
    def rational():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))

    return Calibration(
        tuple(rational() for _ in range(pre.ne)),
        tuple(rational() for _ in range(pre.ne)),
        tuple(rational() for _ in range(pre.n)),
        tuple(rational() for _ in range(pre.n)),
    )


def _calibrations(pre, rng):
    return {
        "fixture": load_calibration(pre),
        "solved": calibrate(pre).calibration,
        "unit": pre.scalings,
        "random": _random_calibration(rng, pre),
    }


def _assert_matches_oracle(report, expected):
    assert len(report.results) == len(expected)
    for result, (label, passed, residual) in zip(report.results, expected):
        assert result.label == label
        assert result.passed == passed
        assert result.residual == residual
        assert str(result.residual) == str(residual)


def test_check_relations_matches_expanded_oracle():
    rng = random.Random(811)
    assert len(UP_TO_SIX) == 73
    for family, p, q in UP_TO_SIX:
        pre = preset(family, p, q)
        for name, cal in _calibrations(pre, rng).items():
            expected = expanded_relations(pre, cal)
            _assert_matches_oracle(check_relations(pre, cal), expected)
            if name == "random" and expected:
                assert any(cal.h_shift) and not all(passed for _, passed, _ in expected)
    # ranks 10 to 16, under the fixture and the solved calibration
    for family, p, q in [
        ("gl", 6, 6), ("osp_even", 3, 9), ("osp_odd", 7, 5), ("gl", 0, 10), ("osp_odd", 8, 8),
    ]:
        pre = preset(family, p, q)
        for cal in (load_calibration(pre), calibrate(pre).calibration):
            expected = expanded_relations(pre, cal)
            assert all(passed for _, passed, _ in expected)
            _assert_matches_oracle(check_relations(pre, cal), expected)


def _paired_bracket(sig, a, b, pa, pb):
    """ab - (-1)^(pa*pb) ba as m1*m2 + swap * m2*m1 over every pair of terms."""
    swap = 1 if pa & pb else -1
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            accumulate_terms(acc, ((m, c1 * c2 * s) for m, s in _mono_product(sig, m1, m2)))
            accumulate_terms(acc, ((m, swap * c1 * c2 * s) for m, s in _mono_product(sig, m2, m1)))
    return acc


def _sparse_monomial(sig, rng):
    """A monomial with a block on about half the indices, exponents up to 3
    on a Weyl index and up to 1 on a Clifford one."""
    pairs = []
    for i in range(sig.n):
        top = 1 if sig.is_clifford(i) else 3
        block = (0, 0)
        while rng.random() < 0.5 and block == (0, 0):
            block = (rng.randint(0, top), rng.randint(0, top))
        pairs.append(block)
    return tuple(pairs)


def _block(sig, blocks):
    pairs = [(0, 0)] * sig.n
    for i, block in blocks:
        pairs[i] = block
    return tuple(pairs)


def _diagonal(sig, rng):
    """A constant plus sum w_k x_k d_k over about half the indices, with int
    and Fraction weights."""
    terms = {}
    if rng.random() < 0.5:
        terms[_block(sig, ())] = rng.choice([1, -2, Fraction(1, 2)])
    for k in range(sig.n):
        if rng.random() < 0.5:
            terms[_block(sig, [(k, (1, 1))])] = rng.choice(
                [1, -1, 3, Fraction(rng.choice([-3, 1, 5]), rng.randint(2, 4))]
            )
    return terms


def _operand(sig, rng):
    """(shape, coefficient map): a diagonal image, x_k^2 d_k^2 on a Weyl index,
    x_k d_j with j != k, or a random sparse map."""
    roll = rng.random()
    weyl = [i for i in range(sig.n) if not sig.is_clifford(i)]
    if roll < 0.3:
        return "diagonal", _diagonal(sig, rng)
    if roll < 0.4 and weyl:
        return "x^2 d^2", {_block(sig, [(rng.choice(weyl), (2, 2))]): rng.choice([1, -1])}
    if roll < 0.5 and sig.n > 1:
        k, j = rng.sample(range(sig.n), 2)
        return "x_k d_j", {_block(sig, [(k, (1, 0)), (j, (0, 1))]): rng.choice([1, Fraction(2, 3)])}
    terms = {}
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        c = rng.choice([1, -1, 2, Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        terms[_sparse_monomial(sig, rng)] = c
    return "sparse", {m: c for m, c in terms.items() if c}


def test_bracket_terms_match_paired_products(monkeypatch):
    # _bracket_terms, and _summary_bracket on the summaries of the same maps,
    # against both products of every pair of terms; a pair of terms that
    # shares an index but contracts in neither order takes at most one product
    rng = random.Random(907)
    seen = set()
    branches = set()
    called = []
    multiplied = []
    bracket_terms, weight_terms = liesuper._bracket_terms, liesuper._weight_terms

    def counting_product(*args):
        multiplied.append(args)
        return _mono_product(*args)

    def products(*args):
        called.append("products")
        return bracket_terms(*args)

    def weights(w, terms, sign):
        called.append("weights left" if sign > 0 else "weights right")
        return weight_terms(w, terms, sign)

    monkeypatch.setattr(liesuper, "_bracket_terms", products)
    monkeypatch.setattr(liesuper, "_weight_terms", weights)
    monkeypatch.setattr(liesuper, "_mono_product", counting_product)
    for _ in range(10_000):
        parity = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
        sig = Signature(rng.choice(["plus", "minus"]), parity)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        (shape_a, a), (shape_b, b) = _operand(sig, rng), _operand(sig, rng)
        expected = _paired_bracket(sig, a, b, pa, pb)
        assert bracket_terms(
            sig, liesuper._support_terms(sig, a), liesuper._support_terms(sig, b), pa, pb,
        ) == expected
        sa, sb = liesuper._summary(sig, a), liesuper._summary(sig, b)
        called.clear()
        assert liesuper._summary_bracket(sig, sa, sb, pa, pb) == expected
        assert len(called) <= 1
        even_diagonal = sa.weights is not None and not pa or sb.weights is not None and not pb
        assert called or even_diagonal
        branch = called[0] if called else "weights, disjoint"
        branches.add(branch)
        if branch.startswith("weights "):
            used = sa if branch == "weights left" else sb
            other = sb if branch == "weights left" else sa
            for k, w in used.weights:
                if other.support >> k & 1:
                    seen.add(("weights", "clifford" if sig.is_clifford(k) else "weyl",
                              type(w).__name__))
        elif branch == "products":
            seen.update(("products", shape) for shape in (shape_a, shape_b) if shape != "sparse")
            if (sa.weights is not None and pa) or (sb.weights is not None and pb):
                seen.add(("products", "diagonal declared odd"))
            classes = [{term[4:] for term in x.terms} for x in (sa, sb)]
            if not sa.support & sb.support and max(map(len, classes)) > 1:
                seen.add(("products", "disjoint, mixed class"))
        for m1 in a:
            for m2 in b:
                shared = [i for i in range(sig.n) if any(m1[i]) and any(m2[i])]
                if not shared:
                    vanishes = not _paired_bracket(sig, {m1: 1}, {m2: 1}, pa, pb)
                    seen.add((sig.sign, "disjoint", vanishes))
                contracting = False
                for i in shared:
                    contracts = m1[i][1] and m2[i][0] or m2[i][1] and m1[i][0]
                    contracting = contracting or contracts
                    seen.add((sig.sign, "clifford" if sig.is_clifford(i) else "weyl",
                              "contracting" if contracts else "touching"))
                if shared and not contracting:
                    multiplied.clear()
                    pair = [liesuper._support_terms(sig, {m: 1}) for m in (m1, m2)]
                    assert bracket_terms(sig, *pair, pa, pb) == _paired_bracket(
                        sig, {m1: 1}, {m2: 1}, pa, pb)
                    assert len(multiplied) <= 1
                    seen.add((sig.sign, "shared", "contracting in neither order"))
    assert branches == {"weights left", "weights right", "weights, disjoint", "products"}
    assert seen == {
        (sign, kind, case)
        for sign in ("plus", "minus")
        for kind, case in [
            ("disjoint", True), ("disjoint", False), ("shared", "contracting in neither order"),
        ] + [
            (index, contact) for index in ("clifford", "weyl")
            for contact in ("touching", "contracting")
        ]
    } | {
        ("weights", index, weight) for index in ("clifford", "weyl")
        for weight in ("int", "Fraction")
    } | {
        ("products", shape) for shape in (
            "diagonal", "x^2 d^2", "x_k d_j", "diagonal declared odd", "disjoint, mixed class",
        )
    }


@pytest.mark.parametrize("p, q, products", [(4, 4, 14), (16, 0, 30), (5, 27, 62), (32, 32, 126)])
def test_raw_brackets_take_two_products_per_touching_pair(monkeypatch, p, q, products):
    # gl at rank n has n - 1 e-f relations whose images contract, the
    # diagonal [e_i, f_i]; the other e-f pairs that share an index meet d
    # with d or x with x and take the sign rule, and the h relations are read
    # off the h weights, with no product
    calls = []

    def counting(*args):
        calls.append(args)
        return _mono_product(*args)

    pre = preset("gl", p, q)
    monkeypatch.setattr(liesuper, "_mono_product", counting)
    liesuper._raw_brackets(pre)
    assert len(calls) == products == 2 * (p + q - 1)


def test_check_relations_scales_only_nonzero_relations(monkeypatch):
    pre = preset("osp_odd", 4, 4)
    cal = load_calibration(pre)
    residuals, conversions = [], []
    residual_terms, exact_int = liesuper._residual_terms, liesuper._exact_int

    def counting_residual(*args):
        residuals.append(args)
        return residual_terms(*args)

    def counting_conversion(c):
        conversions.append(c)
        return exact_int(c)

    monkeypatch.setattr(liesuper, "_residual_terms", counting_residual)
    monkeypatch.setattr(liesuper, "_exact_int", counting_conversion)
    report = check_relations(pre, cal)
    assert report.all_pass and len(report.results) == 220
    # 182 relations have an empty raw bracket and no right-hand side, so 38
    # residuals are built
    assert len(residuals) == 38
    # each scale factor and h shift is converted at most once per call
    assert len(conversions) <= len(cal.e_scale) + len(cal.f_scale) + len(cal.h_shift)
    # an empty raw bracket with a right-hand side still has a residual
    wrong = liesuper.Relation(("h", 0), ("h", 1), ((("e", 0), 1),))
    report = check_relations(dataclasses.replace(pre, relations=(wrong,)))
    assert [(r.label, r.passed, r.residual) for r in report.results] == [
        ("[h1,h2]", False, -pre.e_images[0]),
    ]


def test_check_relations_matches_oracle_on_fractional_images():
    # a hand-built presentation whose images have non-integer coefficients and
    # several terms, so the raw brackets carry exact fractions
    rng = random.Random(823)
    for family, p, q in [("gl", 1, 2), ("osp_even", 1, 1), ("osp_odd", 2, 1)]:
        pre = preset(family, p, q)
        sig = pre.sig
        half, third = Fraction(1, 2), Fraction(2, 3)
        hand = dataclasses.replace(
            pre,
            e_images=tuple(half * e + third * (e * e) for e in pre.e_images),
            f_images=tuple(Fraction(-3, 4) * f for f in pre.f_images),
            h_images=tuple(
                third * h + Fraction(1, 5) * SuperElement.x(sig, 0) * SuperElement.d(sig, 0)
                for h in pre.h_images
            ),
        )
        assert any(c.denominator > 1 for img in hand.e_images for c in img.terms.values())
        for cal in (hand.scalings, load_calibration(hand), _random_calibration(rng, hand)):
            _assert_matches_oracle(check_relations(hand, cal), expanded_relations(hand, cal))


def test_check_relations_and_calibrate_take_no_element_products(monkeypatch):
    sizes = [("gl", 2, 2), ("osp_even", 1, 2), ("osp_odd", 2, 1)]
    expected = []
    for family, p, q in sizes:
        pre = preset(family, p, q)
        result = calibrate(pre)
        expected.append((
            check_relations(pre, load_calibration(pre)).to_dict(),
            result.calibration, result.solved, result.message,
            check_relations(pre, result.calibration).to_dict(),
        ))
    fresh = [preset(family, p, q) for family, p, q in sizes]

    def refuse(*args, **kwargs):
        raise AssertionError("element product taken")

    monkeypatch.setattr(liesuper, "super_bracket", refuse)
    monkeypatch.setattr(SuperElement, "__mul__", refuse)
    for pre, want in zip(fresh, expected):
        result = calibrate(pre)
        assert (
            check_relations(pre, load_calibration(pre)).to_dict(),
            result.calibration, result.solved, result.message,
            check_relations(pre, result.calibration).to_dict(),
        ) == want


def test_lie_check_builds_raw_brackets_once(monkeypatch, capsys):
    built = []
    raw_brackets = liesuper._raw_brackets

    def counting(pre):
        built.append(pre)
        return raw_brackets(pre)

    monkeypatch.setattr(liesuper, "_raw_brackets", counting)
    assert run(["lie", "check", "gl", "2", "1", "--calibrate"]) == 0
    assert len(built) == 1
    assert run(["lie", "check", "osp_odd", "1", "2"]) == 0
    assert len(built) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value, ok", [
    (2, True), ("-3/4", True), ("5", True), (0.5, False), (True, False), ("1/0", False),
    ("half", False), (None, False),
])
def test_load_calibration_takes_only_exact_values(value, ok, tmp_path):
    data = json.loads(
        resources.files("superweyl").joinpath("data/lie_calibration.json").read_text()
    )
    data["osp_odd"]["f_scale_last"] = value
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(data))
    pre = preset("osp_odd", 1, 1)
    if ok:
        assert load_calibration(pre, str(path)).f_scale[-1] == Fraction(value)
    else:
        with pytest.raises(ValueError, match="osp_odd: f_scale_last must be an integer"):
            load_calibration(pre, str(path))


def test_calibrate_reports_the_relations_of_what_it_returns():
    pre = preset("gl", 2, 2)
    one = SuperElement.one(pre.sig)
    x2d2 = SuperElement.x(pre.sig, 1) * SuperElement.d(pre.sig, 1)
    broken_e = dataclasses.replace(pre, e_images=(pre.e_images[0] + one,) + pre.e_images[1:])
    broken_f = dataclasses.replace(pre, f_images=(pre.f_images[0] + x2d2,) + pre.f_images[1:])
    # doubled h images leave x_i d_i in the h comparison
    doubled_h = dataclasses.replace(pre, h_images=tuple(2 * h for h in pre.h_images))
    # [h1,e1] = 0 is false
    extra = dataclasses.replace(
        pre, relations=pre.relations + (liesuper.Relation(("h", 0), ("e", 0)),)
    )
    # osp_odd solves to a non-unit lowering scale
    odd = preset("osp_odd", 1, 2)
    messages = []
    for candidate in (pre, odd, broken_e, broken_f, doubled_h, extra):
        result = calibrate(candidate)
        messages.append(result.message)
        want = check_relations(candidate, result.calibration)
        assert result.report.to_dict() == want.to_dict()
        want = check_triangle(candidate, result.calibration)
        assert result.triangle.to_dict() == want.to_dict()
    assert not check_relations(odd).all_pass
    assert messages[:2] == ["solved", "solved"]
    assert messages[2].startswith("column word 1 is not")
    assert messages[3].startswith("relation [e1,f1] is not")
    assert messages[4] == "h comparison is not a central constant"
    assert messages[5] == "unresolved residuals: ['[h1,e1]']"


def test_lie_check_runs_the_triangle_once_on_words_built_once(monkeypatch, capsys):
    # check_triangle and calibrate share one core, _triangle, that takes the
    # column words built by its caller
    calls = {"triangle": 0, "word": 0}
    triangle, phi = liesuper._triangle, liesuper.phi_generator

    def counting_triangle(*args):
        calls["triangle"] += 1
        return triangle(*args)

    def counting_phi(*args):
        calls["word"] += 1
        return phi(*args)

    monkeypatch.setattr(liesuper, "_triangle", counting_triangle)
    monkeypatch.setattr(liesuper, "phi_generator", counting_phi)
    for argv, columns in (
        (["lie", "check", "gl", "2", "1", "--calibrate"], 2),
        (["--format", "json", "lie", "check", "osp_odd", "2", "1", "--calibrate"], 3),
        (["lie", "check", "osp_odd", "1", "2"], 3),
        (["lie", "check", "gl", "4", "4"], 7),
    ):
        calls.update(triangle=0, word=0)
        assert run(argv) == 0
        assert calls == {"triangle": 1, "word": columns}
    capsys.readouterr()


def test_lie_check_embeds_nothing_and_calibrate_builds_two_tables(monkeypatch, capsys):
    calls = {"iota": 0, "table": 0}
    iota, table = iota_embed, liesuper._generator_table

    def counting_iota(*args):
        calls["iota"] += 1
        return iota(*args)

    def counting_table(*args):
        calls["table"] += 1
        return table(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("superweyl")]:
        for name, value in list(vars(module).items()):
            if value is iota:
                monkeypatch.setattr(module, name, counting_iota)
    monkeypatch.setattr(liesuper, "_generator_table", counting_table)
    for argv in (
        ["lie", "check", "gl", "2", "1", "--calibrate"],
        ["--format", "json", "lie", "check", "osp_odd", "2", "1", "--calibrate"],
        ["lie", "check", "osp_even", "1", "3", "--calibrate"],
        ["lie", "check", "osp_odd", "1", "2"],
    ):
        calls.update(iota=0, table=0)
        assert run(argv) == 0
        assert calls["iota"] == 0 and calls["table"] <= 2
    capsys.readouterr()
    # the unit table serves the lowering scales and a failed calibration
    pre = preset("gl", 2, 2)
    one = SuperElement.one(pre.sig)
    for candidate in (pre, dataclasses.replace(
            pre, e_images=(pre.e_images[0] + one,) + pre.e_images[1:])):
        calls.update(iota=0, table=0)
        result = calibrate(candidate)
        assert calls == {"iota": 0, "table": 2 if result.solved else 1}


def test_h_offsets_subtract_the_embedded_ring_side():
    # lam(i,i) (u_i - 1) embeds to x_i d_i on every index of every preset
    for family, p, q in ALL_COMBOS:
        sig = preset(family, p, q).sig
        for i in range(sig.n):
            lam = sig.lam(i, i)
            ring_side = lam * (BaseRingElement.u(sig, i) - BaseRingElement.one(sig))
            assert iota_embed(ring_side) == word_element(sig, [("x", i), ("d", i)])


def test_lie_rank_is_capped(capsys):
    assert liesuper.MAX_LIE_RANK == 64
    assert preset("gl", 64, 0).n == zeta_matrix("osp_odd", 30, 34).n == 64
    for build in (preset, zeta_matrix):
        for family, p, q in (("gl", 65, 0), ("osp_even", 1, 64), ("osp_odd", 33, 32)):
            with pytest.raises(ResourceCapError, match=r"rank p \+ q = 65 exceeds the Lie rank cap 64"):
                build(family, p, q)
    assert run(["lie", "check", "gl", "40", "25"]) == 2
    assert capsys.readouterr() == ("", "error: rank p + q = 65 exceeds the Lie rank cap 64\n")


def test_text_lie_check_renders_no_json_payload(monkeypatch, capsys):
    argv = ["lie", "check", "gl", "3", "2"]
    assert run(argv) == 0
    text = capsys.readouterr().out

    def refuse(self):
        raise AssertionError("the JSON payload was built")

    monkeypatch.setattr(liesuper.ResidualReport, "to_dict", refuse)
    monkeypatch.setattr(liesuper.TriangleReport, "to_dict", refuse)
    assert run(argv) == 0
    assert capsys.readouterr().out == text
