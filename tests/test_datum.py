import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import superweyl.basering
import superweyl.datum
from superweyl.datum import (
    MAX_CONSISTENCY_INSTANCES, MAX_ENTRY, MAX_T_DIGITS, MAX_T_TERMS, MAX_WORD_DEGREE, _t_size,
)
from superweyl import (
    BaseRingElement,
    GammaMatrix,
    InvalidGammaError,
    ResourceCapError,
    Signature,
    SignatureMismatchError,
    SuperElement,
    consistency_check,
    derive_datum,
    derive_mu,
    derive_t,
    enumerate_support,
    eval_word,
    gamma_from_dict,
    gamma_to_dict,
    gradation_pair,
    identity_gamma,
    injectivity_report,
    iota_embed,
    is_in_support,
    oracle_membership,
    phi_generator,
    project_zero,
    tau_apply,
    validate_gamma,
    word_element,
    zeta_matrix,
)
from superweyl.liesuper import calibrate, check_triangle, preset, super_bracket
from helpers import (
    bidiagonal_matrix,
    closed_form_consistency,
    dense_validation,
    eval_word_codes,
    expanded_consistency,
    per_root_t_size,
    product_eval_word,
    product_t,
    random_valid_gamma,
    run_fold_word_terms,
    widen_weyl_entries,
    zeta_matrices,
)

EX_C = GammaMatrix(Signature("minus", (0, 1, 1)), ((1, 3, 0), (1, 0, -1), (1, -1, 1)))
# valid, and its triple identities genuinely fail
TRIPLE_FAIL = GammaMatrix(Signature("minus", (1, 1)), ((-1, 1, 1), (1, 1, -1)))


def u(sig, i):
    return BaseRingElement.u(sig, i)


def one(sig):
    return BaseRingElement.one(sig)


def test_matrix_shape_validation():
    sig = Signature("minus", (0, 1))
    with pytest.raises(ValueError):
        GammaMatrix(sig, ((1, 0),))  # wrong row count
    with pytest.raises(ValueError):
        GammaMatrix(sig, ((1, 0), (1,)))  # ragged
    gm = GammaMatrix(sig, ((1, 0), (0, 2)))
    assert gm.apply((1, 1)) == (1, 2)
    assert gm.column(1) == (0, 2)
    # entries must be ints: no float, string or bool is coerced
    for bad in (1.9, "-1", True, 1.0):
        with pytest.raises(ValueError):
            GammaMatrix(sig, ((1, 0), (0, bad)))


def test_validate_identity():
    for sign in ("minus", "plus"):
        sig = Signature(sign, (0, 1, 1))
        assert validate_gamma(identity_gamma(sig)).valid


def test_validate_worked_example():
    assert validate_gamma(EX_C).valid


def test_validate_clifford_entry_bound():
    gm = GammaMatrix(Signature("minus", (1,)), ((2,),))
    rep = validate_gamma(gm)
    assert not rep.valid
    assert rep.clifford_violations == ((0, 0),)


def test_validate_sign_condition():
    gm = GammaMatrix(Signature("minus", (0,)), ((1, 1),))
    rep = validate_gamma(gm)
    assert not rep.valid
    assert rep.sign_violations == ((0, 1),)


def test_validate_zero_column():
    gm = GammaMatrix(Signature("minus", (0, 1)), ((1, 0), (0, 0)))
    rep = validate_gamma(gm)
    assert not rep.valid
    assert rep.zero_columns == (1,)


def _random_matrix(rng, kind):
    """A random matrix: ``small`` entries in -2..2, mostly zero; ``valid``
    ones by rejection; ``wide`` all-Clifford ones with up to 24 columns of
    entries in -1..1, so most columns share every row and a repeated column
    is a violation."""
    if kind == "valid":
        return random_valid_gamma(rng, max_n=4, max_m=6)
    if kind == "small":
        n, m = rng.randint(1, 5), rng.randint(1, 8)
        sig = Signature(rng.choice(["minus", "plus"]), tuple(rng.randint(0, 1) for _ in range(n)))
        choices = (-2, -1, 0, 0, 0, 1, 2)
    else:
        n, m = rng.randint(1, 6), rng.randint(2, 24)
        sign = rng.choice(["minus", "plus"])
        sig = Signature(sign, (1 if sign == "minus" else 0,) * n)
        choices = (-1, 1, -1, 1, 0) if rng.random() < 0.5 else (-1, 1)
    return GammaMatrix(sig, tuple(tuple(rng.choice(choices) for _ in range(m)) for _ in range(n)))


def test_validate_matches_dense_oracle_on_random_matrices():
    rng = random.Random(1701)
    verdicts = {}
    for t in range(10_000):
        kind = ("small", "valid", "wide")[t % 3]
        gm = _random_matrix(rng, kind)
        report = validate_gamma(gm)
        assert report == dense_validation(gm), gm
        verdicts[kind, report.valid] = verdicts.get((kind, report.valid), 0) + 1
    assert ("valid", False) not in verdicts
    for kind in ("small", "wide"):
        assert verdicts[(kind, True)] > 200 and verdicts[(kind, False)] > 200


def test_rank_64_zeta_matrices_validate():
    for family, p, q in (("gl", 32, 32), ("osp_even", 1, 63), ("osp_odd", 30, 34)):
        zeta = zeta_matrix(family, p, q)
        assert zeta.n == 64
        assert validate_gamma(zeta) == dense_validation(zeta) == superweyl.datum.ValidationReport()


MATRIX_ENTRY_POINTS = {
    "derive_t": lambda gm: derive_t(gm, 0),
    "derive_mu": derive_mu,
    "derive_datum": derive_datum,
    "phi_generator": lambda gm: phi_generator(gm, 0),
    "eval_word": lambda gm: eval_word(gm, [("X", 0), ("Y", 0)]),
    "is_in_support": lambda gm: is_in_support(gm, (1,)),
    "enumerate_support": lambda gm: enumerate_support(gm, [(-1, 1)]),
    "oracle_membership": lambda gm: oracle_membership(gm, (1,)),
    "injectivity_report": lambda gm: injectivity_report(gm, [(-1, 1)]),
}


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_invalid_matrix_refused_by_derivations(entry):
    invalid = GammaMatrix(Signature("minus", (1,)), ((2,),))
    over_cap = GammaMatrix(Signature("minus", (0,)), ((MAX_ENTRY + 1,),))
    # the verdict is kept on the matrix, and every call still refuses it
    for gm, error in ((invalid, InvalidGammaError), (over_cap, ResourceCapError)):
        for _ in range(2):
            with pytest.raises(error):
                MATRIX_ENTRY_POINTS[entry](gm)


def _count_validations(monkeypatch) -> list:
    calls = []
    original = superweyl.datum.validate_gamma

    def counting(gm):
        calls.append(gm)
        return original(gm)

    monkeypatch.setattr(superweyl.datum, "validate_gamma", counting)
    return calls


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_one_validation_per_call(entry, monkeypatch):
    calls = _count_validations(monkeypatch)
    gm = GammaMatrix(Signature("minus", (1, 0)), ((1,), (2,)))
    for _ in range(2):
        MATRIX_ENTRY_POINTS[entry](gm)
    assert calls == [gm]


def test_one_validation_per_preset(monkeypatch):
    calls = _count_validations(monkeypatch)
    pre = preset("osp_odd", 2, 1)
    for _ in range(2):
        assert check_triangle(pre).all_x_match
        assert calibrate(pre).solved
    assert calls == [pre.zeta]


def test_validate_gamma_is_not_cached():
    gm = GammaMatrix(Signature("minus", (1,)), ((2,),))
    first, second = validate_gamma(gm), validate_gamma(gm)
    assert first is not second and first == second
    assert gm.validation is gm.validation
    assert gm.validation is not first and gm.validation == first


def test_cached_verdict_cannot_be_edited():
    gm = GammaMatrix(Signature("minus", (1,)), ((2,),))
    with pytest.raises(InvalidGammaError) as caught:
        derive_mu(gm)
    report = caught.value.report
    assert report is gm.validation
    with pytest.raises(AttributeError):
        report.clifford_violations.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.clifford_violations = ()
    # the same matrix object is still refused
    with pytest.raises(InvalidGammaError):
        derive_mu(gm)


def test_derive_t_cases():
    # entry 2 on a non-Clifford row contributes (u + 1) u
    sig = Signature("minus", (0,))
    gm = GammaMatrix(sig, ((2,),))
    assert derive_t(gm, 0) == (u(sig, 0) + one(sig)) * u(sig, 0)
    # entry 0 contributes nothing, entry -1 on a non-Clifford row gives u - 1
    sig2 = Signature("minus", (0, 0))
    gm2 = GammaMatrix(sig2, ((0, 1), (-1, 0)))
    assert derive_t(gm2, 0) == u(sig2, 1) - one(sig2)
    # identity matrix: t_i = u_i
    sig3 = Signature("minus", (0, 1))
    gm3 = identity_gamma(sig3)
    assert derive_t(gm3, 0) == u(sig3, 0)
    assert derive_t(gm3, 1) == u(sig3, 1)


def test_derive_t_clifford_negative_entry_matches_relations():
    # on a Clifford row the -1 factor is 1 - u, pinned by Y X = t below
    sig = Signature("minus", (1, 1))
    gm = GammaMatrix(sig, ((1,), (-1,)))
    t = derive_t(gm, 0)
    assert t == u(sig, 0) * (one(sig) - u(sig, 1))
    yx = eval_word(gm, [("Y", 0), ("X", 0)])
    assert yx.image == iota_embed(t)


def test_datum_sigma_is_column():
    assert derive_datum(EX_C).sigma[1] == (3, 0, -1)


def test_mu_identity_matches_lambda():
    for sign in ("minus", "plus"):
        sig = Signature(sign, (0, 1, 1))
        mu, pparity, pprime = derive_mu(identity_gamma(sig))
        assert pprime == (1, 1, 1)
        assert pparity == sig.parity
        for i in range(3):
            for j in range(3):
                assert mu[i][j] == sig.lam(i, j)


def test_mu_bidiagonal_all_ones():
    # columns e_i - e_(i+1): plain sums vanish mod 2, so mu is identically 1
    p, q = 2, 1
    sig = Signature("minus", (1,) * p + (0,) * q)
    gm = bidiagonal_matrix(sig, sig.n - 1)
    mu, pparity, pprime = derive_mu(gm)
    assert pprime == (0, 0)
    assert pparity == (0, 1)
    assert all(mu[i][j] == 1 for i in range(2) for j in range(2) if i != j)


def test_mu_symmetric():
    rng = random.Random(61)
    for _ in range(10):
        gm = random_valid_gamma(rng)
        mu, _, _ = derive_mu(gm)
        for i in range(gm.m):
            for j in range(gm.m):
                assert mu[i][j] == mu[j][i]


def test_phi_identity_generators():
    sig = Signature("minus", (0, 1))
    gm = identity_gamma(sig)
    assert phi_generator(gm, 0, "X") == SuperElement.x(sig, 0)
    assert phi_generator(gm, 0, "Y") == SuperElement.d(sig, 0)


def test_phi_column_word():
    sig = Signature("minus", (0, 1, 1))
    gm = GammaMatrix(sig, ((1,), (-1,), (0,)))
    assert phi_generator(gm, 0, "X") == word_element(sig, [("x", 0), ("d", 1)])


def test_phi_squared_column():
    # last column (0, ..., 0, 2) with a non-Clifford last row maps to x_n^2
    sig = Signature("minus", (1, 0))
    gm = bidiagonal_matrix(sig, 2, last=2)
    xn = SuperElement.x(sig, 1)
    assert phi_generator(gm, 1, "X") == xn * xn


def test_phi_generator_matches_the_checked_monomial():
    # the column word is built unchecked once the matrix is valid; it equals
    # the element the checked constructor builds, for both kinds
    rng = random.Random(1931)
    matrices = [random_valid_gamma(rng, max_n=5, max_m=4) for _ in range(40)]
    for gm in matrices + list(zeta_matrices(8).values()):
        for col in range(gm.m):
            pairs = tuple((k, 0) if k >= 0 else (0, -k) for k in gm.column(col))
            word = SuperElement.from_mono(gm.sig, pairs)
            assert phi_generator(gm, col, "X") == word
            assert phi_generator(gm, col, "Y") == word.star()


def test_eval_word_relations():
    rng = random.Random(71)
    matrices = [EX_C] + [random_valid_gamma(rng) for _ in range(6)]
    for gm in matrices:
        datum = derive_datum(gm)
        for i in range(gm.m):
            yx = eval_word(gm, [("Y", i), ("X", i)])
            assert yx.degree == tuple(0 for _ in range(gm.m))
            assert yx.image == iota_embed(datum.t[i])
            xy = eval_word(gm, [("X", i), ("Y", i)])
            assert xy.image == iota_embed(tau_apply(datum.sigma[i], datum.t[i]))


def test_eval_word_mu_commutation():
    rng = random.Random(73)
    matrices = [EX_C] + [random_valid_gamma(rng) for _ in range(6)]
    for gm in matrices:
        datum = derive_datum(gm)
        for i in range(gm.m):
            for j in range(gm.m):
                if i == j:
                    continue
                lhs = eval_word(gm, [("X", i), ("Y", j)]).image
                rhs = datum.mu[i][j] * eval_word(gm, [("Y", j), ("X", i)]).image
                assert lhs == rhs


def test_twist_relation():
    rng = random.Random(79)
    for gm in [EX_C] + [random_valid_gamma(rng) for _ in range(4)]:
        datum = derive_datum(gm)
        sig = gm.sig
        r = BaseRingElement(
            sig,
            {
                tuple(rng.randint(0, 2) for _ in range(sig.n)): Fraction(
                    rng.randint(1, 3)
                )
                for _ in range(2)
            },
        )
        for i in range(gm.m):
            X = phi_generator(gm, i, "X")
            assert X * iota_embed(r) == iota_embed(tau_apply(datum.sigma[i], r)) * X


def test_t_central_in_degree_zero():
    datum = derive_datum(EX_C)
    sig = EX_C.sig
    r = BaseRingElement(sig, {(1, 0, 1): Fraction(1), (0, 1, 0): Fraction(2)})
    for t in datum.t:
        assert iota_embed(t) * iota_embed(r) == iota_embed(r) * iota_embed(t)


def test_degree_zero_closure():
    # degree-zero word images round-trip through the base ring
    gm = EX_C
    word = [("Y", 0), ("X", 0), ("X", 1), ("Y", 1)]
    graded = eval_word(gm, word)
    assert graded.degree == (0, 0, 0)
    assert iota_embed(project_zero(graded.image)) == graded.image


def test_gradation_pair():
    gm = EX_C
    datum = derive_datum(gm)
    a = eval_word(gm, [("Y", 0)])
    b = eval_word(gm, [("X", 0)])
    assert gradation_pair(a, b) == datum.t[0]
    # degrees that do not cancel contribute nothing in degree zero
    c = eval_word(gm, [("X", 1)])
    assert gradation_pair(a, c).is_zero
    # pairing a nonzero homogeneous element against its involution is nonzero
    w = eval_word(gm, [("X", 0), ("X", 1)])
    assert not w.is_zero
    assert not gradation_pair(w.star(), w).is_zero


def test_consistency_identity_and_trivial():
    sig = Signature("minus", (0, 1))
    rep = consistency_check(derive_datum(identity_gamma(sig)))
    assert rep.all_pass
    gm1 = GammaMatrix(sig, ((1,), (0,)))
    rep1 = consistency_check(derive_datum(gm1))
    assert rep1.all_pass and not rep1.instances


def test_consistency_failure_is_reported_not_judged():
    # a valid matrix whose triple identity genuinely fails: the check is a
    # diagnostic, not a consistency verdict, and the report says so
    gm = TRIPLE_FAIL
    assert validate_gamma(gm).valid
    rep = consistency_check(derive_datum(gm))
    assert not rep.all_pass
    failing = [inst for inst in rep.instances if not inst.passed]
    assert all(inst.kind == "triple" for inst in failing)
    assert "diagnostic" in rep.note
    # and every pair identity still holds
    assert all(inst.passed for inst in rep.instances if inst.kind == "pair")


def _instances(report):
    return [(inst.kind, inst.indices, inst.passed) for inst in report.instances]


def test_consistency_matches_expanded_oracle_on_random_matrices():
    rng = random.Random(20240607)
    failing = 0
    for sign in ("minus", "plus"):
        for _ in range(600):
            datum = derive_datum(random_valid_gamma(rng, max_n=4, max_m=4, sign=sign))
            got = _instances(consistency_check(datum))
            assert got == expanded_consistency(datum), datum.gm
            assert got == closed_form_consistency(datum.gm), datum.gm
            failing += any(not passed for _, _, passed in got)
    assert failing >= 10


def test_consistency_matches_closed_form_on_large_weyl_entries():
    # entries far beyond what the expanded oracle can multiply out
    rng = random.Random(20261018)
    failing = wide = 0
    for sign in ("minus", "plus"):
        for _ in range(100):
            gm = widen_weyl_entries(random_valid_gamma(rng, max_n=5, max_m=5, sign=sign), rng)
            got = _instances(consistency_check(derive_datum(gm)))
            assert got == closed_form_consistency(gm), gm
            failing += any(not passed for _, _, passed in got)
            wide += gm.max_abs_entry > 100
    assert failing >= 3 and wide >= 100


FIXED_CONSISTENCY = {
    **{f"zeta {f} {p} {q}": zeta_matrix(f, p, q) for f in ("gl", "osp_even", "osp_odd")
       for p, q in ((1, 1), (2, 1), (1, 3), (2, 2), (4, 4))},
    "zeta gl 8 0": zeta_matrix("gl", 8, 0),
    "zeta osp_even 0 5": zeta_matrix("osp_even", 0, 5),
    "identity minus 011": identity_gamma(Signature("minus", (0, 1, 1))),
    "identity plus 1001": identity_gamma(Signature("plus", (1, 0, 0, 1))),
    "triple fail": TRIPLE_FAIL,
    "EX_C": EX_C,
}


@pytest.mark.parametrize("name", sorted(FIXED_CONSISTENCY))
def test_consistency_matches_expanded_oracle_on_fixed_matrices(name):
    datum = derive_datum(FIXED_CONSISTENCY[name])
    got = _instances(consistency_check(datum))
    assert got == expanded_consistency(datum) == closed_form_consistency(datum.gm)


@pytest.mark.parametrize("gm, pair_holds", [
    (TRIPLE_FAIL, True),
    (identity_gamma(Signature("minus", (0, 0, 1))), False),
    (GammaMatrix(Signature("minus", (0,) * 4), ((1, -1),) * 4), False),
], ids=["triple fail", "identity", "dense 2-column"])
def test_consistency_honours_an_asymmetric_mu(gm, pair_holds):
    # a hand-built datum whose mu_12 mu_21 is -1: pair (1, 2) holds only when
    # both of its sides vanish, as on the Clifford rows of the triple matrix
    datum = derive_datum(gm)
    mu = [list(row) for row in datum.mu]
    mu[0][1] = -mu[0][1]
    datum = dataclasses.replace(datum, mu=tuple(tuple(row) for row in mu))
    assert _instances(consistency_check(datum)) == expanded_consistency(datum)
    assert consistency_check(datum).instances[0].passed is pair_holds


def test_consistency_reads_mu_where_columns_share_no_row():
    # every entry of mu flipped at random, so pairs that share no row read -1 too
    rng = random.Random(20261022)
    disjoint_failing = 0
    for _ in range(300):
        datum = derive_datum(random_valid_gamma(rng, max_n=4, max_m=4))
        mu = tuple(tuple(v * rng.choice((-1, 1)) for v in row) for row in datum.mu)
        datum = dataclasses.replace(datum, mu=mu)
        got = _instances(consistency_check(datum))
        assert got == expanded_consistency(datum), datum
        rows = [{r for r, v in enumerate(col) if v} for col in datum.sigma]
        disjoint_failing += sum(
            not passed for kind, (i, j, *_), passed in got
            if kind == "pair" and not rows[i] & rows[j]
        )
    assert disjoint_failing > 20


def test_consistency_computes_only_instances_whose_columns_share_a_row(monkeypatch):
    computed = []
    same = superweyl.datum._same_tensor

    def counting(lhs, rhs, *scalar):
        computed.append(lhs)
        return same(lhs, rhs, *scalar)

    monkeypatch.setattr(superweyl.datum, "_same_tensor", counting)
    for gm in (TRIPLE_FAIL, EX_C, identity_gamma(Signature("minus", (0, 1, 0, 1))),
               zeta_matrix("gl", 4, 2), zeta_matrix("osp_odd", 3, 3)):
        computed.clear()
        report = consistency_check(derive_datum(gm))
        rows = [{r for r, v in enumerate(gm.column(c)) if v} for c in range(gm.m)]
        pairs = [(i, j) for i in range(gm.m) for j in range(i + 1, gm.m)]
        triples = [(i, j, k) for j in range(gm.m) for i, k in pairs if j not in (i, k)]
        assert len(report.instances) == len(pairs) + len(triples)
        assert len(computed) == sum(bool(rows[i] & rows[j]) for i, j in pairs) + sum(
            bool(rows[i] & rows[j] and rows[k] & rows[j]) for i, j, k in triples)


def test_consistency_check_does_not_expand(monkeypatch):
    wide = GammaMatrix(Signature("minus", (0, 1, 0)), ((900, -700, 0), (1, 0, -1), (0, 500, -1000)))
    matrices = (TRIPLE_FAIL, EX_C, wide, zeta_matrix("osp_odd", 3, 2))
    before = [_instances(consistency_check(derive_datum(gm))) for gm in matrices]

    def refuse(*args, **kwargs):
        raise AssertionError("expanded base-ring arithmetic")

    monkeypatch.setattr(superweyl.basering, "tau_apply", refuse)
    monkeypatch.setattr(superweyl.basering, "tau_single", refuse)
    monkeypatch.setattr(BaseRingElement, "__mul__", refuse)
    monkeypatch.setattr(superweyl.datum, "_expand_roots", refuse)
    monkeypatch.setattr(superweyl.basering, "_expand_roots", refuse)
    assert [_instances(consistency_check(derive_datum(gm))) for gm in matrices] == before
    zeta = derive_datum(zeta_matrix("osp_even", 3, 3))
    assert consistency_check(zeta).all_pass
    with pytest.raises(AssertionError, match="expanded base-ring arithmetic"):
        derive_t(wide, 0)


def test_derive_datum_expands_t_only_when_read(monkeypatch):
    dense = GammaMatrix(Signature("minus", (0,) * 6), ((1, -1),) * 6)
    matrices = (TRIPLE_FAIL, dense, zeta_matrix("gl", 3, 1))
    before = [_instances(consistency_check(derive_datum(gm))) for gm in matrices]

    def refuse(*args, **kwargs):
        raise AssertionError("t expanded")

    monkeypatch.setattr(superweyl.datum, "derive_t", refuse)
    assert [_instances(consistency_check(derive_datum(gm))) for gm in matrices] == before
    with pytest.raises(AssertionError, match="t expanded"):
        derive_datum(dense).t
    monkeypatch.undo()
    datum = derive_datum(EX_C)
    assert datum.t == tuple(derive_t(EX_C, c) for c in range(EX_C.m))
    assert datum.t is datum.t
    assert dataclasses.replace(datum, mu=datum.mu).t == datum.t


def test_entry_cap_boundary():
    # past the cap a rendered t_i or word image outgrows int-to-str conversion
    sig = Signature("minus", (0, 1))
    at_cap = GammaMatrix(sig, ((1000, -1000), (1, 0)))
    assert derive_datum(at_cap).sigma == ((1000, 1), (-1000, 0))
    assert str(eval_word(at_cap, [("Y", 0), ("X", 0)]).image)
    for k in (1001, -1001):
        gm = GammaMatrix(sig, ((k, -k), (1, 0)))
        assert validate_gamma(gm).valid
        for call in (derive_datum, lambda gm: phi_generator(gm, 0),
                     lambda gm: is_in_support(gm, (0, 0))):
            with pytest.raises(ResourceCapError, match="= 1001 exceeds the entry cap 1000"):
                call(gm)


def test_derive_t_matches_factor_products():
    # the outer product of row factors equals the product of ring elements,
    # term for term with int coefficients, and renders the same
    rng = random.Random(5)
    matrices = [random_valid_gamma(rng, max_n=4, max_m=3) for _ in range(200)]
    matrices += [widen_weyl_entries(random_valid_gamma(rng, max_n=4, max_m=3), rng, top=4)
                 for _ in range(200)]
    samples = Path(__file__).resolve().parent.parent / "samples"
    matrices += [gamma_from_dict(json.loads(path.read_text()))
                 for path in sorted(samples.glob("*.json"))]
    matrices += [zeta_matrix(family, p, 8 - p) for family in ("gl", "osp_even", "osp_odd")
                 for p in range(9) if (family, p) != ("osp_even", 8)]
    matrices += [GammaMatrix(Signature("minus", (0, 0)), ((k,), (-99,))) for k in (99, 100)]
    for gm in matrices:
        for c in range(gm.m):
            t, expected = derive_t(gm, c), product_t(gm, c)
            assert t.terms == expected.terms
            assert all(type(coeff) is int for coeff in t.terms.values())
            assert str(t) == str(expected)
    assert len(t.terms) == MAX_T_TERMS


def test_t_term_count_is_known_before_expansion():
    # a row factor has a nonzero coefficient per root, plus one for k <= 0
    rng = random.Random(17)
    for _ in range(100):
        gm = widen_weyl_entries(random_valid_gamma(rng, max_n=4, max_m=3), rng, top=9)
        for c in range(gm.m):
            expected = 1
            for k in gm.column(c):
                expected *= k if k > 0 else 1 - k
            assert len(derive_t(gm, c).terms) == expected


def test_t_size_matches_the_per_root_oracle():
    # the closed form against the root-by-root estimate it replaced, on every
    # single entry up to the entry cap and on 1,000 seeded columns
    def check(column):
        terms, digits = _t_size(column)
        want_terms, want_digits = per_root_t_size(column)
        assert terms == want_terms
        assert digits == pytest.approx(want_digits, rel=1e-9, abs=0)

    for k in range(-MAX_ENTRY, MAX_ENTRY + 1):
        check((k,))
    rng = random.Random(29)
    for count in range(1000):
        gm = random_valid_gamma(rng, max_n=4, max_m=1)
        check(widen_weyl_entries(gm, rng).column(0) if count % 2 else gm.column(0))
    # where t_i is small enough to expand, on Weyl rows and on Clifford rows
    # (|k| <= 1), the term count is exact and the estimate bounds the digits
    for parity, entries in ((0, range(-40, 41)), (1, (-1, 1))):
        for k in entries:
            if k:
                t = derive_t(GammaMatrix(Signature("minus", (parity,)), ((k,),)), 0)
                terms, digits = _t_size((k,))
                assert len(t.terms) == terms
                assert sum(len(str(abs(c))) for c in t.terms.values()) <= digits


def test_t_term_cap_boundary(monkeypatch):
    sig = Signature("minus", (0, 0))
    # u (u + 1) ... (u + 99) and (u - 1) ... (u - 99): 100 nonzero coefficients each
    assert len(derive_t(GammaMatrix(sig, ((100,), (-99,))), 0).terms) == MAX_T_TERMS

    def refuse(*args):
        raise AssertionError("a row factor was expanded")

    monkeypatch.setattr(superweyl.datum, "_expand_roots", refuse)
    monkeypatch.setattr(superweyl.datum, "_per_index", refuse)
    over = GammaMatrix(Signature("minus", (0, 0, 0)), ((1, 0), (0, 100), (0, -100)))
    with pytest.raises(ResourceCapError, match="t_2 has 10100 terms, over the term cap 10000"):
        derive_t(over, 1)
    with pytest.raises(ResourceCapError, match="t_1 has 10001 terms, over the term cap 10000"):
        derive_t(GammaMatrix(sig, ((73,), (-136,))), 0)
    monkeypatch.undo()
    datum = derive_datum(over)
    with pytest.raises(ResourceCapError, match="t_2 has 10100 terms"):
        datum.t
    assert consistency_check(datum).all_pass


def test_t_digit_cap_boundary(monkeypatch):
    # estimates 9,997,036 and 10,001,587 digits: u (u + 1) ... (u + 552)
    # times (u - 1) ... (u - 13), and the same with 468 and 19 roots
    sig = Signature("minus", (0, 0))
    assert MAX_T_DIGITS == 10_000_000
    assert len(derive_t(GammaMatrix(sig, ((553,), (-13,))), 0).terms) == 553 * 14

    def refuse(*args):
        raise AssertionError("a row factor was expanded")

    monkeypatch.setattr(superweyl.datum, "_expand_roots", refuse)
    monkeypatch.setattr(superweyl.datum, "_per_index", refuse)
    for column, estimate in (((468,), (-19,)), "1000158[78]"), (((1000,), (-9,)), "2576164[45]"):
        with pytest.raises(ResourceCapError,
                           match=f"t_1 has about {estimate} digits, over the digit cap 10000000"):
            derive_t(GammaMatrix(sig, column), 0)
    # a Clifford row adds little; the term cap is still checked first
    clifford = GammaMatrix(Signature("minus", (0, 0, 1)), ((468,), (-19,), (1,)))
    with pytest.raises(ResourceCapError, match="t_1 has about"):
        derive_t(clifford, 0)
    over = GammaMatrix(Signature("minus", (0, 0)), ((1000,), (-10,)))
    with pytest.raises(ResourceCapError, match="t_1 has 11000 terms, over the term cap 10000"):
        derive_t(over, 0)


def test_json_round_trip():
    d = gamma_to_dict(EX_C)
    assert d == {
        "sign": "minus",
        "parity": [0, 1, 1],
        "gamma": [[1, 3, 0], [1, 0, -1], [1, -1, 1]],
    }
    gm = gamma_from_dict(d)
    assert gm == EX_C


def test_word_degree_cap_boundary():
    # column degrees 1000, 250 and 1; letters are ordered so that each
    # product contracts at most one many-term factor
    sig = Signature("minus", (0, 1))
    gm = GammaMatrix(sig, ((1000, -250, 0), (0, 0, 1)))
    assert gm.column_degrees == (1000, 250, 1)
    at_cap = [("Y", 1), ("X", 1), ("Y", 0), ("X", 0)]
    graded = eval_word(gm, at_cap)
    assert graded.degree == (0, 0, 0) and len(graded.image.terms) == 1001
    assert str(graded.image)
    for over in (at_cap + [("X", 2)], [("X", 2)] * (MAX_WORD_DEGREE + 1)):
        with pytest.raises(ResourceCapError, match="word degree 2501 exceeds the word-degree cap"):
            eval_word(gm, over)
    assert eval_word(gm, [("X", 2)] * MAX_WORD_DEGREE).degree == (0, 0, MAX_WORD_DEGREE)


def test_word_degree_cap_counts_every_row():
    sig = Signature("minus", (0, 0))
    gm = GammaMatrix(sig, ((-700, 5), (600, -5)))
    assert gm.column_degrees == (1300, 10)
    assert eval_word(gm, [("X", 1)] * 119 + [("Y", 0), ("X", 1)]).degree == (-1, 120)
    with pytest.raises(ResourceCapError):
        eval_word(gm, [("Y", 0), ("X", 0)])
    # a generator is consumed once, and a bad letter still raises IndexError
    assert eval_word(gm, iter([("X", 1)])).degree == (0, 1)
    with pytest.raises(IndexError):
        eval_word(gm, [("X", 2)])


@pytest.mark.parametrize("k, word", [
    (1000, "YX"), (1000, "XY"), (625, "YYYX"), (625, "XXXY"), (500, "YYYYX"),
    (500, "XXYYY"),
], ids=lambda v: str(v))
def test_largest_admitted_one_by_one_words_render(k, word):
    # the cap stops words short of coefficients too long to print; d^k x^k with
    # k = 1000 holds the largest of these (2,593 digits)
    for sign, parity in (("minus", 0), ("plus", 1)):
        gm = GammaMatrix(Signature(sign, (parity,)), ((k,),))
        letters = [(kind, 0) for kind in word]
        assert sum(gm.column_degrees[0] for _ in letters) <= MAX_WORD_DEGREE
        text = str(eval_word(gm, letters).image)
        assert text


def test_eval_word_matches_letter_by_letter_product():
    rng = random.Random(1807)
    clifford_rows = 0
    for sign in ("minus", "plus"):
        for _ in range(400):
            gm = random_valid_gamma(rng, sign=sign)
            clifford_rows += len(gm.sig.clifford_indices)
            word = [(rng.choice("XY"), rng.randrange(gm.m)) for _ in range(rng.randint(0, 5))]
            graded = eval_word(gm, word)
            assert (graded.degree, graded.image) == product_eval_word(gm, word)
    assert clifford_rows
    gm = GammaMatrix(Signature("minus", (0,)), ((7,),))
    assert (eval_word(gm, [("Y", 0), ("X", 0)]).image
            == product_eval_word(gm, [("Y", 0), ("X", 0)])[1])


def test_eval_word_matches_the_run_fold():
    rng = random.Random(2024)
    matrices = [random_valid_gamma(rng, max_n=5, max_m=4, sign=sign)
                for sign in ("minus", "plus") for _ in range(150)]
    matrices += list(zeta_matrices(8).values())
    for gm in matrices:
        for _ in range(3):
            word = [(rng.choice("XY"), rng.randrange(gm.m)) for _ in range(rng.randint(0, 5))]
            assert eval_word(gm, word).image.terms == run_fold_word_terms(
                gm.sig, eval_word_codes(gm, word)), (gm, word)


def test_eval_word_takes_no_element_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("element product taken")

    monkeypatch.setattr(SuperElement, "__mul__", refuse)
    gm = GammaMatrix(Signature("minus", (0,)), ((625,),))
    graded = eval_word(gm, [("Y", 0), ("Y", 0), ("X", 0), ("X", 0)])
    # d^1250 x^1250
    assert graded.degree == (0,) and len(graded.image.terms) == 1251
    with pytest.raises(ValueError):
        eval_word(gm, [("Z", 0)])
    with pytest.raises(IndexError):
        eval_word(gm, [("X", -1)])


def test_derive_t_holds_int_coefficients():
    t = derive_t(EX_C, 1)
    assert t.terms and all(type(c) is int for c in t.terms.values())
    assert t == BaseRingElement(EX_C.sig, {e: Fraction(c) for e, c in t.terms.items()})


def test_consistency_instance_cap_boundary():
    # 64 columns, the widest zeta matrix, give m(m-1)/2 pairs and
    # m(m-1)(m-2)/2 triples: exactly the cap
    at_cap = identity_gamma(Signature("minus", (0,) * 64))
    report = consistency_check(derive_datum(at_cap))
    assert len(report.instances) == MAX_CONSISTENCY_INSTANCES and report.all_pass
    over = identity_gamma(Signature("minus", (0,) * 65))
    with pytest.raises(ResourceCapError,
                       match="65 columns give 133120 consistency instances, over the cap 127008"):
        consistency_check(derive_datum(over))


def test_products_of_mismatched_signatures_raise():
    a, b = eval_word(EX_C, [("X", 0)]), eval_word(TRIPLE_FAIL, [("X", 0)])
    for call in (lambda: gradation_pair(a, b), lambda: super_bracket(a.image, b.image, 0, 1)):
        with pytest.raises(SignatureMismatchError, match="operands live in different signatures"):
            call()
