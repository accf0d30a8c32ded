import collections
import functools
import itertools
import json
import random
from operator import mul
from pathlib import Path

import pytest

import superweyl.support
from superweyl import (
    GammaMatrix,
    InvalidGammaError,
    ResourceCapError,
    Signature,
    enumerate_support,
    gamma_from_dict,
    gamma_rank_kernel,
    gamma_to_dict,
    identity_gamma,
    injectivity_report,
    is_in_support,
    oracle_membership,
    verify_witness,
)
from superweyl.cli import run
from helpers import (
    bidiagonal_matrix,
    dfs_arrange,
    exhaustive_scan,
    exhaustive_witness,
    inj_example_matrices,
    list_injectivity_report,
    random_degree_vector,
    random_valid_gamma,
    zeta_matrices,
)

EX_A = GammaMatrix(Signature("minus", (1,)), ((1, -1),))
EX_B = GammaMatrix(Signature("minus", (1, 1)), ((1, 0), (1, -1)))
EX_C = GammaMatrix(Signature("minus", (0, 1, 1)), ((1, 3, 0), (1, 0, -1), (1, -1, 1)))
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
# row 1 Clifford, row 2 Weyl; (17s, 16s, -19s, 17s + 1) is a member for every s
MIXED = GammaMatrix(Signature("minus", (1, 0)), ((1, 0, 0, -1), (0, -1, 1, 0)))
# rows 1 and 3 Clifford; searches for deep points near multiples of (1, 1, 0, 0)
# repeat a period, then exhaust some of the repeated frames
DEEP_BACKTRACK = GammaMatrix(
    Signature("plus", (0, 1, 0)), ((-1, 1, -1, 1), (1, -1, 0, -2), (1, -1, -1, 1)))
# row 3 Weyl: the first column touches no Clifford row, so its letters repeat
# as a period of one, and then some non-members exhaust the repeated frames
WEYL_RUN_BACKTRACK = GammaMatrix(
    Signature("plus", (0, 0, 1, 0)), ((0, -1, 1, 1), (0, 1, 0, 1), (2, 0, -2, 0), (0, 1, -1, 1)))
# rows 1, 2 and 4 Clifford; the member (-11, -6, -5, -11) repeats a period,
# exhausts some of the repeated frames, then finds its witness
PERIOD_BACKTRACK = GammaMatrix(
    Signature("plus", (0, 0, 1, 0, 1)),
    ((1, 1, -1, -1), (0, 1, 1, -1), (-2, 0, -2, 0), (1, -1, -1, 0), (-1, -1, 0, -2)))


def all_clifford_bidiagonal(n):
    return bidiagonal_matrix(Signature("minus", (1,) * n), n, last=1)


def all_weyl_bidiagonal(n):
    return bidiagonal_matrix(Signature("minus", (0,) * n), n, last=1)


def sample(name):
    return gamma_from_dict(json.loads((SAMPLES / f"{name}.json").read_text()))


def test_band_support():
    pts = {g for g, _ in enumerate_support(EX_A, [(-5, 5), (-5, 5)])}
    assert pts == {
        (a, b) for a in range(-5, 6) for b in range(-5, 6) if abs(a - b) <= 1
    }


def test_nine_point_support():
    pts = {g for g, _ in enumerate_support(EX_B, [(-4, 4), (-4, 4)])}
    assert pts == {
        (0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, 2), (-1, -2),
    }


def test_membership_worked_example():
    witness = is_in_support(EX_C, (1, 2, 1))
    assert witness is not None
    assert verify_witness(EX_C, (1, 2, 1), witness)
    # first witness in ascending column order: columns 1, 2, 3, 2 (1-based)
    assert witness == ((0, 1), (1, 1), (2, 1), (1, 1))
    assert is_in_support(EX_C, (2, 1, 0)) is None


def test_deep_band_query_needs_no_recursion():
    # 1200 letters: deeper than the interpreter's default recursion limit
    assert is_in_support(EX_A, (600, 600)) == ((0, 1), (1, 1)) * 600


def test_degree_vectors_and_boxes_must_be_ints():
    with pytest.raises(ValueError):
        is_in_support(EX_A, (1.7, True))
    with pytest.raises(ValueError):
        oracle_membership(EX_A, (1, "1"))
    with pytest.raises(ValueError):
        enumerate_support(EX_A, [(-1.5, 1.9), (-1, 1)])


def test_short_degree_vector_refused():
    message = "degree vector has length 2, expected 3"
    with pytest.raises(ValueError, match=message):
        is_in_support(EX_C, (1, 2))
    with pytest.raises(ValueError, match=message):
        verify_witness(EX_C, (1, 2), ((0, 1), (1, 1), (1, 1)))


def test_zero_vector_trivial_witness():
    assert is_in_support(EX_C, (0, 0, 0)) == ()
    assert oracle_membership(EX_C, (0, 0, 0))


def test_no_clifford_rows_means_full_support():
    sig = Signature("minus", (0, 0))
    gm = GammaMatrix(sig, ((1, 0), (-1, 2)))
    pts = {g for g, _ in enumerate_support(gm, [(-2, 2), (-2, 2)])}
    assert pts == {(a, b) for a in range(-2, 3) for b in range(-2, 3)}


def test_witnesses_from_enumeration_verify():
    for gm, box in ((EX_B, [(-3, 3), (-3, 3)]), (EX_C, [(-2, 2), (-2, 2), (-2, 2)])):
        for g, witness in enumerate_support(gm, box):
            assert verify_witness(gm, g, witness)


def test_support_symmetric_under_negation():
    rng = random.Random(83)
    for _ in range(40):
        gm = random_valid_gamma(rng)
        g = random_degree_vector(rng, gm.m, max_total=4)
        member = is_in_support(gm, g) is not None
        mirrored = is_in_support(gm, tuple(-v for v in g)) is not None
        assert member == mirrored


def test_clifford_row_containment():
    for gm, box in ((EX_A, [(-4, 4)] * 2), (EX_B, [(-4, 4)] * 2), (EX_C, [(-2, 2)] * 3)):
        for g, _ in enumerate_support(gm, box):
            image = gm.apply(g)
            for r in range(gm.n):
                if gm.sig.is_clifford(r):
                    assert abs(image[r]) <= 1


def test_pattern_search_agrees_with_image_oracle():
    rng = random.Random(89)
    for _ in range(60):
        gm = random_valid_gamma(rng)
        g = random_degree_vector(rng, gm.m, max_total=5)
        assert (is_in_support(gm, g) is not None) == oracle_membership(gm, g)


def test_oracle_membership_deep_query():
    # 1,200 letters: one stack level each, past the default recursion limit
    band = Path(__file__).resolve().parent.parent / "samples" / "band.json"
    gm = gamma_from_dict(json.loads(band.read_text()))
    assert oracle_membership(gm, (600, 600), cap=2000) is True


def test_membership_requires_valid_matrix():
    gm = GammaMatrix(Signature("minus", (1,)), ((2,),))
    with pytest.raises(InvalidGammaError):
        is_in_support(gm, (1,))


def test_resource_caps():
    with pytest.raises(ResourceCapError):
        enumerate_support(EX_A, [(-100, 100), (-100, 100)], cap=1000)
    with pytest.raises(ResourceCapError):
        oracle_membership(EX_A, (20, 20))


def test_witness_cap_boundary():
    cap = superweyl.support.MAX_WITNESS_LETTERS
    weyl = GammaMatrix(Signature("minus", (0, 0)), ((1, 0), (0, 1)))
    at_cap = (cap - 1, -1)
    witness = is_in_support(weyl, at_cap)
    assert len(witness) == cap and verify_witness(weyl, at_cap, witness)
    with pytest.raises(ResourceCapError, match="exceeds the witness cap"):
        is_in_support(weyl, (cap, -1))
    box = [(cap - 2, cap - 1), (-1, -1)]
    assert [g for g, _ in enumerate_support(weyl, box)] == [(cap - 2, -1), at_cap]
    with pytest.raises(ResourceCapError, match="exceeds the witness cap"):
        enumerate_support(weyl, [(cap - 1, cap), (-1, -1)])
    # injectivity builds no witness, and these points touch no Clifford row,
    # so none is searched and the witness cap does not apply
    assert injectivity_report(weyl, box).points == [(cap - 2, -1), at_cap]
    assert injectivity_report(weyl, [(cap - 1, cap), (-1, -1)]).points == [at_cap, (cap, -1)]
    # containment is decided first: a point off the Clifford bounds is no member
    assert is_in_support(EX_A, (cap, -cap)) is None


def test_huge_head_entry_is_refused_before_any_witness_is_built():
    # the branch head (10**12,) alone would be a witness of 10**12 letters
    weyl = GammaMatrix(Signature("minus", (0, 0)), ((1, 0), (0, 1)))
    for last, first_size in (((0, 0), 10**12), ((-1, 1), 10**12 + 1)):
        with pytest.raises(ResourceCapError, match=rf"\|g\| = {first_size} exceeds the witness cap"):
            enumerate_support(weyl, [(10**12, 10**12), last])


def reference_scan(gm, box, even_lattice=False):
    """Every box point in product order, decided one at a time."""
    found = []
    for g in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if even_lattice and sum(g) % 2:
            continue
        witness = is_in_support(gm, g)
        if witness is not None:
            found.append((g, witness))
    return found


def random_box(rng, m, shape):
    if shape == "symmetric":
        return [(-r, r) for r in (rng.randint(0, 3) for _ in range(m))]
    if shape == "positive":
        return [(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(1, 2) for _ in range(m))]
    return [(lo, rng.randint(lo, 3)) for lo in (rng.randint(-3, 2) for _ in range(m))]


@pytest.mark.parametrize("even_lattice", [False, True], ids=["all", "even"])
@pytest.mark.parametrize("shape", ["symmetric", "asymmetric", "positive"])
def test_enumeration_matches_reference_scan(shape, even_lattice):
    rng = random.Random(f"{shape}-{even_lattice}")
    for _ in range(25):
        gm = random_valid_gamma(rng, max_n=4)
        box = random_box(rng, gm.m, shape)
        assert enumerate_support(gm, box, even_lattice) == reference_scan(gm, box, even_lattice)


def test_enumeration_matches_reference_on_samples():
    for gm, box in ((EX_A, [(-4, 3), (-2, 5)]), (EX_B, [(-4, 4), (-1, 3)]),
                    (EX_C, [(-2, 3), (-3, 2), (-2, 2)])):
        for even_lattice in (False, True):
            assert enumerate_support(gm, box, even_lattice) == reference_scan(gm, box, even_lattice)


def test_letters_off_the_clifford_rows_come_in_column_order():
    # row 1 is Clifford, row 2 Weyl; columns 2 and 3 have no Clifford entry
    gm = GammaMatrix(Signature("minus", (1, 0)), ((1, 0, 0), (0, 1, -1)))
    expected = ((1, 1), (1, 1), (2, -1), (2, -1), (2, -1))
    assert is_in_support(gm, (0, 2, -3)) == expected
    found = dict(enumerate_support(gm, [(0, 0), (0, 2), (-3, 0)]))
    assert found[(0, 2, -3)] == expected
    weyl = GammaMatrix(Signature("minus", (0, 0)), ((1, 0), (-1, 2)))
    found = dict(enumerate_support(weyl, [(-2, 2), (-2, 2)]))
    assert found[(-2, 1)] == ((0, -1), (0, -1), (1, 1))


def test_box_cap_checked_before_any_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("a point was scanned")

    monkeypatch.setattr(superweyl.support, "_contained_branches", refuse)
    monkeypatch.setattr(superweyl.support, "_arrange", refuse)
    with pytest.raises(ResourceCapError, match="box holds 40401 candidate points"):
        enumerate_support(EX_A, [(-100, 100), (-100, 100)], cap=1000)


def test_no_memo_carries_over_between_enumerations():
    # same shape and letter sets, different Clifford rows: a failed state
    # remembered from one matrix would be wrong for the other
    other = GammaMatrix(Signature("minus", (1, 0)), ((1, 0), (1, -1)))
    box = [(-3, 3), (-3, 3)]
    fresh = {gm: reference_scan(gm, box) for gm in (EX_B, other)}
    for gm in (EX_B, other, EX_B, other):
        assert enumerate_support(gm, box) == fresh[gm]


def test_rank_kernel_examples():
    rank, kernel = gamma_rank_kernel(EX_A)
    assert rank == 1 and kernel == [(1, 1)]
    sig = Signature("minus", (0, 1))
    rank, kernel = gamma_rank_kernel(identity_gamma(sig))
    assert rank == 2 and kernel == []
    for gm in inj_example_matrices().values():
        rank, kernel = gamma_rank_kernel(gm)
        assert rank == gm.m and kernel == []


def test_rank_kernel_random_consistency():
    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        sig = Signature("minus", (0,) * n)
        rows = tuple(
            tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)
        )
        gm = GammaMatrix(sig, rows)
        rank, kernel = gamma_rank_kernel(gm)
        assert rank + len(kernel) == m
        for vec in kernel:
            assert any(vec)
            assert gm.apply(vec) == (0,) * n


def test_injectivity_reports_for_example_matrices(tmp_path, capsys):
    for name, gm in inj_example_matrices().items():
        report = injectivity_report(gm, [(-3, 3)] * gm.m)
        assert report.rank == gm.m
        assert report.kernel == []
        assert report.globally_injective
        assert report.gamma_distinct_on_box
        assert report.p_gamma_zero_fiber
        assert report.to_dict()["clifford_containment"] is True
        assert report.passed
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(gamma_to_dict(gm)))
        assert run(["injectivity", str(path), "--box", ",".join(["-3:3"] * gm.m)]) == 0
        assert "Clifford containment: yes\n" in capsys.readouterr().out


def test_projected_distinctness_is_data_not_gate():
    # coordinates -1 and 1 collide mod 2, so set-distinctness of projected
    # images fails for the closing-column shapes even though they are
    # injective; the zero-fiber condition is the operative one
    reports = {
        name: injectivity_report(gm, [(-3, 3)] * gm.m)
        for name, gm in inj_example_matrices().items()
    }
    assert reports["alpha"].p_gamma_distinct_on_box
    assert not reports["beta"].p_gamma_distinct_on_box
    assert reports["beta"].passed


def test_injectivity_for_presentation_matrices():
    from superweyl import zeta_matrix

    for family, p, q in (("gl", 2, 1), ("osp_even", 1, 2), ("osp_odd", 2, 1)):
        gm = zeta_matrix(family, p, q)
        report = injectivity_report(gm, [(-3, 3)] * gm.m)
        assert report.rank == gm.m
        assert report.passed


def test_injectivity_fails_for_rank_deficient_band():
    report = injectivity_report(EX_A, [(-3, 3), (-3, 3)])
    assert report.rank == 1
    assert not report.globally_injective
    assert not report.gamma_distinct_on_box
    assert not report.passed


def count_exhausted_states(monkeypatch, call):
    """(result of call(), states the search exhausted): the sizes of every
    failed-state memo the search was handed."""
    memos = {}
    search = superweyl.support._arrange

    def recording(letters, counts, failed, *masks):
        memos[id(failed)] = failed
        return search(letters, counts, failed, *masks)

    monkeypatch.setattr(superweyl.support, "_arrange", recording)
    result = call()
    monkeypatch.setattr(superweyl.support, "_arrange", search)
    return result, sum(map(len, memos.values()))


@pytest.mark.parametrize("even_lattice", [False, True], ids=["all", "even"])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_witnesses_match_exhaustive_search(sign, even_lattice):
    rng = random.Random(f"first-touch-{sign}-{even_lattice}")
    for _ in range(100):
        gm = random_valid_gamma(rng, max_n=5, max_m=4, sign=sign)
        radius = 3 if gm.m <= 3 else 2
        box = [(-radius, radius)] * gm.m
        expected, _ = exhaustive_scan(gm, box, even_lattice)
        assert enumerate_support(gm, box, even_lattice) == expected
        for _ in range(5):
            g = random_degree_vector(rng, gm.m, max_total=8)
            assert is_in_support(gm, g) == exhaustive_witness(gm, g)


@pytest.mark.parametrize("gm, radius, members, exhausted", [
    (all_clifford_bidiagonal(5), 3, 229, 2070),
    (all_weyl_bidiagonal(4), 3, 2401, 0),
    (sample("three_column"), 6, 59, 146),
    (sample("nine_point"), 20, 9, 4),
], ids=["clifford5", "weyl4", "three_column", "nine_point"])
def test_pinned_box_scans_match_exhaustive_search(monkeypatch, gm, radius, members, exhausted):
    box = [(-radius, radius)] * gm.m
    expected, states = exhaustive_scan(gm, box)
    assert len(expected) == members and states == exhausted
    found, states = count_exhausted_states(monkeypatch, lambda: enumerate_support(gm, box))
    assert found == expected and states == 0
    assert injectivity_report(gm, box).points == [g for g, _ in expected]


def test_first_touch_exhausts_no_state(monkeypatch):
    for n in (5, 6):
        gm = all_clifford_bidiagonal(n)
        _, states = count_exhausted_states(
            monkeypatch, lambda: enumerate_support(gm, [(-3, 3)] * n))
        assert states == 0
    for s in (1, 2):
        g = (17 * s, 16 * s, -19 * s, 17 * s + 1)
        witness, states = count_exhausted_states(monkeypatch, lambda: is_in_support(MIXED, g))
        assert states == 0 and verify_witness(MIXED, g, witness)
    failed = set()
    assert exhaustive_witness(MIXED, (17, 16, -19, 18), failed) == is_in_support(MIXED, (17, 16, -19, 18))
    assert failed  # the search without the rule backs off from whole subtrees


def test_search_still_backtracks(monkeypatch):
    # all rows Clifford: the first touch fixes the first sign of every row,
    # yet one state of these members still fails and is remembered
    gm = GammaMatrix(Signature("minus", (1, 1, 1)), ((0, -1, 1), (1, -1, -1), (-1, 0, 1)))
    for g in ((2, 1, 1), (-2, -1, -1)):
        failed = set()
        expected = exhaustive_witness(gm, g, failed)
        witness, states = count_exhausted_states(monkeypatch, lambda: is_in_support(gm, g))
        assert witness is not None and witness == expected
        assert states == len(failed) == 1


class RecordingCounts(list):
    """Remaining counts that log each update as (index, old, new)."""

    def __init__(self, values):
        super().__init__(values)
        self.log = []

    def __setitem__(self, index, value):
        self.log.append((index, self[index], value))
        super().__setitem__(index, value)


def repeated_spans(counts):
    """The remaining letter counts (before, after) of each step in which the
    search took two or more copies of a letter at once, that is, repeated a
    period; a step that takes from several letters is one span."""
    remaining = sum(counts) + sum(old - new for _, old, new in counts.log)
    spans = []
    taking = False
    for _, old, new in counts.log:
        if old - new >= 2:
            if not taking:
                spans.append([remaining, remaining])
            spans[-1][1] = remaining + new - old
        taking = old - new >= 2
        remaining += new - old
    return [tuple(span) for span in spans]


def compare_with_one_letter_search(search, letters, counts, failed, masks, seen):
    """Run ``search`` (``_arrange``) and ``dfs_arrange`` on copies of the same
    input and check the witness, the memo and the counts left; tally in
    ``seen``."""
    expected_counts, expected_failed = list(counts), set(failed)
    expected = dfs_arrange(letters, expected_counts, expected_failed, *masks)
    recording = RecordingCounts(counts)
    handed = len(failed)
    witness = search(letters, recording, failed, *masks)
    assert (witness, list(recording), failed) == (expected, expected_counts, expected_failed)
    seen["handed a memo"] += bool(handed)
    seen["backtracked"] += len(failed) > handed
    seen["repeated"] += bool(repeated_spans(recording))
    return witness


def deep_points(rng, gm, bases=4):
    """Contained points s * base + d, s in 2..40 and d in {-1, 0, 1}^m, for a
    few nonzero bases in [-2, 2]^m on which every Clifford row vanishes."""
    cliff = gm.clifford_view[0]
    kernel = [b for b in itertools.product(range(-2, 3), repeat=gm.m)
              if any(b) and not any(sum(map(mul, row, b)) for row in cliff)]
    for base in rng.sample(kernel, min(bases, len(kernel))):
        s = rng.randint(2, 40)
        for d in itertools.product((-1, 0, 1), repeat=gm.m):
            g = tuple(s * b + e for b, e in zip(base, d))
            if all(abs(sum(map(mul, row, g))) <= 1 for row in cliff):
                yield g


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_period_repeats_match_the_one_letter_search(sign):
    # one memo per matrix and sign pattern, as the membership walk shares it,
    # so later searches are handed non-empty memos
    rng = random.Random(f"period-{sign}")
    seen = collections.Counter()
    matrices = [random_valid_gamma(rng, max_n=5, max_m=4, sign=sign) for _ in range(200)]
    if sign == "plus":
        matrices += [DEEP_BACKTRACK, WEYL_RUN_BACKTRACK, PERIOD_BACKTRACK]
    for gm in matrices:
        memos = collections.defaultdict(set)
        for g in deep_points(rng, gm):
            masks = superweyl.support._sign_masks(sum(map(mul, row, g)) for row in gm.clifford_view[0])
            failed = memos[tuple((v > 0) - (v < 0) for v in g)]
            letters = superweyl.support._letters(gm, g)
            counts = [abs(v) for v in g if v]
            witness = compare_with_one_letter_search(
                superweyl.support._arrange, letters, counts, failed, masks, seen)
            if witness is not None:
                assert verify_witness(gm, g, witness)
    assert seen["repeated"] > 100, seen
    if sign == "plus":
        assert seen["backtracked"] > 10 and seen["handed a memo"] > 10, seen


def test_enumeration_over_deep_boxes_matches_the_one_letter_search(monkeypatch):
    seen = collections.Counter()
    search = superweyl.support._arrange
    monkeypatch.setattr(
        superweyl.support, "_arrange",
        lambda letters, counts, failed, *masks: compare_with_one_letter_search(
            search, letters, counts, failed, masks, seen))
    rng = random.Random("deep-boxes")
    cases = [
        (sample("band"), [(0, 40), (0, 40)]),
        (MIXED, [(15, 18), (14, 17), (-19, -16), (15, 18)]),
        (DEEP_BACKTRACK, [(-9, -7), (-9, -7), (-1, 1), (-1, 1)]),
        (WEYL_RUN_BACKTRACK, [(20, 22), (-1, 1), (-1, 1), (-1, 1)]),
        (PERIOD_BACKTRACK, [(-12, -10), (-7, -5), (-6, -4), (-12, -10)]),
    ]
    for _ in range(40):
        gm = random_valid_gamma(rng, max_n=5, max_m=4, sign=rng.choice(["minus", "plus"]))
        for g in itertools.islice(deep_points(rng, gm, bases=1), 1):
            cases.append((gm, [(v - 1, v + 1) for v in g]))
    for gm, box in cases:
        enumerate_support(gm, box)
    assert seen["repeated"] > 100 and seen["backtracked"] and seen["handed a memo"], seen


def test_search_backtracks_through_a_repeated_period():
    # the search for the member (-11, -6, -5, -11) repeats a period in one
    # step, exhausts frames that step put on its stack, and then finds the
    # same witness as the search that places one letter at a time
    g = (-11, -6, -5, -11)
    letters = superweyl.support._letters(PERIOD_BACKTRACK, g)
    masks = superweyl.support._sign_masks(
        sum(map(mul, row, g)) for row in PERIOD_BACKTRACK.clifford_view[0])
    expected_counts, expected_failed = [11, 6, 5, 11], set()
    expected = dfs_arrange(letters, expected_counts, expected_failed, *masks)
    counts, failed = RecordingCounts([11, 6, 5, 11]), set()
    witness = superweyl.support._arrange(letters, counts, failed, *masks)
    assert witness == expected and verify_witness(PERIOD_BACKTRACK, g, witness)
    assert counts == expected_counts and failed == expected_failed and len(failed) == 30
    spans = repeated_spans(counts)
    assert spans == [(20, 8)]
    # 12 of the exhausted states belong to repeated frames: 20 to 9 letters left
    assert sum(after < sum(state[0]) <= before for state in failed for before, after in spans) == 12
    assert is_in_support(PERIOD_BACKTRACK, g) == witness


@pytest.mark.parametrize("depth", [10, 1000, 50000])
def test_a_deep_band_search_updates_the_counts_a_fixed_number_of_times(depth):
    # band.json alternates its two letters: one update per letter placed one
    # at a time, one per letter of the period for all the repeats together
    gm = sample("band")
    counts = RecordingCounts([depth, depth])
    witness = superweyl.support._arrange(superweyl.support._letters(gm, (depth, depth)), counts, set(), 0, 0)
    assert witness == ((0, 1), (1, 1)) * depth
    assert counts == [0, 0] and len(counts.log) == 8


def test_witness_check_runs_only_when_the_box_could_pass_the_cap(monkeypatch):
    def refuse(g):
        raise AssertionError("a point was checked against the witness cap")

    monkeypatch.setattr(superweyl.support, "_require_witness_size", refuse)
    cap = superweyl.support.MAX_WITNESS_LETTERS
    weyl = GammaMatrix(Signature("minus", (0, 0)), ((1, 0), (0, 1)))
    for gm, box in ((all_weyl_bidiagonal(4), [(-3, 3)] * 4),
                    (all_clifford_bidiagonal(5), [(-3, 3)] * 5),
                    (weyl, [(cap - 2, cap - 1), (-1, -1)])):
        assert enumerate_support(gm, box) == exhaustive_scan(gm, box)[0]
    with pytest.raises(AssertionError, match="checked against the witness cap"):
        enumerate_support(weyl, [(cap - 1, cap), (-1, -1)])


def test_enumeration_letter_cap_boundary(monkeypatch):
    weyl = GammaMatrix(Signature("minus", (0,)), ((1,),))
    cap = superweyl.support.MAX_ENUM_LETTERS
    # ten witnesses of 99,991..100,000 letters: 999,955 letters in all
    top = superweyl.support.MAX_WITNESS_LETTERS
    found = enumerate_support(weyl, [(top - 9, top)])
    assert sum(len(w) for _, w in found) == 999_955 <= cap
    with pytest.raises(ResourceCapError, match=f"exceed the enumeration cap of {cap} letters"):
        enumerate_support(weyl, [(top - 10, top)])
    monkeypatch.setattr(superweyl.support, "MAX_ENUM_LETTERS", 10)
    assert [g for g, _ in enumerate_support(weyl, [(0, 4)])] == [(0,), (1,), (2,), (3,), (4,)]
    with pytest.raises(ResourceCapError, match="exceed the enumeration cap of 10 letters"):
        enumerate_support(weyl, [(0, 5)])
    # injectivity builds no witness, so the enumeration cap does not apply
    assert injectivity_report(weyl, [(0, 5)]).points == [(v,) for v in range(6)]
    # only members count: the 19 members of this box hold 44 letters, and
    # its two contained non-members (-1, -1, -1) and (1, 1, 1) 3 letters each
    gm = GammaMatrix(Signature("minus", (1, 1, 1)), ((0, -1, 1), (1, -1, -1), (-1, 0, 1)))
    monkeypatch.setattr(superweyl.support, "MAX_ENUM_LETTERS", 44)
    assert len(enumerate_support(gm, [(-2, 2)] * 3)) == 19
    monkeypatch.setattr(superweyl.support, "MAX_ENUM_LETTERS", 43)
    with pytest.raises(ResourceCapError, match="exceed the enumeration cap of 43 letters"):
        enumerate_support(gm, [(-2, 2)] * 3)


def test_injectivity_builds_no_witness(monkeypatch):
    # no witness is built, so the witness caps that refuse `support enum`
    # here do not apply: 3,001 points whose witnesses hold 4,501,500 letters
    weyl = GammaMatrix(Signature("minus", (0,)), ((1,),))
    expected = [g for g, _ in exhaustive_scan(weyl, [(0, 3000)])[0]]

    def refuse(*args):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(superweyl.support, "_column_order", refuse)
    monkeypatch.setattr(superweyl.support, "_arrange", refuse)
    assert injectivity_report(weyl, [(0, 3000)]).points == expected
    # one point past both caps: 200,000 letters
    assert injectivity_report(weyl, [(0, 200_000)]).points == [(v,) for v in range(200_001)]


def test_injectivity_report_keeps_the_validated_box():
    report = injectivity_report(sample("nine_point"), iter([(-3, 3), (-3, 3)]))
    assert report.box == [(-3, 3), (-3, 3)]
    assert report.to_dict()["box"] == [[-3, 3], [-3, 3]]
    assert report.to_dict()["support_points"] == 9


def test_injectivity_refuses_before_the_elimination(monkeypatch):
    # an invalid matrix and an over-cap box are refused before the rank and
    # kernel are computed, with the same errors as when they were computed first
    invalid = GammaMatrix(Signature("minus", (1,)), ((2,),))
    cases = [(invalid, [(0, 1)], {}), (sample("band"), [(-3, 3), (-3, 3)], {"cap": 48})]
    refusals = []
    for gm, box, kwargs in cases:
        with pytest.raises((InvalidGammaError, ResourceCapError)) as exc:
            injectivity_report(gm, box, **kwargs)
        refusals.append((exc.type, str(exc.value)))
    assert [kind for kind, _ in refusals] == [InvalidGammaError, ResourceCapError]

    def refuse(gm):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(superweyl.support, "gamma_rank_kernel", refuse)
    for (gm, box, kwargs), (kind, message) in zip(cases, refusals):
        with pytest.raises(kind) as exc:
            injectivity_report(gm, box, **kwargs)
        assert str(exc.value) == message


def test_search_depth_is_capped_in_injectivity_too(monkeypatch):
    monkeypatch.setattr(superweyl.support, "MAX_WITNESS_LETTERS", 10)
    band = sample("band")
    for call in (is_in_support, enumerate_support, injectivity_report):
        args = ((6, 5),) if call is is_in_support else ([(6, 6), (5, 5)],)
        with pytest.raises(ResourceCapError, match=r"\|g\| = 11 exceeds the witness cap 10"):
            call(band, *args)


def test_first_point_over_the_witness_cap_is_named(monkeypatch):
    # row 1 Weyl, row 2 Clifford: (11, 0) touches no Clifford row and is a
    # member with no search; (11, 1) is searched
    gm = GammaMatrix(Signature("minus", (0, 1)), ((1, 0), (0, 1)))
    box = [(11, 11), (0, 1)]
    assert [g for g, _ in enumerate_support(gm, box)] == [(11, 0), (11, 1)]
    monkeypatch.setattr(superweyl.support, "MAX_WITNESS_LETTERS", 10)
    with pytest.raises(ResourceCapError, match=r"\|g\| = 11 exceeds the witness cap 10"):
        enumerate_support(gm, box)
    with pytest.raises(ResourceCapError, match=r"\|g\| = 12 exceeds the witness cap 10"):
        injectivity_report(gm, box)
    # searched members before the point over the witness cap count first:
    # (5, 4) and (5, 5) hold 19 letters, and (5, 6) holds 11
    monkeypatch.setattr(superweyl.support, "MAX_ENUM_LETTERS", 15)
    with pytest.raises(ResourceCapError, match="exceed the enumeration cap of 15 letters"):
        enumerate_support(sample("band"), [(5, 5), (4, 6)])


def test_enumeration_cap_stops_the_search_point_by_point(monkeypatch):
    # the head (1,) touches the Clifford row and the last column does not,
    # so every point (1, v) is searched; it holds v + 1 letters
    gm = GammaMatrix(Signature("minus", (1, 0)), ((1, 0), (0, 1)))
    box = [(1, 1), (0, 999)]
    assert [g for g, _ in enumerate_support(gm, [(1, 1), (0, 3)])] == [(1, v) for v in range(4)]
    searched = []
    arrange = superweyl.support._arrange

    def counting(*args):
        searched.append(args)
        return arrange(*args)

    monkeypatch.setattr(superweyl.support, "_arrange", counting)
    monkeypatch.setattr(superweyl.support, "MAX_ENUM_LETTERS", 100)
    # (1, 0) .. (1, 12) hold 91 letters, (1, 13) 14 more: the 14th search is the last
    for call in (enumerate_support, injectivity_report):
        searched.clear()
        with pytest.raises(ResourceCapError, match="exceed the enumeration cap of 100 letters"):
            call(gm, box)
        assert len(searched) == 14


SAMPLE_NAMES = ("band", "identity_1_1", "nine_point", "three_column")


def view_cases():
    """The samples, every zeta matrix of rank 1-8 and 400 seeded matrices."""
    rng = random.Random(20261019)
    return (
        [sample(name) for name in SAMPLE_NAMES]
        + list(zeta_matrices(8).values())
        + [random_valid_gamma(rng, max_n=4, max_m=4) for _ in range(400)]
    )


def test_clifford_view_matches_a_row_scan():
    touching = {True: 0, False: 0}
    for gm in view_cases():
        cliff = [row for r, row in enumerate(gm.rows) if gm.sig.is_clifford(r)]
        rows, plus, minus = gm.clifford_view
        assert rows == tuple(cliff)
        assert len(plus) == len(minus) == gm.m
        for c in range(gm.m):
            assert plus[c] == sum(1 << k for k, row in enumerate(cliff) if row[c] == 1)
            assert minus[c] == sum(1 << k for k, row in enumerate(cliff) if row[c] == -1)
            touches = any(row[c] for row in cliff)
            assert bool(plus[c] or minus[c]) == touches
            touching[touches] += 1
    assert min(touching.values()) > 300


def test_a_matrix_builds_its_clifford_view_once(monkeypatch):
    builds = []
    build = GammaMatrix.clifford_view.func

    def counting(self):
        builds.append(self)
        return build(self)

    view = functools.cached_property(counting)
    view.__set_name__(GammaMatrix, "clifford_view")
    monkeypatch.setattr(GammaMatrix, "clifford_view", view)
    gm = sample("three_column")
    box = [(-2, 2)] * gm.m
    for g in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        is_in_support(gm, g)
    enumerate_support(gm, box)
    injectivity_report(gm, box)
    assert len(builds) == 1 and builds[0] is gm


def test_a_query_never_computes_the_full_image(monkeypatch):
    # only the Clifford rows of the image decide a point
    rng = random.Random(20261020)
    cases = []
    for gm in view_cases():
        for _ in range(4):
            g = random_degree_vector(rng, gm.m)
            cases.append((gm, g, exhaustive_witness(gm, g)))
    members = [(gm, witness) for gm, _, witness in cases if witness is not None]
    searched = sum(
        any(row[c] for r, row in enumerate(gm.rows) if gm.sig.is_clifford(r) for c, _ in witness)
        for gm, witness in members
    )
    assert searched > 500 and len(members) - searched > 500 and len(cases) - len(members) > 300

    def refuse(self, g):
        raise AssertionError("GammaMatrix.apply called")

    monkeypatch.setattr(GammaMatrix, "apply", refuse)
    for gm, g, witness in cases:
        assert is_in_support(gm, g) == witness, (gm, g)


def test_injectivity_report_matches_the_list_oracle():
    rng = random.Random(20261021)
    matrices = (
        [sample(name) for name in SAMPLE_NAMES]
        + [all_weyl_bidiagonal(3), EX_A]
        + [random_valid_gamma(rng) for _ in range(200)]
    )
    # full rank with and without a Clifford row, the short-cut's two cases
    full_rank = {True: [], False: []}
    while min(map(len, full_rank.values())) < 30:
        gm = random_valid_gamma(rng, max_n=4, max_m=3)
        if gamma_rank_kernel(gm)[0] == gm.m:
            full_rank[bool(gm.sig.clifford_indices)].append(gm)
    matrices += full_rank[True][:30] + full_rank[False][:30]
    seen = set()
    for gm in matrices:
        box = [(-2, 2)] * gm.m
        report = injectivity_report(gm, box)
        expected = list_injectivity_report(gm, box)
        assert report.to_dict() == expected.to_dict(), gm
        assert report.points == expected.points, gm
        if not gm.sig.clifford_indices:
            seen.add("no Clifford row")
        if expected.rank == gm.m and report.points:
            seen.add("full rank, Clifford row" if gm.sig.clifford_indices else "full rank, no Clifford row")
        if not expected.p_gamma_zero_fiber:
            seen.add("zero fiber fails")
        if expected.gamma_distinct_on_box and not expected.p_gamma_distinct_on_box:
            seen.add("projection collides")
    assert seen == {"no Clifford row", "zero fiber fails", "projection collides",
                    "full rank, Clifford row", "full rank, no Clifford row"}


def test_full_rank_injectivity_without_a_clifford_row_builds_no_image(monkeypatch):
    gm = all_weyl_bidiagonal(3)
    box = [(-2, 2)] * 3
    expected = list_injectivity_report(gm, box)
    assert expected.rank == gm.m and len(expected.points) == 125

    def refuse(self, g):
        raise AssertionError("GammaMatrix.apply called")

    monkeypatch.setattr(GammaMatrix, "apply", refuse)
    report = injectivity_report(gm, box)
    assert report.to_dict() == expected.to_dict() and report.points == expected.points
