"""Graded-support decisions via pattern-avoiding arrangements.

A degree vector g lies in the support iff the multiset holding |g_i| copies
of the signed column sgn(g_i)*gamma(e_i) admits an ordering whose entries,
restricted to any Clifford row, never repeat a nonzero sign without a sign
change in between (no consecutive (s, 0, ..., 0, s) pattern).  The search
keeps only the remaining multiplicities and the last nonzero sign per
Clifford row, visiting columns in ascending order, so the first witness
found is deterministic.  It also fixes each Clifford row's first sign from
the image (first touch): a row's entries alternate and sum to its image
value, so a row whose image is 1 must receive a 1 first, and a row whose
image is -1 a -1.  This prunes only subtrees that cannot be completed, so
the witness is unchanged (see ``_arrange``).

A box is decided by one membership walk, ``_members``, with two readers:
``enumerate_support`` adds the witnesses of the members the walk did not
search and caps the witness letters, and ``injectivity_report`` reads only
the points.  The search builds a witness, so the walk caps the searched
points' letters as ``enumerate_support`` does.  The walk does four things
a point-by-point scan would not:

- It walks only contained points, those whose image has every Clifford row
  in {-1, 0, 1} (a necessary condition).  Columns are fixed left to right
  with values in ascending order, and a branch is cut as soon as some
  Clifford row can no longer end in [-1, 1], so the walk costs about one
  step per contained point instead of one per box point (the clifford5
  -3:3 box: 229 of 16,807 points) and yields them in ``itertools.product``
  order.
- It shares the failed-state memo between all points with the same letters
  (the same nonzero columns with the same signs): whether a state of
  remaining counts and last signs can be completed does not depend on the
  point.  A search that reaches a state another point already exhausted
  backs off at once.
- A point none of whose letters touches a Clifford row needs no search:
  no state can fail, so it is a member, and its witness is its letters in
  column order.  A branch all of whose points are such is handed over as
  its range of last entries, with no work per point.
- A point's search repeats a periodic descent in one step.  A Clifford
  row's entries alternate, so a deep point's witness is a long, mostly
  periodic word over a few letters: once the descent comes back to the last
  signs it had some letters earlier, with the same letters left and nothing
  exhausted, the same choices follow, and the search takes every repeat the
  counts allow at once (see ``_arrange``).  A deep point costs steps for its
  aperiodic part and one period, not one step per letter.

Work that does not depend on the point is done once: the matrix's Clifford
view (``GammaMatrix.clifford_view``: its Clifford rows, and per column the
bit masks of its 1 and -1 Clifford entries) once per matrix, the letters
once per sign pattern, and the signs, parity, letter count and column-order
witness of the first m - 1 entries once per branch (all choices of the last
entry).  A point's decision never reads its Weyl rows: ``is_in_support``
computes the image on the Clifford rows only, and reads each letter's masks
off the view.

``oracle_membership`` decides the same question by exhaustively multiplying
generator images over all arrangements; it shares no logic with the pattern
search and exists to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

from .algebra import SuperElement, int_tuple
from .datum import GammaMatrix, phi_generator, require_valid
from .errors import ResourceCapError

# A witness is a tuple of (column, sign) pairs, 0-based columns.
Witness = tuple[tuple[int, int], ...]

DEFAULT_BOX_CAP = 10**6
DEFAULT_ORACLE_CAP = 8
# Most letters one witness may hold: a point with more is refused before its
# witness list is built.  [[1]] with g = 100000 renders 800 KB in 0.2 s.
MAX_WITNESS_LETTERS = 100_000
# Most letters the witnesses of one enumeration may hold in all: about 8 MB
# of `support enum` output.
MAX_ENUM_LETTERS = 1_000_000


def _letters(gm: GammaMatrix, g: Sequence[int]):
    """Distinct signed letters in column order, each as (column, sign, plus,
    minus): bit k of ``plus`` (``minus``) is set when the letter's entry on
    the k-th Clifford row is 1 (-1).  Read off ``gm.clifford_view``, with
    the masks swapped for a negative letter."""
    _, plus, minus = gm.clifford_view
    return [
        (c, 1, plus[c], minus[c]) if v > 0 else (c, -1, minus[c], plus[c])
        for c, v in enumerate(g)
        if v
    ]


def _sign_masks(values) -> Optional[tuple[int, int]]:
    """Bit masks of the positions where ``values`` is 1 and where it is -1,
    or None when a value leaves {-1, 0, 1}."""
    plus = minus = 0
    for k, v in enumerate(values):
        if v == 1:
            plus |= 1 << k
        elif v == -1:
            minus |= 1 << k
        elif v:
            return None
    return plus, minus


def _require_witness_size(g: tuple[int, ...]) -> None:
    total = sum(map(abs, g))
    if total > MAX_WITNESS_LETTERS:
        raise ResourceCapError(f"|g| = {total} exceeds the witness cap {MAX_WITNESS_LETTERS}")


def _enum_cap_error() -> ResourceCapError:
    return ResourceCapError(
        f"witnesses in the box exceed the enumeration cap of {MAX_ENUM_LETTERS} letters"
    )


def _degree_vector(gm: GammaMatrix, g: Sequence[int]) -> tuple[int, ...]:
    g = int_tuple(g, "degree vector entries")
    if len(g) != gm.m:
        raise ValueError(f"degree vector has length {len(g)}, expected {gm.m}")
    return g


def is_in_support(gm: GammaMatrix, g: Sequence[int]) -> Optional[Witness]:
    """First admissible ordering of the letter multiset, or None.

    Branches are explored in ascending column order, so the returned witness
    is the lexicographically least admissible column sequence.  A contained
    point whose witness would hold more than MAX_WITNESS_LETTERS letters
    raises ResourceCapError.
    """
    require_valid(gm)
    g = _degree_vector(gm, g)
    # a member's image has every Clifford row in {-1, 0, 1}; the Weyl rows
    # constrain nothing, so only the Clifford rows of the image are computed
    signs = _sign_masks(sum(map(mul, row, g)) for row in gm.clifford_view[0])
    if signs is None:
        return None
    _require_witness_size(g)
    letters = _letters(gm, g)
    if not any(plus or minus for _, _, plus, minus in letters):
        return _column_order(g)
    return _arrange(letters, [abs(v) for v in g if v], set(), *signs)


def _column_order(g: Sequence[int]) -> Witness:
    """|g_c| letters (c, sgn g_c) per column, in column order: the witness
    when no letter touches a Clifford row, since then no state can fail and
    the search always takes the least column with letters left."""
    witness = ()
    for c, v in enumerate(g):
        if v:
            witness += ((c, 1 if v > 0 else -1),) * abs(v)
    return witness


def _arrange(letters, counts: list[int], failed: set, image_plus: int, image_minus: int):
    """Least admissible ordering of ``counts[i]`` copies of each letter, or None.

    A state is the remaining counts and the last nonzero sign per Clifford
    row, kept as two bit masks (rows whose last sign is 1, rows whose last
    sign is -1); a letter may not repeat the last sign of a row it touches.

    The entries a Clifford row receives alternate and sum to its image
    value, so a row whose image is 1 (a bit of ``image_plus``) must receive
    a 1 first, and a row whose image is -1 (``image_minus``) a -1.  The
    search starts as if such a row's last sign were the opposite one: this
    prunes only states that cannot be completed and keeps the search order,
    so the witness is the same.  An untouched row's image is the sum of its
    remaining letters, so whether a state can be completed still depends
    only on the state and the letters.

    ``failed`` holds states known to have no admissible completion.  They do
    not depend on the point, so callers may share one set between points
    with the same letters; the search adds the states it exhausts.

    A frame is the pair of last-sign masks at one depth.  Until a state
    fails, each step places the least letter that has copies left and
    repeats no row's last sign, so the letter placed depends only on the
    frame and on which letters have copies left.  When the descent comes
    back to a frame it left p letters earlier, every letter of those p
    still has a copy and ``failed`` is empty, the p choices repeat as long
    as every letter they use keeps a copy: k = min over the period's letters
    of (copies - 1) // uses times.  The search takes the k repeats in one
    step, and puts k copies of the period's frames on its stack: those are
    the frames the one-letter steps would have built, with the same masks
    and the same letters placed, so a later backtrack walks the same frames
    in the same order and adds the same states to ``failed``.  The witness,
    the memo and the counts left are those of one letter per step.
    """
    # an explicit stack holds one frame per letter, so deep queries do not
    # hit the recursion limit; a state that failed once is never re-expanded
    total = sum(counts)
    size = len(letters)
    path: list[int] = []  # letter index placed at each depth
    stack = [(image_minus, image_plus)]  # per depth: (rows last 1, rows last -1)
    # Brent's cycle detection: each new frame is compared with the frame at
    # depth ``mark``, which moves up to the new frame once ``lap`` letters
    # have passed since it was set, ``lap`` doubling each time
    mark, lap = 0, 1
    mark_plus, mark_minus = image_minus, image_plus
    start = 0  # the next letter to try at this depth
    while True:
        if len(path) == total:
            if total < 16:
                # a short witness is cheaper to build letter by letter
                return tuple([letters[idx][:2] for idx in path])
            # one (column, sign) pair per letter, shared by all its copies
            pairs = [letter[:2] for letter in letters]
            return tuple(map(pairs.__getitem__, path))
        last_plus, last_minus = stack[-1]
        for idx in range(start, size):
            _, _, plus, minus = letters[idx]
            # a letter may not repeat the last nonzero sign of any row it touches
            if not counts[idx] or plus & last_plus or minus & last_minus:
                continue
            counts[idx] -= 1
            new_plus, new_minus = last_plus & ~minus | plus, last_minus & ~plus | minus
            if not failed or (tuple(counts), new_plus, new_minus) not in failed:
                path.append(idx)
                if new_plus == mark_plus and new_minus == mark_minus and not failed:
                    # back at the mark frame with nothing exhausted: the
                    # period path[mark:] repeats while its letters keep a
                    # copy, which takes two copies of the letter just placed
                    # and more letters left than the period holds
                    if counts[idx] > 1 and total + mark > 2 * len(path):
                        period = path[mark:]
                        uses = [(j, period.count(j)) for j in set(period)]
                        k = min((counts[j] - 1) // u for j, u in uses)
                        if k > 0:
                            for j, u in uses:
                                counts[j] -= k * u
                            path += period * k
                            stack += stack[mark:] * k
                    # detect the next period, if any, from here
                    mark, lap = len(path), 1
                elif len(path) - mark == lap:
                    mark, lap, mark_plus, mark_minus = len(path), 2 * lap, new_plus, new_minus
                stack.append((new_plus, new_minus))
                start = 0
                break
            counts[idx] += 1
        else:
            stack.pop()
            failed.add((tuple(counts), last_plus, last_minus))
            if not path:
                return None
            # resume the frame below after the letter it placed
            start = path.pop()
            counts[start] += 1
            start += 1


def verify_witness(gm: GammaMatrix, g: Sequence[int], witness: Witness) -> bool:
    """Independent check of a claimed ordering: multiplicities, parts, pattern."""
    g = _degree_vector(gm, g)
    seen = {}
    for col, sign in witness:
        if sign not in (-1, 1):
            return False
        key = (col, sign)
        seen[key] = seen.get(key, 0) + 1
    for c in range(gm.m):
        expected = abs(g[c])
        sign = 1 if g[c] > 0 else -1
        if expected:
            if seen.pop((c, sign), 0) != expected:
                return False
    if seen:
        return False
    # parts must sum to the image of g
    total = [0] * gm.n
    for col, sign in witness:
        for r in range(gm.n):
            total[r] += sign * gm.rows[r][col]
    if tuple(total) != gm.apply(g):
        return False
    # per Clifford row, nonzero entries alternate in sign
    for r in range(gm.n):
        if not gm.sig.is_clifford(r):
            continue
        last = 0
        for col, sign in witness:
            e = sign * gm.rows[r][col]
            if e == 0:
                continue
            if e == last:
                return False
            last = e
    return True


def enumerate_support(
    gm: GammaMatrix,
    box: Sequence[tuple[int, int]],
    even_lattice: bool = False,
    cap: int = DEFAULT_BOX_CAP,
) -> list[tuple[tuple[int, ...], Witness]]:
    """All support points in a finite box, with their witnesses, sorted.

    The witnesses are those of ``is_in_support``; the box size is checked
    against ``cap`` before any point is visited, and a contained point with
    too long a witness raises ResourceCapError as there.  So do witnesses
    holding more than MAX_ENUM_LETTERS letters in all.
    """
    box = _checked_box(gm, box, cap)
    last = gm.m - 1
    up, down = ((last, 1),), ((last, -1),)
    found = []
    letters_out = 0
    for head, values, witness in _members(gm, box, even_lattice):
        if witness is not None:
            # one searched member: values is (v,)
            letters_out += len(witness)
            found.append((head + values, witness))
        else:
            # unsearched members: the witness is the letters in column order
            head_letters = sum(map(abs, head))
            head_order = None  # built after a point passes the witness cap
            for v in values:
                point_letters = head_letters + abs(v)
                if point_letters > MAX_WITNESS_LETTERS:
                    _require_witness_size(head + (v,))
                letters_out += point_letters
                if letters_out > MAX_ENUM_LETTERS:
                    break
                if head_order is None:
                    head_order = _column_order(head)
                found.append((head + (v,), head_order + (up * v if v > 0 else down * -v)))
        if letters_out > MAX_ENUM_LETTERS:
            raise _enum_cap_error()
    return found


def _checked_box(gm: GammaMatrix, box: Sequence[tuple[int, int]], cap: int) -> list[tuple[int, int]]:
    """The box as a list of integer intervals, one per column of the valid
    matrix ``gm``.  The box is checked and counted from ``gm.m`` alone, before
    the matrix is validated: a box of more than ``cap`` points raises
    ResourceCapError without the O(m^2) validation, and before any point is
    visited."""
    box = [int_tuple(interval, "box bounds") for interval in box]
    if len(box) != gm.m:
        raise ValueError(f"box has {len(box)} intervals, expected {gm.m}")
    if any(lo > hi for lo, hi in box):
        raise ValueError("box intervals must satisfy lo <= hi")
    count = 1
    for lo, hi in box:
        count *= hi - lo + 1
    if count > cap:
        raise ResourceCapError(f"box holds {count} candidate points, cap is {cap}")
    require_valid(gm)
    return box


def _members(gm: GammaMatrix, box: list[tuple[int, int]], even_lattice: bool):
    """The support points of a checked box in ``itertools.product`` order, as
    triples (head, values, witness) for the points head + (v,), v in values.
    ``witness`` is None when the points touch no Clifford row, so are
    members with no search; a branch all of whose points are such goes over
    at once.  A searched member goes over on its own, as (head, (v,), the
    witness the search built), so a reader can stop after any of them.  A
    searched point of more than MAX_WITNESS_LETTERS letters raises
    ResourceCapError, and so do searched witnesses of more than
    MAX_ENUM_LETTERS letters in all."""
    last = gm.m - 1
    cliff, plus, minus = gm.clifford_view
    # the first m - 1 columns that touch a Clifford row
    head_columns = [c for c in range(last) if plus[c] or minus[c]]
    last_touches = plus[last] or minus[last]
    last_column = [row[last] for row in cliff]
    patterns: dict[tuple[int, ...], tuple] = {}  # sign pattern -> (letters, failed states)
    searched_letters = 0
    for head, values, partial in _contained_branches(gm, box, cliff):
        if even_lattice:
            values = values[(sum(head) + values.start) & 1::2]
        head_touches = any(map(head.__getitem__, head_columns))
        if not (head_touches or last_touches):
            yield head, values, None
            continue
        # done once for all points of the branch
        head_letters = sum(map(abs, head))
        head_counts = [abs(v) for v in head if v]
        head_signs = tuple([(v > 0) - (v < 0) for v in head])
        for v in values:
            if not (v or head_touches):
                # the one point of the branch whose letters touch no Clifford row
                yield head, (0,), None
                continue
            size = abs(v)
            point_letters = head_letters + size
            if point_letters > MAX_WITNESS_LETTERS:
                _require_witness_size(head + (v,))
            pattern = head_signs + ((v > 0) - (v < 0),)
            entry = patterns.get(pattern)
            if entry is None:
                entry = patterns[pattern] = _letters(gm, head + (v,)), set()
            letters, failed = entry
            # the Clifford rows of gamma(g), each in {-1, 0, 1}
            image = [p + e * v for p, e in zip(partial, last_column)]
            counts = head_counts + [size] if v else head_counts[:]
            witness = _arrange(letters, counts, failed, *_sign_masks(image))
            if witness is not None:
                searched_letters += point_letters
                if searched_letters > MAX_ENUM_LETTERS:
                    raise _enum_cap_error()
                yield head, (v,), witness


def _contained_branches(gm: GammaMatrix, box: list[tuple[int, int]], cliff):
    """The contained box points, those whose image has every Clifford row in
    [-1, 1], by branch: per choice of the first m - 1 entries that leaves
    some contained point, the tuple of those entries, the range of last
    entries that complete it to a contained point, and the partial image of
    each Clifford row (``cliff``) over the first m - 1 columns.  Points come
    in the order of ``itertools.product``.

    Columns are fixed left to right.  With the partial image of each
    Clifford row and the least and greatest sum the remaining columns can
    add to it, each column gets the interval of values that still let every
    row end in [-1, 1]; a branch whose interval is empty is cut.  On the
    last column the bounds are exact.
    """
    m = gm.m
    last = m - 1
    # rest_lo[c][k], rest_hi[c][k]: range of row k's sum over columns c..m-1
    rest_lo = [[0] * len(cliff) for _ in range(m + 1)]
    rest_hi = [[0] * len(cliff) for _ in range(m + 1)]
    for c in reversed(range(m)):
        lo, hi = box[c]
        for k, row in enumerate(cliff):
            a, b = sorted((row[c] * lo, row[c] * hi))
            rest_lo[c][k] = rest_lo[c + 1][k] + a
            rest_hi[c][k] = rest_hi[c + 1][k] + b
    if any(rest_lo[0][k] > 1 or rest_hi[0][k] < -1 for k in range(len(cliff))):
        return
    touched = [[k for k, row in enumerate(cliff) if row[c]] for c in range(m)]

    def values(c: int, partial: list[int]) -> range:
        lo, hi = box[c]
        for k in touched[c]:
            # Clifford entries of a valid matrix are -1 or 1
            low = -1 - partial[k] - rest_hi[c + 1][k]
            high = 1 - partial[k] - rest_lo[c + 1][k]
            if cliff[k][c] < 0:
                low, high = -high, -low
            lo, hi = max(lo, low), min(hi, high)
        return range(lo, hi + 1)

    head = [0] * last
    partials = [[0] * len(cliff) for _ in range(m)]  # image rows before column c
    if last == 0:
        span = values(0, partials[0])
        if span:
            yield (), span, partials[0]
        return
    pending = [iter(values(0, partials[0]))]
    while pending:
        c = len(pending) - 1
        v = next(pending[-1], None)
        if v is None:
            pending.pop()
            continue
        head[c] = v
        partial = partials[c + 1]
        for k, row in enumerate(cliff):
            partial[k] = partials[c][k] + row[c] * v
        span = values(c + 1, partial)
        if c + 1 < last:
            pending.append(iter(span))
        elif span:
            yield tuple(head), span, partial


def oracle_membership(gm: GammaMatrix, g: Sequence[int], cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Brute-force membership: some arrangement has a nonzero image product.

    Exhausts the arrangements of the letter multiset through the generator
    images, pruning prefixes whose product is already zero (right
    multiplication cannot revive them).
    """
    require_valid(gm)
    g = _degree_vector(gm, g)
    total = sum(map(abs, g))
    if total > cap:
        raise ResourceCapError(f"|g| = {total} exceeds the oracle cap {cap}")
    if total == 0:
        return True
    gens = []
    counts = []
    for c in range(gm.m):
        if g[c] == 0:
            continue
        kind = "X" if g[c] > 0 else "Y"
        gens.append(phi_generator(gm, c, kind))
        counts.append(abs(g[c]))

    # an explicit stack, one level per letter, keeps deep queries off the
    # recursion limit; each level tries the generators in order
    stack = [(SuperElement.one(gm.sig), 0)]  # (prefix product, next index to try)
    while stack:
        if len(stack) > total:
            return True
        prefix, start = stack[-1]
        for idx in range(start, len(gens)):
            if not counts[idx]:
                continue
            nxt = prefix * gens[idx]
            if nxt.is_zero:
                continue
            counts[idx] -= 1
            stack[-1] = (prefix, idx + 1)
            stack.append((nxt, 0))
            break
        else:
            stack.pop()
            if stack:
                # the parent's next index is one past the generator it placed
                counts[stack[-1][1] - 1] += 1
    return False


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gamma_rank_kernel(gm: GammaMatrix) -> tuple[int, list[tuple[int, ...]]]:
    """Rational rank and an integer kernel basis, by unimodular column ops.

    The ops keep ``track`` unimodular with cols = gamma * track, so an
    integer kernel vector v has integer coordinates track^-1 v, nonzero only
    on the kernel columns: those columns are a basis of the integer kernel
    as they stand, each primitive, with no common factor to divide out.
    Each is signed to lead with a positive entry."""
    n, m = gm.n, gm.m
    cols = [list(gm.column(c)) for c in range(m)]
    track = [[1 if i == c else 0 for i in range(m)] for c in range(m)]
    pc = 0
    for r in range(n):
        nz = [c for c in range(pc, m) if cols[c][r] != 0]
        if not nz:
            continue
        c0 = nz[0]
        for c in nz[1:]:
            a, b = cols[c0][r], cols[c][r]
            gg, s, t = _egcd(a, b)
            ca, cb = cols[c0], cols[c]
            ta, tb = track[c0], track[c]
            new_a = [s * u + t * v for u, v in zip(ca, cb)]
            new_b = [-(b // gg) * u + (a // gg) * v for u, v in zip(ca, cb)]
            cols[c0], cols[c] = new_a, new_b
            track[c0] = [s * u + t * v for u, v in zip(ta, tb)]
            track[c] = [-(b // gg) * u + (a // gg) * v for u, v in zip(ta, tb)]
        cols[pc], cols[c0] = cols[c0], cols[pc]
        track[pc], track[c0] = track[c0], track[pc]
        pc += 1
    kernel = []
    for c in range(pc, m):
        vec = track[c]
        lead = next((v for v in vec if v), 0)
        if lead < 0:
            vec = [-v for v in vec]
        kernel.append(tuple(vec))
    return pc, kernel


@dataclass
class InjectivityReport:
    """Box-restricted injectivity evidence plus the global rank certificate.

    ``gamma_distinct_on_box`` is pairwise distinctness of the plain images
    over the boxed support.  For the projected map (Clifford rows reduced
    mod 2) the operative condition is the trivial zero fiber: a projected
    image of zero forces g = 0.  Pairwise distinctness of projected images
    is also reported, but only as data; it can fail for perfectly injective
    matrices because support coordinates -1 and 1 agree mod 2.

    Clifford containment is not stored: the boxed support holds only
    contained points, so ``to_dict`` reports it as a constant true.
    """

    rank: int
    m: int
    kernel: list[tuple[int, ...]]
    box: list[tuple[int, int]]
    points: list[tuple[int, ...]] = field(default_factory=list)
    gamma_distinct_on_box: bool = True
    p_gamma_zero_fiber: bool = True
    p_gamma_distinct_on_box: bool = True

    @property
    def globally_injective(self) -> bool:
        return self.rank == self.m

    @property
    def passed(self) -> bool:
        return self.gamma_distinct_on_box and self.p_gamma_zero_fiber

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "columns": self.m,
            "kernel": [list(v) for v in self.kernel],
            "globally_injective": self.globally_injective,
            "box": [[lo, hi] for lo, hi in self.box],
            "support_points": len(self.points),
            "gamma_distinct_on_box": self.gamma_distinct_on_box,
            "p_gamma_zero_fiber": self.p_gamma_zero_fiber,
            "p_gamma_distinct_on_box": self.p_gamma_distinct_on_box,
            "clifford_containment": True,
            "pass": self.passed,
        }


def injectivity_report(
    gm: GammaMatrix,
    box: Sequence[tuple[int, int]],
    cap: int = DEFAULT_BOX_CAP,
) -> InjectivityReport:
    """Enumerate the support in a box and test the injectivity criteria.

    rank == m certifies global injectivity of the matrix; otherwise the
    distinctness result is labeled box-restricted by the caller.  Boxed
    support points are contained (Clifford image entries in {-1, 0, 1}), so
    a projected image is zero exactly when the plain image is, and the zero
    fiber is read off the plain images.  The points come from the
    membership walk: a point whose letters touch no Clifford row is a
    member with no search and no witness, and the witness the search builds
    for one whose letters do is dropped.  So the witness caps bound only the
    searched points, as in the walk.

    At rank == m no image is built to decide the plain criteria: gamma is
    injective on Z^m, so the images are distinct and only g = 0 maps to
    zero.  Below it, each image goes into one set as it is computed, and the
    zero fiber is read in the same pass.  The projected images are built
    only when distinct points have distinct images and the matrix has a
    Clifford row: otherwise they are distinct exactly when the images are.
    """
    box = _checked_box(gm, box, cap)
    rank, kernel = gamma_rank_kernel(gm)
    pts = [head + (v,) for head, values, _ in _members(gm, box, False) for v in values]
    distinct = zero_fiber = True
    if rank < gm.m:
        images = set()
        for g in pts:
            image = gm.apply(g)
            images.add(image)
            if not any(image) and any(g):
                zero_fiber = False
        distinct = len(images) == len(pts)
    else:
        images = map(gm.apply, pts)  # computed only for the projected images
    p_distinct = distinct
    if distinct and gm.sig.clifford_indices:
        cliff = [gm.sig.is_clifford(r) for r in range(gm.n)]
        projected = {tuple(v % 2 if c else v for v, c in zip(img, cliff)) for img in images}
        p_distinct = len(projected) == len(pts)
    return InjectivityReport(
        rank=rank,
        m=gm.m,
        kernel=kernel,
        box=box,
        points=pts,
        gamma_distinct_on_box=distinct,
        p_gamma_zero_fiber=zero_fiber,
        p_gamma_distinct_on_box=p_distinct,
    )
