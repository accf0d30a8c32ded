"""The unit of work the benchmark times, shared by the three workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One timed call into the library, with the check of its output.

    ``run`` is the timed call.  ``check`` receives its output outside the
    timed region and returns True when the output is correct.  Ops with the
    same label repeat the same inputs, so a later output may be checked by
    equality with an earlier verified one.  ``points`` counts the support
    points the op decides (box workload only).  ``known_defect`` names a
    defect of the library that makes this op fail at the baseline commit; the op
    still demands the correct outcome and still counts as failed.
    ``defect_seen`` receives the output and the exception of a failed op and
    returns True when the failure is that defect's own signature; a failure
    of any other kind counts as unknown.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    points: int = 0
    known_defect: str = ""
    defect_seen: Callable[[object, BaseException | None], bool] | None = None


def mono_str(exps) -> str:
    """Render a monomial given as (a_i, b_i) pairs the way the CLI does."""
    parts = []
    for i, (a, b) in enumerate(exps):
        if a:
            parts.append(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}")
        if b:
            parts.append(f"d{i + 1}" if b == 1 else f"d{i + 1}^{b}")
    return "*".join(parts)


def is_clifford(sign: str, parity: int) -> bool:
    """lam(i, i) == -1: odd indices on ``minus``, even indices on ``plus``."""
    return parity == 1 if sign == "minus" else parity == 0


def matrix_is_valid(sign: str, parity, rows) -> bool:
    """The three admissibility conditions, written apart from the library."""
    n, m = len(rows), len(rows[0])
    cliff = [is_clifford(sign, p) for p in parity]
    if any(all(rows[r][c] == 0 for r in range(n)) for c in range(m)):
        return False
    if any(cliff[r] and abs(rows[r][c]) > 1 for r in range(n) for c in range(m)):
        return False
    for i in range(m):
        for j in range(i + 1, m):
            prods = [rows[r][i] * rows[r][j] for r in range(n)]
            if any(cliff[r] and p < 0 for r, p in enumerate(prods)):
                continue
            if any(p > 0 for p in prods):
                return False
    return True


def random_matrix(rng, n: int, m: int, valid: bool = True):
    """A seeded (sign, parity, rows) triple whose validity is ``valid``."""
    while True:
        sign = rng.choice(("minus", "plus"))
        parity = [rng.randint(0, 1) for _ in range(n)]
        rows = [
            [
                0 if rng.random() < 0.5
                else rng.choice((-1, 1)) if is_clifford(sign, parity[r])
                else rng.choice((-2, -1, 1, 2))
                for _ in range(m)
            ]
            for r in range(n)
        ]
        if matrix_is_valid(sign, parity, rows) == valid:
            return sign, parity, rows
