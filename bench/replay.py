"""``cli``: the README command set replayed through ``superweyl.cli.run``.

Every op is one in-process CLI call with stdout and stderr captured, so it
pays for the parser, the file load and the formatting as well as the
library work: many small cached products, ``tau_apply`` in
``consistency``, and the relation checks of ``lie check``.

Fixed commands (on ``samples/``, the n = 8 zeta matrices and the invalid,
malformed and over-cap inputs) are checked against the exit code and stdout
digest recorded from the baseline commit in ``cli_golden.json``.  Commands on
the seeded generated matrix files are checked through invariants computed
here, apart from the library where a reference exists.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import superweyl as sw
from superweyl import cli as sw_cli

from ops import Op, mono_str, random_matrix

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
GOLDEN = Path(__file__).with_name("cli_golden.json")

SAMPLE_NAMES = ("band", "identity_1_1", "nine_point", "three_column")
LIE_SIZES = {
    "gl": ((2, 1), (4, 4), (3, 5)),
    "osp_even": ((1, 1), (4, 4), (1, 7)),
    "osp_odd": ((2, 2), (4, 4), (0, 8)),
}
ZETA = (("gl", 4, 4), ("osp_even", 4, 4), ("osp_odd", 4, 4), ("gl", 8, 0))
SHAPES = ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (3, 4))

FULL = {"samples": SAMPLE_NAMES, "lie": LIE_SIZES, "zeta": ZETA, "generated": 25}
TINY = {
    "samples": ("three_column",),
    "lie": {"gl": ((2, 1),), "osp_even": ((1, 1),), "osp_odd": ((1, 1),)},
    "zeta": (("gl", 2, 1),),
    "generated": 4,
}

# Files that are not valid matrix JSON, written next to the generated ones.
BAD_FILES = {
    "invalid": {"sign": "minus", "parity": [0, 0], "gamma": [[1, 0, 1], [1, 0, 1]]},
    "missing_keys": {"sign": "minus", "gamma": [[1]]},
    "ragged": {"sign": "minus", "parity": [0, 0], "gamma": [[1, 0], [1]]},
    "coerced": {"sign": "minus", "parity": [1], "gamma": [[1.9, "-1"]]},
}
COERCION_DEFECT = 'entries are coerced with int(): [[1.9, "-1"]] validates as [[1, -1]] with exit 0'


def call(argv):
    """One CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = sw_cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def fixed_commands(size, workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for every command checked against the golden table."""
    cmds = []
    for name in size["samples"]:
        f = str(SAMPLES / f"{name}.json")
        cmds += [
            (f"validate {name}", ["validate", f]),
            (f"datum {name}", ["datum", f]),
            (f"consistency {name}", ["consistency", f]),
            (f"phi {name} X1", ["phi", f, "-i", "1"]),
            (f"phi {name} Y1", ["phi", f, "-i", "1", "--kind", "Y"]),
            (f"eval {name} Y1,X1", ["eval", f, "-w", "Y1,X1"]),
            (f"json datum {name}", ["--format", "json", "datum", f]),
        ]
    s = {name: str(SAMPLES / f"{name}.json") for name in SAMPLE_NAMES}
    cmds += [
        ("member three_column 1,2,1", ["support", "member", s["three_column"], "-g", "1,2,1"]),
        ("member nine_point 1,-1", ["support", "member", s["nine_point"], "-g", "1,-1"]),
        ("member band 3,3", ["support", "member", s["band"], "-g", "3,3"]),
        ("member identity_1_1 2,1", ["support", "member", s["identity_1_1"], "-g", "2,1"]),
        ("enum nine_point -4:4", ["support", "enum", s["nine_point"], "--box", "-4:4,-4:4"]),
        ("enum nine_point -4:4 even", ["support", "enum", s["nine_point"], "--box", "-4:4,-4:4",
                                       "--even-lattice"]),
        ("injectivity nine_point -3:3", ["injectivity", s["nine_point"], "--box", "-3:3,-3:3"]),
        ("json injectivity three_column -2:2", ["--format", "json", "injectivity",
                                                s["three_column"], "--box", "-2:2,-2:2,-2:2"]),
    ]
    for family, sizes in size["lie"].items():
        for p, q in sizes:
            cmds.append((f"lie {family} {p} {q}", ["lie", "check", family, str(p), str(q)]))
            cmds.append((f"lie {family} {p} {q} calibrate",
                         ["lie", "check", family, str(p), str(q), "--calibrate"]))
    cmds.append(("json lie osp_odd 1 1 calibrate",
                 ["--format", "json", "lie", "check", "osp_odd", "1", "1", "--calibrate"]))
    for family, p, q in size["zeta"]:
        f = _write(workdir / f"zeta_{family}_{p}_{q}.json",
                   sw.gamma_to_dict(sw.zeta_matrix(family, p, q)))
        cmds.append((f"consistency zeta {family} {p} {q}", ["consistency", f]))
        cmds.append((f"datum zeta {family} {p} {q}", ["datum", f]))
    bad = {name: _write(workdir / f"{name}.json", data) for name, data in BAD_FILES.items()}
    malformed = workdir / "malformed.json"
    malformed.write_text('{"sign": "minus", "parity": [0], "gamma": [[1]', encoding="utf-8")
    cmds += [
        ("validate invalid", ["validate", bad["invalid"]]),
        ("datum invalid", ["datum", bad["invalid"]]),
        ("validate malformed", ["validate", str(malformed)]),
        ("validate missing_keys", ["validate", bad["missing_keys"]]),
        ("validate ragged", ["validate", bad["ragged"]]),
        ("validate missing file", ["validate", str(workdir / "absent.json")]),
        ("eval bad word", ["eval", s["three_column"], "-w", "Z1"]),
        ("member wrong length", ["support", "member", s["three_column"], "-g", "1,2"]),
        ("enum over cap", ["support", "enum", s["nine_point"], "--box", "-50:50,-50:50",
                           "--cap", "1000"]),
        ("lie osp_even 8 0", ["lie", "check", "osp_even", "8", "0"]),
        ("lie unknown family", ["lie", "check", "sl", "2", "2"]),
    ]
    return cmds


def _fixed_op(label, argv, golden) -> Op:
    expected = golden.get(label)
    return Op(label, lambda: call(argv),
              lambda out: expected is not None and [out[0], digest(out[1])] == expected)


def _coerced_op(path: str) -> Op:
    return Op("validate coerced", lambda: call(["validate", path]),
              lambda out: out[0] == 2 and out[1] == "", known_defect=COERCION_DEFECT,
              defect_seen=lambda out, error: error is None and out[:2] == (0, "valid: yes\n"))


# -- generated matrices: references computed from the entries ----------------

def _datum_reference(sign, parity, rows):
    n, m = len(rows), len(rows[0])
    cols = [[rows[r][c] for r in range(n)] for c in range(m)]
    p = [sum(v * q for v, q in zip(col, parity)) % 2 for col in cols]
    pp = [sum(col) % 2 for col in cols]
    base = -1 if sign == "plus" else 1
    mu = [[(base if pp[i] and pp[j] else 1) * (-1 if p[i] and p[j] else 1)
           for j in range(m)] for i in range(m)]
    return {"sigma": cols, "mu": mu, "p": p, "p_prime": pp}


def _witness_ok(gm, g, witness) -> bool:
    return sw.verify_witness(gm, tuple(g), tuple((c - 1, s) for c, s in witness))


def _generated_ops(rng, index, path, matrix, valid) -> list[Op]:
    sign, parity, rows = matrix
    n, m = len(rows), len(rows[0])
    gm = sw.GammaMatrix(sw.Signature(sign, tuple(parity)), tuple(map(tuple, rows)))
    tag = f"gen{index}"
    col = rng.randint(1, m)
    word = [(rng.choice("XY"), rng.randint(1, m)) for _ in range(rng.randint(2, 3))]
    while True:
        g = [rng.randint(-2, 2) for _ in range(m)]
        if sum(map(abs, g)) <= 4:
            break
    box = ",".join(["-1:1"] * m)
    argvs = [
        ["validate", path],
        ["--format", "json", "datum", path],
        ["consistency", path],
        ["--format", "json", "phi", path, "-i", str(col)],
        ["--format", "json", "eval", path, "-w", ",".join(f"{k}{c}" for k, c in word)],
        ["--format", "json", "support", "member", path, "-g", ",".join(map(str, g))],
        ["support", "enum", path, "--box", box] if index % 2 == 0
        else ["--format", "json", "injectivity", path, "--box", box],
    ]
    if not valid:
        def rejected(out, first=False):
            code, stdout, stderr = out
            if first:
                return code == 1 and stdout.startswith("valid: no\n")
            return code == 1 and stdout == "" and stderr.startswith("error: matrix failed validation")
        checks = [lambda out: rejected(out, True)] + [rejected] * 6
    else:
        ref = _datum_reference(sign, parity, rows)
        degree = [0] * m
        for k, c in word:
            degree[c - 1] += 1 if k == "X" else -1
        phi_mono = [(v, 0) if v >= 0 else (0, -v) for v in (rows[r][col - 1] for r in range(n))]

        def datum_ok(out):
            payload = json.loads(out[1])
            return out[0] == 0 and len(payload["t"]) == m and all(
                payload[key] == ref[key] for key in ("sigma", "mu", "p", "p_prime"))

        def consistency_ok(out):
            lines = out[1].splitlines()
            expected = 2 + m * (m - 1) // 2 + m * (m - 1) * (m - 2) // 2
            all_pass = all(line.endswith(": pass") for line in lines[1:-1])
            return (len(lines) == expected and lines[0].startswith("note: ")
                    and lines[-1] == f"all_pass: {'yes' if all_pass else 'no'}"
                    and out[0] == (0 if all_pass else 1))

        def eval_ok(out):
            payload = json.loads(out[1])
            return (out[0] == 0 and payload["degree"] == degree
                    and payload["zero"] == (payload["image"] == "0"))

        def member_ok(out):
            payload = json.loads(out[1])
            if payload["point"] != g or out[0] != (0 if payload["member"] else 1):
                return False
            if payload["member"]:
                return _witness_ok(gm, g, payload["witness"])
            return not sw.oracle_membership(gm, tuple(g))

        def enum_ok(out):
            found = [json.loads(line) for line in out[1].splitlines()]
            points = [tuple(item["point"]) for item in found]
            return (out[0] == 0 and (0,) * m in points and points == sorted(set(points))
                    and all(max(map(abs, pt)) <= 1 for pt in points)
                    and all(item["member"] and _witness_ok(gm, item["point"], item["witness"])
                            for item in found))

        def injectivity_ok(out):
            payload = json.loads(out[1])
            return (out[0] == (0 if payload["pass"] else 1) and payload["columns"] == m
                    and payload["rank"] <= min(n, m) and payload["support_points"] >= 1)

        checks = [
            lambda out: out[0] == 0 and out[1] == "valid: yes\n",
            datum_ok,
            consistency_ok,
            lambda out: out[0] == 0 and json.loads(out[1]) == {
                "column": col, "kind": "X", "image": mono_str(phi_mono)},
            eval_ok,
            member_ok,
            enum_ok if index % 2 == 0 else injectivity_ok,
        ]
    return [
        Op(f"{tag} {' '.join(a for a in argv if a != path)}",
           lambda argv=argv: call(argv), check)
        for argv, check in zip(argvs, checks)
    ]


def build(rng, workdir: Path, tiny: bool) -> list[Op]:
    size = TINY if tiny else FULL
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ops = [_fixed_op(label, argv, golden) for label, argv in fixed_commands(size, workdir)]
    ops.append(_coerced_op(str(workdir / "coerced.json")))
    for index in range(size["generated"]):
        n, m = SHAPES[index % len(SHAPES)]
        valid = index % 5 != 4
        matrix = random_matrix(rng, n, m, valid)
        sign, parity, rows = matrix
        path = _write(workdir / f"gen{index}.json", {"sign": sign, "parity": parity, "gamma": rows})
        ops.extend(_generated_ops(rng, index, path, matrix, valid))
    return ops
