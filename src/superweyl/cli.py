"""Command-line surface.

Matrix files are JSON objects {"sign": "minus"|"plus", "parity": [0,1,...],
"gamma": [[row], ...]} with rows listed top to bottom.  All rows, columns,
and generator names are 1-based on this surface; degree vectors and boxes
are comma-separated per column.  Exit codes: 0 pass/valid, 1 fail/invalid
or stdout closed early, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .datum import (
    derive_datum,
    eval_word,
    gamma_from_dict,
    matrix_consistency,
    phi_generator,
    validate_gamma,
)
from .errors import ResourceCapError, SuperweylError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
# The parser tree needs these, and only the commands that use them import
# `liesuper` and `support`; tests pin them equal to the library's values.
FAMILIES = ("gl", "osp_even", "osp_odd")  # liesuper.FAMILIES
DEFAULT_BOX_CAP = 10**6  # support.DEFAULT_BOX_CAP


def _from_file(what: str, path: str, load):
    """load(), with a failure to read, parse or accept the file as a usage error."""
    try:
        return load()
    except OSError as exc:
        raise _UsageError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"{what} file {path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"{what} file {path}: {exc}")
    except RecursionError:
        raise _UsageError(f"{what} file {path}: nested too deeply to parse")


def _load_matrix(path: str):
    def load():
        with open(path, "r", encoding="utf-8") as fh:
            return gamma_from_dict(json.load(fh))
    return _from_file("matrix", path, load)


class _UsageError(Exception):
    pass


def _parse_vector(text: str, m: int, what: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{what} must be a comma-separated integer list")
    if len(vec) != m:
        raise _UsageError(f"{what} needs {m} entries, got {len(vec)}")
    return vec


def _parse_box(text: str, m: int) -> list[tuple[int, int]]:
    box = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise _UsageError("box intervals must look like lo:hi")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise _UsageError("box bounds must be integers")
        if lo > hi:
            raise _UsageError("box intervals must satisfy lo <= hi")
        box.append((lo, hi))
    if len(box) != m:
        raise _UsageError(f"box needs {m} intervals, got {len(box)}")
    return box


def _parse_word(text: str) -> list[tuple[str, int]]:
    word = []
    for token in text.replace(",", " ").split():
        kind, number = token[:1].upper(), token[1:]
        if kind not in ("X", "Y") or not number.isdecimal() or int(number) < 1:
            raise _UsageError(f"word letters look like X1 or Y2, got {token!r}")
        word.append((kind, int(number) - 1))
    return word


def _emit(args, payload, text_lines) -> None:
    """Print the payload as JSON under --format json, else the text lines, in
    one write; a payload that costs work to build is passed as the function
    building it."""
    if args.format == "json":
        print(json.dumps(payload() if callable(payload) else payload))
    else:
        print("\n".join(text_lines))


def _cmd_validate(args) -> int:
    gm = _load_matrix(args.matrix)
    report = validate_gamma(gm)
    _emit(args, report.to_dict(), [f"valid: {'yes' if report.valid else 'no'}"]
          + ([] if report.valid else [report.summary()]))
    return EXIT_PASS if report.valid else EXIT_FAIL


def _cmd_datum(args) -> int:
    gm = _load_matrix(args.matrix)
    datum = derive_datum(gm)
    ts = [str(t) for t in datum.t]

    def payload():
        return {
            "t": ts,
            "sigma": [list(col) for col in datum.sigma],
            "mu": [list(row) for row in datum.mu],
            "p": list(datum.pparity),
            "p_prime": list(datum.pprime),
        }

    lines = []
    for i, t in enumerate(ts):
        lines.append(f"t[{i + 1}] = {t}")
    for i, col in enumerate(datum.sigma):
        lines.append(f"sigma[{i + 1}] = {_sigma_str(col)}")
    lines.append("mu = " + "; ".join(" ".join(f"{v:+d}" for v in row) for row in datum.mu))
    lines.append("p = " + " ".join(str(v) for v in datum.pparity))
    lines.append("p' = " + " ".join(str(v) for v in datum.pprime))
    _emit(args, payload, lines)
    return EXIT_PASS


def _sigma_str(col) -> str:
    parts = []
    for i, e in enumerate(col):
        if e == 1:
            parts.append(f"tau{i + 1}")
        elif e:
            parts.append(f"tau{i + 1}^{e}")
    return "*".join(parts) if parts else "id"


def _cmd_consistency(args) -> int:
    gm = _load_matrix(args.matrix)
    report = matrix_consistency(gm)
    lines = [f"note: {report.note}"]
    for inst in report.instances:
        ids = ",".join(str(v + 1) for v in inst.indices)
        lines.append(f"{inst.kind}({ids}): {'pass' if inst.passed else 'FAIL'}")
    lines.append(f"all_pass: {'yes' if report.all_pass else 'no'}")
    _emit(args, report.to_dict, lines)
    return EXIT_PASS if report.all_pass else EXIT_FAIL


def _cmd_phi(args) -> int:
    gm = _load_matrix(args.matrix)
    if not 1 <= args.index <= gm.m:
        raise _UsageError(f"column must be in 1..{gm.m}")
    image = str(phi_generator(gm, args.index - 1, args.kind))
    payload = {"column": args.index, "kind": args.kind, "image": image}
    _emit(args, payload, [f"phi({args.kind}{args.index}) = {image}"])
    return EXIT_PASS


def _cmd_eval(args) -> int:
    gm = _load_matrix(args.matrix)
    word = _parse_word(args.word)
    for _, col in word:
        if col >= gm.m:
            raise _UsageError(f"column {col + 1} out of range, matrix has {gm.m}")
    graded = eval_word(gm, word)
    image = str(graded.image)
    payload = {
        "word": [f"{k}{c + 1}" for k, c in word],
        "degree": list(graded.degree),
        "zero": graded.is_zero,
        "image": image,
    }
    _emit(args, payload, [
        f"degree = {list(graded.degree)}",
        f"image = {image}",
    ])
    return EXIT_PASS


def _member_payload(point, witness) -> dict:
    return {
        "point": list(point),
        "member": witness is not None,
        "witness": None if witness is None else [[c + 1, s] for c, s in witness],
    }


def _cmd_support_member(args) -> int:
    from .support import is_in_support

    gm = _load_matrix(args.matrix)
    g = _parse_vector(args.g, gm.m, "-g")
    witness = is_in_support(gm, g)
    payload = _member_payload(g, witness)
    _emit(args, payload, [json.dumps(payload)])
    return EXIT_PASS if witness is not None else EXIT_FAIL


def _cmd_support_enum(args) -> int:
    from .support import enumerate_support

    gm = _load_matrix(args.matrix)
    box = _parse_box(args.box, gm.m)
    points = enumerate_support(gm, box, even_lattice=args.even_lattice, cap=args.cap)
    for g, w in points:
        print(json.dumps(_member_payload(g, w)))
    return EXIT_PASS


def _cmd_injectivity(args) -> int:
    from .support import injectivity_report

    gm = _load_matrix(args.matrix)
    box = _parse_box(args.box, gm.m)
    report = injectivity_report(gm, box, cap=args.cap)
    lines = [
        f"rank = {report.rank} of {report.m} columns"
        + (" (injective globally)" if report.globally_injective else ""),
        f"kernel = {[list(v) for v in report.kernel]}",
        f"support points in box: {len(report.points)}",
        f"gamma images distinct on boxed support: {'yes' if report.gamma_distinct_on_box else 'no'}",
        f"projected map has trivial zero fiber: {'yes' if report.p_gamma_zero_fiber else 'no'}",
        f"projected images distinct (data only): {'yes' if report.p_gamma_distinct_on_box else 'no'}",
        "Clifford containment: yes",
    ]
    if not report.globally_injective:
        lines.append("note: results beyond the box are inconclusive at this rank")
    _emit(args, report.to_dict, lines)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_lie_check(args) -> int:
    from .liesuper import calibrate, check_relations, check_triangle, load_calibration, preset

    if args.calibrate and args.fixtures is not None:
        raise _UsageError("--fixtures cannot be combined with --calibrate")
    try:
        pre = preset(args.family, args.p, args.q)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.calibrate:
        result = calibrate(pre)
        cal, solved, message = result.calibration, result.solved, result.message
        relations, triangle = result.report, result.triangle
    else:
        cal = _from_file("fixture", args.fixtures, lambda: load_calibration(pre, args.fixtures))
        solved, message = True, "fixture"
        relations, triangle = check_relations(pre, cal), check_triangle(pre, cal)
    ok = solved and relations.all_pass and triangle.passed

    def payload():
        # renders every residual, so it is built for --format json only
        return {
            "family": args.family,
            "p": args.p,
            "q": args.q,
            "calibration": cal.to_dict(),
            "calibration_source": "solver" if args.calibrate else "fixture",
            "calibration_message": message,
            "relations": relations.to_dict()["relations"],
            "triangle": triangle.to_dict(),
            "all_pass": ok,
        }

    lines = [f"calibration: {message}"]
    for r in relations.results:
        lines.append(f"{r.label}: {'pass' if r.passed else 'FAIL residual ' + str(r.residual)}")
    lines.append(f"triangle x-match: {'yes' if triangle.all_x_match else 'no'}")
    lines.append(
        "h offsets: " + " ".join(str(o) for o in triangle.h_offsets)
    )
    lines.append(f"all_pass: {'yes' if ok else 'no'}")
    _emit(args, payload, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def _matrix_command(sub, name, help, func):
    """The parser of a subcommand whose first argument is a matrix file."""
    p = sub.add_parser(name, help=help)
    p.add_argument("matrix")
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superweyl",
        description="Clifford/Weyl superalgebra and twisted-Weyl matrix tooling",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    commands = parser.add_subparsers(dest="command", required=True)
    _matrix_command(commands, "validate", "validate a matrix file", _cmd_validate)
    _matrix_command(commands, "datum", "derived t, sigma, mu, parities", _cmd_datum)
    _matrix_command(commands, "consistency", "pair and triple identities (diagnostic)",
                    _cmd_consistency)

    p = _matrix_command(commands, "phi", "image of one generator", _cmd_phi)
    p.add_argument("-i", "--index", type=int, required=True, help="column, 1-based")
    p.add_argument("--kind", choices=("X", "Y"), default="X")

    p = _matrix_command(commands, "eval", "image and degree of a generator word", _cmd_eval)
    p.add_argument("-w", "--word", required=True, help="letters like 'Y1,X1'")

    support = commands.add_parser("support", help="graded-support queries")
    support = support.add_subparsers(dest="subcommand", required=True)
    p = _matrix_command(support, "member", "decide one degree vector", _cmd_support_member)
    p.add_argument("-g", required=True, help="degree vector, e.g. 1,2,1")
    p = _matrix_command(support, "enum", "enumerate a box", _cmd_support_enum)
    p.add_argument("--box", required=True, help="per-column lo:hi, e.g. -3:3,-3:3")
    p.add_argument("--even-lattice", action="store_true")
    p.add_argument("--cap", type=int, default=DEFAULT_BOX_CAP)

    p = _matrix_command(commands, "injectivity", "rank, kernel, and boxed injectivity",
                        _cmd_injectivity)
    p.add_argument("--box", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_BOX_CAP)

    lie = commands.add_parser("lie", help="Chevalley presentation checks")
    lie = lie.add_subparsers(dest="subcommand", required=True)
    p = lie.add_parser("check", help="relation residuals and triangle report")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--calibrate", action="store_true", help="solve instead of loading fixtures")
    p.add_argument("--fixtures", help="alternative calibration fixture file")
    p.set_defaults(func=_cmd_lie_check)
    return parser


# A process needs one parser tree: built here, at import, and only read by run
# (argparse keeps the parsed values in a fresh namespace per call).
_PARSER = _build_parser()


def _merge_flag_values(argv):
    # values like -3:3,-3:3 or -1,2 start with '-'; glue them to their flag
    # so argparse does not mistake them for options
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--box" and i + 1 < len(argv):
            out.append(a + "=" + argv[i + 1])
            i += 2
        elif a == "-g" and i + 1 < len(argv):
            out.append(a + argv[i + 1])
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(_merge_flag_values(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (_UsageError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SuperweylError as exc:  # InvalidGammaError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: the flush at exit
        # would fail again, so point stdout at devnull and exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FAIL)
    sys.exit(code)


if __name__ == "__main__":
    main()
