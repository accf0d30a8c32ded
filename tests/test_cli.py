import argparse
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import pytest

import superweyl.cli
import superweyl.datum
import superweyl.liesuper
from superweyl import gamma_to_dict, zeta_matrix
from superweyl.algebra import SparseElement
from superweyl.cli import run

ID11 = {"sign": "minus", "parity": [0, 1], "gamma": [[1, 0], [0, 1]]}
EX_B = {"sign": "minus", "parity": [1, 1], "gamma": [[1, 0], [1, -1]]}
EX_C = {"sign": "minus", "parity": [0, 1, 1], "gamma": [[1, 3, 0], [1, 0, -1], [1, -1, 1]]}
BAD = {"sign": "minus", "parity": [1], "gamma": [[2]]}


@pytest.fixture
def matrix_file(tmp_path):
    def write(data, name="matrix.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def test_validate_exit_codes(matrix_file, capsys):
    assert run(["validate", matrix_file(ID11)]) == 0
    assert capsys.readouterr().out == "valid: yes\n"
    assert run(["validate", matrix_file(BAD)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("valid: no")


def test_validate_json(matrix_file, capsys):
    assert run(["--format", "json", "validate", matrix_file(BAD)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "valid": False,
        "zero_columns": [],
        "clifford_violations": [[1, 1]],
        "sign_violations": [],
    }


def test_datum_golden_text(matrix_file, capsys):
    assert run(["datum", matrix_file(ID11)]) == 0
    assert capsys.readouterr().out == (
        "t[1] = u1\n"
        "t[2] = u2\n"
        "sigma[1] = tau1\n"
        "sigma[2] = tau2\n"
        "mu = +1 +1; +1 -1\n"
        "p = 0 1\n"
        "p' = 1 1\n"
    )


def test_datum_json_round_trip(matrix_file, capsys):
    assert run(["--format", "json", "datum", matrix_file(ID11)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "t": ["u1", "u2"],
        "sigma": [[1, 0], [0, 1]],
        "mu": [[1, 1], [1, -1]],
        "p": [0, 1],
        "p_prime": [1, 1],
    }


def test_support_member_exit_codes(matrix_file, capsys):
    path = matrix_file(EX_C)
    assert run(["support", "member", path, "-g", "2,1,0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"point": [2, 1, 0], "member": False, "witness": None}
    assert run(["support", "member", path, "-g", "1,2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is True
    assert payload["witness"] == [[1, 1], [2, 1], [3, 1], [2, 1]]


def test_support_member_negative_vector(matrix_file, capsys):
    assert run(["support", "member", matrix_file(EX_B), "-g", "-1,-2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["point"] == [-1, -2]


def test_support_enum_golden(matrix_file, capsys):
    assert run(["support", "enum", matrix_file(EX_B), "--box", "-4:4,-4:4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    points = [tuple(json.loads(line)["point"]) for line in lines]
    assert points == sorted(points)
    assert set(points) == {
        (0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, 2), (-1, -2),
    }
    assert all(json.loads(line)["member"] for line in lines)


def test_support_enum_even_lattice(matrix_file, capsys):
    assert run([
        "support", "enum", matrix_file(EX_B), "--box", "-4:4,-4:4", "--even-lattice",
    ]) == 0
    points = {tuple(json.loads(l)["point"]) for l in capsys.readouterr().out.splitlines()}
    assert points == {(0, 0), (1, 1), (-1, -1)}


def test_phi_and_eval(matrix_file, capsys):
    path = matrix_file(EX_C)
    assert run(["--format", "json", "phi", path, "-i", "1", "--kind", "X"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"column": 1, "kind": "X", "image": "x1*x2*x3"}
    assert run(["--format", "json", "eval", path, "-w", "X1,Y1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == [0, 0, 0]
    assert payload["zero"] is False


def test_consistency_exit(matrix_file, capsys):
    assert run(["consistency", matrix_file(ID11)]) == 0
    out = capsys.readouterr().out
    assert "pair(1,2): pass" in out
    assert "all_pass: yes" in out


def test_injectivity_json(matrix_file, capsys):
    assert run([
        "--format", "json", "injectivity", matrix_file(EX_B), "--box", "-3:3,-3:3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["globally_injective"] is True
    assert payload["pass"] is True


def test_lie_check(matrix_file, capsys):
    assert run(["lie", "check", "gl", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "all_pass: yes" in out
    assert run(["--format", "json", "lie", "check", "osp_odd", "1", "1", "--calibrate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert payload["calibration"]["f_scale"][-1] == "1/2"
    assert payload["calibration_source"] == "solver"


def test_usage_errors(matrix_file, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{bad json")
    assert run(["validate", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err
    # wrong vector length
    assert run(["support", "member", matrix_file(EX_B), "-g", "1,2,3"]) == 2
    capsys.readouterr()
    # cap violation
    assert run([
        "support", "enum", matrix_file(EX_B), "--box", "-4:4,-4:4", "--cap", "10",
    ]) == 2
    capsys.readouterr()
    # unknown subcommand
    assert run(["florp"]) == 2


@pytest.mark.parametrize("data", [
    {"sign": "minus", "parity": [1], "gamma": [[1.9, "-1"]]},
    {"sign": "minus", "parity": [1], "gamma": [[True]]},
    {"sign": "minus", "parity": ["1"], "gamma": [[1]]},
])
def test_non_integer_matrix_file_is_a_usage_error(matrix_file, capsys, data):
    assert run(["validate", matrix_file(data)]) == 2
    assert capsys.readouterr().out == ""


def test_output_is_deterministic(matrix_file, capsys):
    path = matrix_file(EX_C)
    run(["--format", "json", "datum", path])
    first = capsys.readouterr().out
    run(["--format", "json", "datum", path])
    assert capsys.readouterr().out == first


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize("argv, lines, digest", [
    (["support", "enum", "three_column.json", "--box", "-6:6,-6:6,-6:6"], 59,
     "9ec0c184cf0e7a6349684136f6a5b6ff4875033b740732db4d7bb1bdec106f55"),
    (["injectivity", "nine_point.json", "--box", "-20:20,-20:20"], 7,
     "63bd81f8ad550decc3f3e8b32dd4dc2a7a0e6768298981a3609f0d554bd0800d"),
], ids=["support enum three_column", "injectivity nine_point"])
def test_sample_box_commands_golden(argv, lines, digest, capsys):
    # stdout recorded from the full-box scan that preceded the pruned walk
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TRIPLE_FAIL = {"sign": "minus", "parity": [1, 1], "gamma": [[-1, 1, 1], [1, 1, -1]]}
DENSE_8 = {"sign": "minus", "parity": [0] * 8, "gamma": [[1, -1]] * 8}


@pytest.mark.parametrize("fmt, data, code, lines, digest", [
    ([], TRIPLE_FAIL, 1, 8,
     "a431ca0c1656977d09a376f57848a7724ae4b0fc6db99cc08662d8323e9941e9"),
    (["--format", "json"], TRIPLE_FAIL, 1, 1,
     "a32087f99bcceaba81111627c463d711b6decbce3d04fd4aa494fd894b621922"),
    ([], DENSE_8, 0, 3,
     "d64ef16187ba8e1081258e1bedd6c35b0aec211da410539c2c2a34ef0eddfbe5"),
    ([], "zeta gl 12 0", 0, 552,
     "f0855aa0409b5c2356799c5a8483543caf4447594da9a8435e0721ff35ce8737"),
], ids=["triple fail text", "triple fail json", "dense 2-column n=8", "zeta gl 12 0"])
def test_consistency_golden(fmt, data, code, lines, digest, matrix_file, capsys):
    # stdout recorded from the check that expanded every identity in all n variables
    if data == "zeta gl 12 0":
        data = gamma_to_dict(zeta_matrix("gl", 12, 0))
    assert run(fmt + ["consistency", matrix_file(data)]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    if data is TRIPLE_FAIL:
        assert "FAIL" in out if not fmt else '"pass": false' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


WIDE_WEYL = {
    "sign": "minus", "parity": [0, 0, 0],
    "gamma": [[500, -500, 0], [0, 400, -400], [-300, 0, 300]],
}


def test_consistency_on_large_weyl_entries(matrix_file, capsys):
    # stdout recorded from the check that shifted and multiplied integer
    # coefficient lists, which took about 25 s on this matrix
    assert run(["consistency", matrix_file(WIDE_WEYL)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fcfa517af2d64a9708b6cecabaa22ec1ce0bfdbff74eab3d5fdb80762673f85f"
    )


EMPTY = hashlib.sha256(b"").hexdigest()
HELP_PINS = [
    (["-h"], 0, "2025d67a1656d2a739b69497f51e7e8e08bc1429f042a39a52f3f35632c56687", EMPTY),
    (["validate", "-h"], 0,
     "af6ad29099c0b7bb6676ddee6287d29cb13b614a8c9b74d303735939662931b4", EMPTY),
    (["datum", "-h"], 0,
     "97efcfcfa8a946c68cb6da0e31e25568cf5d19213a2d9cf7589079f7a9d3454a", EMPTY),
    (["consistency", "-h"], 0,
     "adc3ecbc63d1fc9f41705a131738d7a071adb7fbcf77323cbc51cf27667f6aaa", EMPTY),
    (["phi", "-h"], 0,
     "2a0f5dd2840be40bf9a6f60ec1a2b5d8ae5036060e57fc595f0f8179ad84614f", EMPTY),
    (["eval", "-h"], 0,
     "f7228eaa520ee6b6e89fc421f2604cf7c29a7c796e04a591d102b1d3002bd3c4", EMPTY),
    (["support", "-h"], 0,
     "06f0226eb471865b70d222fb9f9f9832212a27e243176568a18a8cb392d9ebb9", EMPTY),
    (["support", "member", "-h"], 0,
     "d30a1bbab03e2efd491a870e586e18dbab3634d57ac7b9bf5b6005f4c88d440f", EMPTY),
    (["support", "enum", "-h"], 0,
     "9c491935c6fbff6c00b0a8bd4775e29df2b11b99cc7cf1bf24e1ba78162d9531", EMPTY),
    (["injectivity", "-h"], 0,
     "a1d20fbc69ed2dc9aad98f66e7e64987f8f3bdc2da459ca20f1db02b575da6f3", EMPTY),
    (["lie", "-h"], 0,
     "c7411be4959dbc32f095e38f81217e907ee2148b2a527cadbd8d3ed5c742cf57", EMPTY),
    (["lie", "check", "-h"], 0,
     "8c8d8719b29168997ce0150faaa4974b1acd2da01a4703a13bb694c73adcf35e", EMPTY),
    ([], 2, EMPTY, "17d41b5e959d8f5735a2480a1d3393560ff577a996f3ba2cd2259aaa51eaf0de"),
    (["florp"], 2, EMPTY,
     "099eec7bbc81a82284fac5064a79d919e7961600181b5ffea736ab77b33d3af4"),
    (["support", "florp"], 2, EMPTY,
     "be8800d760b38e845a04544d4293fe8f77929fd7eb1ab51cc59a7769a4cb6bbd"),
    (["lie"], 2, EMPTY, "77937f86cc3c573693a94553d8b627ea7abb1c2029c773d3dc79f0339a172321"),
    (["validate"], 2, EMPTY,
     "f0ccf7701009c039a130cfe1de0dfdd3635f9c3f98376c1a76f1e161bcf1caa6"),
    (["--format", "xml", "validate", "F"], 2, EMPTY,
     "c95ef26eb9c8d443f0e003eb600f002bce3ad6fe00b293407dc1bc5cdd9f7742"),
    (["--form", "json", "validate", "F"], 0,
     "8add4a6828d904a40b5d4f2e79a6ac8c67539f4a004644ab4794d153d3f12a43", EMPTY),
    (["support", "enum", "F", "--box", "-1:1,-1:1", "--cap", "x"], 2, EMPTY,
     "7e005e4a9caed4e271781845d1f4d940358d156dd01347dbf536abf53a351233"),
    (["lie", "check", "sl", "2", "2"], 2, EMPTY,
     "b446ff640bed6a89f4592193f54d74d0aebc22f1aabdb3839f1d5e83b8adbc12"),
    (["phi", "F", "-i", "1", "--kind", "Z"], 2, EMPTY,
     "37a5b9c3f2170fa107e314e70e235ac2b461227e670671e76d1e0994a6ef76f7"),
]


@pytest.mark.parametrize("argv, code, out_digest, err_digest", HELP_PINS,
                         ids=[" ".join(pin[0]) or "no arguments" for pin in HELP_PINS])
def test_help_and_usage_bytes(argv, code, out_digest, err_digest, monkeypatch, capsys):
    # help and usage errors recorded from the parser that built every subcommand;
    # argparse wraps help to the terminal width, so pin it.  F is samples/band.json.
    monkeypatch.setenv("COLUMNS", "80")
    assert run([str(SAMPLES / "band.json") if a == "F" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest


def test_run_builds_only_the_chosen_parser_chain(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    def parsers_built(argv):
        built.clear()
        run(argv)
        capsys.readouterr()
        gc.collect()
        # no parser is cached past the call that built it
        assert all(ref() is None for ref in built)
        return len(built)

    band = str(SAMPLES / "band.json")
    assert parsers_built(["validate", band]) == 2
    assert parsers_built(["validate", band]) == 2
    assert parsers_built(["support", "enum", band, "--box", "-1:1,-1:1"]) == 3
    assert parsers_built(["lie", "check", "gl", "2", "1"]) == 3
    assert parsers_built(["-h"]) == 1
    assert parsers_built(["support", "-h"]) == 2


def test_consistency_does_not_expand_t(matrix_file, monkeypatch, capsys):
    path = matrix_file(DENSE_8)
    assert run(["consistency", path]) == 0
    before = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("t expanded")

    monkeypatch.setattr(superweyl.datum, "derive_t", refuse)
    assert run(["consistency", path]) == 0
    assert capsys.readouterr().out == before


CAP_ERROR = "error: |entry| = 1001 exceeds the entry cap 1000\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["datum"], 2, "", CAP_ERROR),
    (["eval", "-w", "Y1,X1"], 2, "", CAP_ERROR),
    (["consistency"], 2, "", CAP_ERROR),
    (["validate"], 0, "valid: yes\n", ""),
], ids=["datum", "eval", "consistency", "validate"])
def test_entry_cap_is_a_resource_error(argv, code, out, err, matrix_file, capsys):
    at_cap = matrix_file({"sign": "minus", "parity": [0], "gamma": [[1000]]})
    over = matrix_file({"sign": "minus", "parity": [0], "gamma": [[1001]]}, "over.json")
    assert run(argv[:1] + [at_cap] + argv[1:]) == 0
    assert capsys.readouterr().err == ""
    assert run(argv[:1] + [over] + argv[1:]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [["-h"], ["lie", "check", "-h"], ["florp"]])
def test_module_entry_point_matches_run(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "superweyl.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    code = run(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def _fixture_copy(tmp_path, family, key, value, name="fixtures.json"):
    """The packaged calibration fixture with one value replaced, as a file."""
    data = json.loads(
        resources.files("superweyl").joinpath("data/lie_calibration.json").read_text()
    )
    data[family][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv, code, lines, digest", [
    (["lie", "check", "gl", "4", "4", "--calibrate"], 0, 193,
     "bff4baa6f33bc4917f2b477c09f19a416b19516879039f0faeb5e067daf73153"),
    (["--format", "json", "lie", "check", "osp_odd", "4", "4"], 0, 1,
     "ddb303f0070c54f8645bbf271b58430a903d6f9950ae68b7ce82769fab44b956"),
    (["lie", "check", "osp_even", "1", "7"], 0, 193,
     "24f5fe86bd0a5a11a1ca98a53dab5de4a0127fecc2a45f77cc3508286f4d42cd"),
    (["lie", "check", "gl", "16", "0"], 0, 829,
     "eb5c944def2880a9fb4f14095151c7e329a73e47b40791b50f5b0866ecdc732b"),
    (["lie", "check", "gl", "3", "2", "--fixtures", "E2"], 1, 70,
     "6994ccbcf4e2f852a9fd50c9ff283579124f9c34fdbec17c293825f5625bcc10"),
], ids=["gl 4 4 calibrate", "json osp_odd 4 4", "osp_even 1 7", "gl 16 0",
        "gl 3 2 e_scale 2"])
def test_lie_check_golden(argv, code, lines, digest, tmp_path, capsys):
    # stdout recorded from the residuals built by SuperElement products per call;
    # E2 is the packaged fixture with the gl raising scale set to 2
    e2 = _fixture_copy(tmp_path, "gl", "e_scale", "2")
    assert run([e2 if a == "E2" else a for a in argv]) == code
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    if code:
        assert out.count("FAIL residual") == 4
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fixture_file(tmp_path, kind):
    path = tmp_path / "fixtures.json"
    if kind == "missing file":
        return str(tmp_path / "absent.json")
    if kind == "directory":
        return str(tmp_path)
    if kind == "malformed json":
        path.write_text('{"gl": {"e_scale": "1",')
        return str(path)
    if kind == "missing family":
        data = json.loads(Path(_fixture_copy(tmp_path, "gl", "e_scale", "1")).read_text())
        del data["gl"]
        path.write_text(json.dumps(data))
        return str(path)
    if kind == "missing key":
        data = json.loads(Path(_fixture_copy(tmp_path, "gl", "e_scale", "1")).read_text())
        del data["gl"]["h_shift"]
        path.write_text(json.dumps(data))
        return str(path)
    if kind == "float value":
        return _fixture_copy(tmp_path, "gl", "f_scale", 0.1)
    if kind == "not a number":
        return _fixture_copy(tmp_path, "gl", "h_offset_scale", "one half")
    raise AssertionError(kind)


@pytest.mark.parametrize("kind, message", [
    ("missing file", "cannot read fixture file"),
    ("directory", "cannot read fixture file"),
    ("malformed json", "parse error at line 1"),
    ("missing family", "no calibration object for family 'gl'"),
    ("missing key", "gl: missing key 'h_shift'"),
    ("float value", "gl: f_scale must be an integer or a rational string"),
    ("not a number", "gl: h_offset_scale must be an integer or a rational string"),
])
def test_bad_fixture_file_is_a_usage_error(kind, message, tmp_path, capsys):
    path = _fixture_file(tmp_path, kind)
    assert run(["lie", "check", "gl", "1", "1", "--fixtures", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_calibrate_refuses_a_fixture_file(tmp_path, capsys):
    path = _fixture_copy(tmp_path, "gl", "e_scale", 1)
    for fixtures in (path, "/nonexistent.json"):
        assert run(["lie", "check", "gl", "1", "1", "--calibrate", "--fixtures", fixtures]) == 2
        assert capsys.readouterr() == (
            "", "error: --fixtures cannot be combined with --calibrate\n"
        )


def test_fixture_file_takes_ints_and_rational_strings(tmp_path, capsys):
    assert run(["lie", "check", "gl", "1", "1"]) == 0
    packaged = capsys.readouterr().out
    path = _fixture_copy(tmp_path, "gl", "e_scale", 1)
    assert run(["lie", "check", "gl", "1", "1", "--fixtures", path]) == 0
    assert capsys.readouterr().out == packaged


def test_undecodable_matrix_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"sign": "minus", "parity": [0], "gamma": [[1]], "note": "\xe9"}')
    assert run(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: matrix file {path}: ")


def _one_error_line(capsys, message):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_word_letter_takes_decimal_digits_only(matrix_file, capsys):
    # a superscript two passes str.isdigit but not int()
    assert run(["eval", matrix_file(ID11), "-w", "X\u00b2"]) == 2
    _one_error_line(capsys, "word letters look like X1 or Y2")


@pytest.mark.parametrize("argv", [
    ["validate", "{path}"],
    ["lie", "check", "gl", "1", "1", "--fixtures", "{path}"],
], ids=["matrix", "fixtures"])
def test_deeply_nested_file_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    assert run([a.format(path=path) for a in argv]) == 2
    _one_error_line(capsys, "nested too deeply to parse")


def test_witness_cap_is_a_resource_error(matrix_file, capsys):
    path = matrix_file({"sign": "minus", "parity": [0], "gamma": [[1]]})
    huge = "99999999999999999999999999"
    assert run(["support", "member", path, "-g", huge]) == 2
    _one_error_line(capsys, f"|g| = {huge} exceeds the witness cap 100000")
    assert run(["support", "enum", path, "--box", "100000:100001"]) == 2
    _one_error_line(capsys, "|g| = 100001 exceeds the witness cap 100000")


def test_word_degree_cap_is_a_resource_error(matrix_file, capsys):
    path = matrix_file({"sign": "minus", "parity": [0], "gamma": [[1000]]})
    assert run(["eval", path, "-w", "Y1,Y1,X1,X1"]) == 2
    assert capsys.readouterr() == (
        "", "error: word degree 4000 exceeds the word-degree cap 2500\n"
    )
    assert run(["eval", path, "-w", "Y1,X1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 2 and out.startswith("degree = [0]\nimage = ")


def test_lie_check_calibrate_checks_relations_once(monkeypatch, capsys):
    calls = []
    check_relations = superweyl.liesuper.check_relations

    def counting(*args, **kwargs):
        calls.append(args)
        return check_relations(*args, **kwargs)

    monkeypatch.setattr(superweyl.liesuper, "check_relations", counting)
    monkeypatch.setattr(superweyl.cli, "check_relations", counting)
    for argv in (
        ["lie", "check", "gl", "3", "2", "--calibrate"],
        ["--format", "json", "lie", "check", "osp_odd", "2", "2", "--calibrate"],
        ["lie", "check", "osp_even", "1", "3", "--calibrate"],
        ["lie", "check", "osp_even", "1", "3"],
    ):
        calls.clear()
        assert run(argv) == 0
        assert len(calls) == 1


def test_enumeration_letter_cap_is_a_resource_error(matrix_file, capsys):
    path = matrix_file({"sign": "minus", "parity": [0], "gamma": [[1]]})
    assert run(["support", "enum", path, "--box", "0:3000"]) == 2
    _one_error_line(capsys, "witnesses in the box exceed the enumeration cap of 1000000 letters")
    assert run(["support", "enum", path, "--box", "0:1413"]) == 0
    assert capsys.readouterr().out.count("\n") == 1414


WEYL_100 = {
    "sign": "minus", "parity": [0, 0, 0],
    "gamma": [[100, -100, 0], [0, 100, -100], [-100, 0, 100]],
}


def test_t_term_cap_is_a_resource_error(matrix_file, capsys):
    path = matrix_file(WEYL_100)
    for argv in (["datum", path], ["--format", "json", "datum", path]):
        assert run(argv) == 2
        _one_error_line(capsys, "t_1 has 10100 terms, over the term cap 10000")
    # consistency never expands t; stdout recorded before the cap, the same
    # as on WIDE_WEYL, whose entries have the same signs
    assert run(["consistency", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fcfa517af2d64a9708b6cecabaa22ec1ce0bfdbff74eab3d5fdb80762673f85f"
    )
    at_cap = matrix_file({"sign": "minus", "parity": [0, 0], "gamma": [[100], [-99]]}, "at.json")
    assert run(["--format", "json", "datum", at_cap]) == 0
    (t,) = json.loads(capsys.readouterr().out)["t"]
    assert t.count(" + ") + t.count(" - ") == 9999


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, renders", [
    (["datum", "{path}"], 3),
    (["phi", "{path}", "-i", "2", "--kind", "Y"], 1),
    (["eval", "{path}", "-w", "Y1,X2,X1"], 1),
], ids=["datum", "phi", "eval"])
def test_each_element_is_rendered_once(fmt, argv, renders, matrix_file, monkeypatch, capsys):
    path = matrix_file(EX_C)
    calls = []
    render = SparseElement.__str__

    def counting(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(SparseElement, "__str__", counting)
    assert run(fmt + [a.format(path=path) for a in argv]) == 0
    assert len(calls) == renders


@pytest.mark.parametrize("argv", [
    ["support", "enum", "{one}", "--box", "3:1"],
    ["support", "enum", "{two}", "--box", "0:1,3:1"],
    ["injectivity", "{one}", "--box", "3:1"],
    ["injectivity", "{two}", "--box", "3:1,0:1"],
])
def test_reversed_box_interval_is_a_usage_error(argv, matrix_file, capsys):
    paths = {
        "one": matrix_file({"sign": "minus", "parity": [0], "gamma": [[1]]}, "one.json"),
        "two": matrix_file(EX_B, "two.json"),
    }
    assert run([a.format(**paths) for a in argv]) == 2
    _one_error_line(capsys, "box intervals must satisfy lo <= hi")
    # a one-point interval still answers
    assert run(["support", "enum", paths["one"], "--box", "1:1"]) == 0


def test_t_digit_cap_is_a_resource_error(matrix_file, capsys):
    path = matrix_file({"sign": "minus", "parity": [0, 0], "gamma": [[1000], [-9]]})
    for argv in (["datum", path], ["--format", "json", "datum", path]):
        assert run(argv) == 2
        _one_error_line(capsys, "over the digit cap 10000000")
    below = matrix_file({"sign": "minus", "parity": [0, 0], "gamma": [[300], [-30]]}, "below.json")
    assert run(["datum", below]) == 0
    assert capsys.readouterr().out.startswith("t[1] = ")


def test_consistency_instance_cap_is_a_resource_error(matrix_file, capsys):
    # 65 distinct +-1 columns on seven Clifford rows: a valid matrix whose
    # 65 * 64 / 2 * 64 = 133,120 instances pass the cap
    columns = list(itertools.product((1, -1), repeat=7))[:65]
    path = matrix_file({"sign": "minus", "parity": [1] * 7,
                        "gamma": [[col[r] for col in columns] for r in range(7)]})
    assert run(["validate", path]) == 0
    capsys.readouterr()
    for argv in (["consistency", path], ["--format", "json", "consistency", path]):
        assert run(argv) == 2
        _one_error_line(
            capsys, "65 columns give 133120 consistency instances, over the cap 127008"
        )
