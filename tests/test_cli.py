import hashlib
import json
from pathlib import Path

import pytest

from superweyl import gamma_to_dict, zeta_matrix
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
