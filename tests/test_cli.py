import json
import os
import os.path as osp
import subprocess
import sys

import pytest

from lambdaops.cli import main

GOLDEN = osp.join(osp.dirname(osp.abspath(__file__)), "golden")


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lambdaops.cli", *argv],
        capture_output=True,
        text=True,
    )


def assert_one_error_line(got):
    assert got.returncode == 1
    lines = got.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), got.stderr


def test_upoly_pk2_golden():
    got = run_cli("--format", "json", "upoly", "pk", "2")
    assert got.returncode == 0
    with open(osp.join(GOLDEN, "cli_upoly_pk2.json")) as fh:
        assert json.loads(got.stdout) == json.load(fh)


@pytest.mark.parametrize("suite", ["models", "compose"])
def test_check_golden_bytes(suite):
    got = run_cli("--format", "json", "--trunc", "4", "--seed", "3", "check", suite)
    assert got.returncode == 0 and got.stderr == ""
    with open(osp.join(GOLDEN, f"cli_check_{suite}.json")) as fh:
        assert got.stdout == fh.read()


def test_upoly_text_forms():
    assert run_cli("upoly", "pij", "1", "5").stdout.strip() == "L5"
    assert run_cli("upoly", "plin", "2").stdout.strip() == "x2*y1^2 - 2*x2*y2"
    assert run_cli("upoly", "psi", "2").stdout.strip() == "L1^2 - 2*L2"


def test_upoly_plin_is_the_left_linear_part_of_p_k(capsys):
    from helpers import from_obj
    from lambdaops.symfun import left_linearise, universal_pk

    for k in range(1, 11):
        want = left_linearise(universal_pk(k))
        assert main(["upoly", "plin", str(k)]) == 0
        assert capsys.readouterr().out == f"{want}\n", k
        assert main(["--format", "json", "upoly", "plin", str(k)]) == 0
        assert from_obj(json.loads(capsys.readouterr().out)["result"]) == want, k


def test_upoly_bad_indices():
    for argv in (
        ["upoly", "pij", "3"],
        ["upoly", "pk", "13"],
        ["upoly", "pij", "5", "6"],
        ["upoly", "psi", "41"],
    ):
        assert_one_error_line(run_cli(*argv))


def test_compose_identity():
    got = run_cli("compose", "identity", "chi(2)@L1")
    assert got.returncode == 0
    assert got.stdout.strip() == "chi(2)(x)(L1)"


def test_compose_odd_examples():
    assert run_cli("compose", "l2", "l2").stdout.strip() == "-l4"
    assert run_cli("compose", "l1", "l3").stdout.strip() == "l3"
    got = run_cli("--format", "json", "compose", "l2", "l2")
    with open(osp.join(GOLDEN, "cli_compose_l2_l2.json")) as fh:
        assert json.loads(got.stdout) == json.load(fh)


def test_compose_single_argument_with_sign():
    assert run_cli("compose", "l1 ∘ l3").stdout.strip() == "l3"


def test_compose_parity_mismatch():
    assert_one_error_line(run_cli("compose", "l2", "L2"))


def test_act_examples():
    assert run_cli("act", "--model", "sphere", "identity", "u").stdout.strip() == "u"
    assert run_cli("act", "--model", "sphere", "1@L2", "u").stdout.strip() == "-u"
    assert run_cli("act", "--model", "zz", "chi(0)@L1", "3").stdout.strip() == "0"
    assert run_cli("act", "--model", "split:2", "identity", "x1*x2 + 2").stdout.strip() == "2 + x1*x2"


# Elements that carry powers of u above the model's top degree m; the action
# reads only u^0..u^m of its argument.
UNREDUCED_ACT = [
    ("sphere", "const(1)@L2", "u + u*u*u*u", "-u"),
    ("cp:2", "const(1)@L2", "2 + u*u + u*u*u*u*u*u", "-2*u^2"),
    ("cp:2", "const(1)@L2", "3*u - u*u*u*u", "-3*u + 3*u^2"),
    ("cp:2", "const(2)@L3", "2*u*u + u*u*u*u", "12*u^2"),
    ("cp:3", "id@L3", "2 + u*u + u*u*u*u*u*u", "6*u^2 + 12*u^3"),
    ("cp:3", "const(2)@L3", "2*u*u + u*u*u*u", "12*u^2 + 24*u^3"),
    ("cp:3", "const(-1)@(L1*L1*L1)", "3*u - u*u*u*u", "-27*u^3"),
    ("cp:3", "const(2)@L3", "u*u*u", "18*u^3"),
]


@pytest.mark.parametrize("model, op, element, shown", UNREDUCED_ACT)
def test_act_on_unreduced_elements(capsys, model, op, element, shown):
    assert main(["act", op, element, "--model", model, "--trunc", "6"]) == 0
    assert capsys.readouterr().out == shown + "\n"


def test_loop_examples():
    assert run_cli("loop", "identity").stdout.strip() == "l1"
    assert run_cli("loop", "chi(3)@L1").stdout.strip() == "0"
    assert run_cli("loop", "(" * 200 + "L1" + ")" * 200).stdout.strip() == "l1"
    # a chain of 200 binary operators (199 '+' and the '@') is the bound
    assert run_cli("loop", "(" + "+".join(["chi(1)"] * 200) + ")@L1").stdout.strip() == "0"
    got = run_cli("--model", "split:2", "act", "(" + "*".join(["chi(1)"] * 200) + ")@L1", "x1")
    assert got.stdout.strip() == "-1 + x1"
    looped = run_cli("loop", "l1").stdout.strip()
    assert looped.startswith("chi(-16)(x)(L1)")


def test_loop_guards():
    got = run_cli("loop", "const(1)@1")
    assert got.returncode == 1


def test_coprod_ring_element():
    got = run_cli("coprod", "add", "L2")
    assert got.stdout.strip() == "(1)(x)(L2) + (L1)(x)(L1) + (L2)(x)(1)"
    got = run_cli("coprod", "mul", "L2")
    assert got.stdout.strip() == "(L1^2)(x)(L2) + (L2)(x)(L1^2 - 2*L2)"


def test_coprod_operation_goldens():
    op = "chi(2)@(L1*L2) + const(1)@L3"
    for kind in ("mul", "add"):
        got = run_cli("--format", "json", "--trunc", "4", "--window", "4", "coprod", kind, op)
        assert got.returncode == 0
        with open(osp.join(GOLDEN, f"cli_coprod_{kind}.json"), encoding="utf-8") as fh:
            assert got.stdout == fh.read(), kind


def test_coprod_operation_json():
    got = run_cli("--format", "json", "--window", "2", "coprod", "add", "chi(0)@L1")
    data = json.loads(got.stdout)
    assert data["carrier"] == "operation"
    keys = [(i, j) for i, j, _ in data["result"]]
    assert keys == sorted(keys)
    assert all(i + j == 0 for i, j in keys)


def test_check_exit_codes_and_determinism():
    a = run_cli("--format", "json", "check", "models")
    b = run_cli("--format", "json", "check", "models")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["pass"] is True
    assert report["config"]["seed"] == 0


def test_check_respects_seed_in_config():
    got = run_cli("--format", "json", "--seed", "5", "check", "models")
    assert json.loads(got.stdout)["config"]["seed"] == 5


def test_check_biring_text_report():
    got = run_cli("check", "biring", "--trunc", "4")
    assert got.returncode == 0
    lines = got.stdout.strip().splitlines()
    assert lines[-1] == "biring: PASS"
    assert all("PASS" in ln for ln in lines)


def test_operand_errors_exit_nonzero():
    assert run_cli("compose", "nonsense(", "l1").returncode == 1
    assert run_cli("act", "--model", "nope", "identity", "1").returncode == 1
    for argv in (
        ["act", "--model", "zz", "identity", "u"],
        ["act", "--model", "sphere", "1@L2", "x1"],
        ["act", "--model", "zz", "L2", "x1"],
        ["act", "--model", "coi", "L2", "u"],
        ["act", "--model", "split:2", "L2", "x5"],
        ["act", "--model", "split:0", "L2", "1"],
        ["act", "--model", "split:-1", "L2", "x1"],
        ["loop", "const("],
        ["loop", "chi(x)"],
        ["act", "l1", "1"],
        ["act", "identity", "chi(1)"],
        ["coprod", "mul", "chi(0)@L1", "--window", "-3"],
        ["coprod", "mul", "chi(0)@L1", "--window", "0"],
        ["check", "models", "--trunc", "0"],
        ["--window", "abc", "loop", "L1"],
        ["nonsense"],
        [],
        ["loop", "(" * 400 + "L1" + ")" * 400],
        ["loop", " " + "-" * 2000 + "L1"],
        ["loop", "(" + "+".join(["chi(1)"] * 2000) + ")@L1"],
        ["--model", "split:2", "act", "(" + "*".join(["chi(1)"] * 2000) + ")@L1", "x1"],
        ["loop", "(" + "+".join(["chi(1)"] * 201) + ")@L1"],
        ["loop", "(" * 20 + "chi(1)" + "+chi(1))" * 20 + "@L1" + "+L1" * 181],
    ):
        assert_one_error_line(run_cli(*argv))
    assert run_cli("--help").returncode == 0


def test_exponent_bound_is_one_error_line():
    # (L1^k) o (L1^k) = L1^(k*k): 181^2 = 32761 fits a packed exponent field,
    # 182^2 = 33124 passes MAX_EXPONENT = 32767
    def power(k):
        return "*".join(["L1"] * k)

    got = run_cli("--trunc", "2", "--window", "1", "compose", power(181), power(181))
    assert got.returncode == 0 and "L1^32761" in got.stdout
    got = run_cli("--trunc", "2", "--window", "1", "compose", power(182), power(182))
    assert_one_error_line(got)
    assert got.stderr == "error: exponent above 32767, the bound of a packed monomial\n"


def test_refused_variables_take_no_packed_slot():
    # the packed-monomial registry never shrinks, so a variable the command
    # refuses or truncates away must not be built
    import contextlib
    import io

    from lambdaops import cli, intpoly

    def run(*argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return cli.main(list(argv)), err.getvalue()

    for element in ("x77777", "x77777 - x77777", "x1 + x77777"):
        assert run("act", "--model", "split:2", "id@L1", element) == (
            1, f"error: element {element!r} is not in model split:2\n")
    assert run("act", "--model", "zz", "id@L1", "u") == (1, "error: element 'u' is not in model zz\n")
    assert run("--trunc", "2", "compose", "L77777", "id@L1") == (0, "")
    assert ("x", 77777) not in intpoly._SHIFTS and ("L", 77777) not in intpoly._SHIFTS


def test_model_m_bound():
    # m above 64 fails with one error line before any model is built
    for selector in ("cp:65", "split:65", "cp:3000", "split:99999999"):
        got = run_cli("act", "--model", selector, "L1", "3")
        assert_one_error_line(got)
        assert got.stderr == f"error: model {selector}: m must be at most 64\n"
    for selector in ("cp:x", "split:", "cp:1.5"):
        got = run_cli("act", "--model", selector, "L1", "3")
        assert got.stderr == f"error: model {selector}: m must be an integer\n"
    for selector, element, value in (("cp:64", "u", "-u^2"),
                                     ("split:64", "x64", "-2 + 3*x64 - x64^2")):
        got = run_cli("act", "--model", selector, "L1*L2 + chi(1)@L3", element)
        assert got.returncode == 0 and got.stdout == value + "\n"


def test_closed_stdout_is_one_error_line():
    # block-buffered stdout, as in a shell pipeline: the write fails in main,
    # or (small output, reader gone first) only at main's flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv, keep in ((["coprod", "mul", "const(1)@L5", "--format", "json"], 100),  # ~2 MB
                       (["upoly", "pk", "3"], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "lambdaops.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert len(proc.stdout.read(keep)) == keep
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1, argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert "Traceback" not in err and "Exception ignored" not in err


def test_byte_identical_reruns():
    for argv in (
        ["--format", "json", "upoly", "pk", "3"],
        ["--format", "json", "compose", "identity", "chi(1)@L2"],
        ["--format", "json", "loop", "l2"],
    ):
        assert run_cli(*argv).stdout == run_cli(*argv).stdout


# one command of each kind, as printed with --format json
EVERY_KIND = [
    ["upoly", "pij", "2", "3"],
    ["compose", "chi(1)@L2 + const(1)@(L1*L1)", "chi(2)@(L1*L1)"],
    ["compose", "l1*l2", "l3", "--trunc", "8"],
    ["act", "--model", "cp:3", "chi(1)@L2 + id@L1", "2*u + 1"],
    ["loop", "chi(1)@L2 - chi(0)@L2"],
    ["loop", "l1*l2 + 3*l3"],
    ["coprod", "add", "L3 - 2*L1*L2"],
    ["coprod", "mul", "const(-1)@L3 + chi(2)@(L1*L2)"],
    ["check", "models", "--trunc", "3"],
]


@pytest.mark.parametrize("argv", EVERY_KIND)
def test_json_output_is_compact_with_sorted_keys(argv):
    got = run_cli("--format", "json", *argv)
    assert got.returncode == 0, got.stderr
    out = got.stdout.rstrip("\n")
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) == out


@pytest.mark.parametrize("argv, explicit", [
    (["loop", "const(2) + L1"], ["loop", "const(2)@1 + const(1)@L1"]),
    (["loop", "L1 + const(2)"], ["loop", "const(2)@1 + const(1)@L1"]),
    (["loop", "chi(1) - chi(2) + L1"], ["loop", "(chi(1) - chi(2))@1 + const(1)@L1"]),
    (["loop", "L1 + chi(1) - chi(2)"], ["loop", "(chi(1) - chi(2))@1 + const(1)@L1"]),
    (["compose", "chi(2)@L2", "const(2) + L1"],
     ["compose", "chi(2)@L2", "const(2)@1 + const(1)@L1"]),
    (["compose", "chi(2)@L2", "L1 + const(2)"],
     ["compose", "chi(2)@L2", "const(2)@1 + const(1)@L1"]),
])
def test_function_plus_ring_element_is_an_even_operation(argv, explicit):
    # each summand promotes on its own, so the sum is the explicit even form
    for fmt in ("json", "text"):
        got, want = run_cli("--format", fmt, *argv), run_cli("--format", fmt, *explicit)
        assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr)
    assert "parity" not in got.stderr


def test_odd_value_is_no_even_operation():
    got = run_cli("coprod", "add", "l1")
    assert (got.returncode, got.stdout) == (1, "")
    assert got.stderr == "error: cannot use an odd value as an even operation\n"


def test_parity_hint_only_for_odd_values():
    got = run_cli("loop", "l1 + L1")
    assert_one_error_line(got)
    assert got.stderr == "error: cannot add odd and kbu (parity mismatch?)\n"
    got = run_cli("act", "--model", "sphere", "identity", "u + chi(1)")
    assert_one_error_line(got)
    assert got.stderr == "error: cannot add poly and fn\n"
