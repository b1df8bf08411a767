import json
import os
import subprocess
import sys
import time

import pytest

import hyperq
from helpers import empty_quotient_membership, forbid_quotients
from hyperq import exprlang, finmodel
from hyperq.cli import DOMAIN, OK, PARSE, USAGE, main, run_command
from hyperq.germ import MAX_DEGREE, MAX_EXPONENT, MAX_FAMILY_WORK
from hyperq.hull import MAX_CHECK_DEPTH


PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hyperq.__file__)))
FAMILY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "family.sigma")


def run(*argv):
    return run_command(list(argv))


def test_eval_reduces():
    r = run("eval", "(w^2-1)/(w+1) + 1")
    assert r.exit_code == OK and r.text == "w"


def test_shadow_delegates_to_germ_machinery():
    r = run("shadow", "(2*w^2+3)/(w^2-w)")
    assert r.text == "2"
    assert r.payload["value"] == {"num": 2, "den": 1}


def test_shadow_unlimited_marker():
    r = run("shadow", "w^3")
    assert r.text == "+inf"
    assert r.payload["value"] == {"inf": "+"}


def test_classify():
    assert run("classify", "1/w^2").text == "infinitesimal-nonzero"


def test_measure_open_interval():
    r = run("measure", "(1/4,3/4)")
    assert r.text == "1/2"
    assert r.payload["value"] == {"num": 1, "den": 2}


def test_measure_supports_germ_endpoints():
    assert run("measure", "[1/w, 1/2]").text == "1/2"


def test_zero_denominator_exit_code():
    r = run("eval", "1/0")
    assert r.exit_code == PARSE


def test_unknown_command_exit_code():
    r = run("frobnicate", "1")
    assert r.exit_code == USAGE


def test_domain_error_exit_code():
    r = run("hull", "point", "q", "w")  # unlimited point
    assert r.exit_code == DOMAIN


def test_division_by_zero_germ_is_domain_error():
    r = run("eval", "1/(w - w)")
    assert r.exit_code == DOMAIN


def test_hull_commands():
    assert run("hull", "point", "q", "1 - 1/w").text == "1"
    assert run("hull", "dist", "q", "2 - 1/w", "1/2").text == "3/2"
    assert run("hull", "approachable", "n", "w").text == "false"
    assert run("hull", "approachable", "n", "5").text == "true"
    assert run("hull", "limit", "k/(k+1)").text == "1"
    assert run("hull", "point", "v:2", "1 + 1/w, 1/w").text == "(1, 0)"


def test_ext_command():
    r = run("ext", "(3 + M0)*(2 + M0)")
    assert r.text == "6 + M0"
    assert r.payload["neutrix"] == "M0"


def test_oracle_small_sweep():
    r = run("oracle", "--index-size", "2", "--carrier-size", "2", "--depth", "2")
    assert r.exit_code == OK
    assert "PASS" in r.text
    assert r.payload["los"]["mismatches"] == 0


def test_oracle_model_file(tmp_path):
    model = tmp_path / "toy.model"
    model.write_text("carrier: 0 1\nmember: 0 1\nindex: 3\nw: 1\n")
    r = run("oracle", "--model", str(model))
    assert r.exit_code == OK and "PASS" in r.text


def test_sigma_file(tmp_path):
    schema = tmp_path / "family.sigma"
    schema.write_text("mode: increasing\nstart: 1\ndepth: 10\npiece: [1/k, 1]\n")
    r = run("measure", "--sigma", str(schema))
    assert r.text == "1"
    assert r.payload["values"][0] == {"k": 1, "num": 0, "den": 1}


def test_sigma_file_depth_zero_is_kept(tmp_path):
    schema = tmp_path / "zero.sigma"
    schema.write_text("mode: increasing\nstart: 1\ndepth: 0\npiece: [1/k, 1]\n")
    r = run("measure", "--sigma", str(schema))
    assert r.exit_code == OK
    assert r.payload["depth"] == 0
    assert r.payload["values"] == [{"k": 1, "num": 0, "den": 1}]
    assert r.payload == run("measure", "--sigma", str(schema), "--depth", "0").payload


@pytest.mark.parametrize("argv, message", [
    (["measure", "--sigma", FAMILY, "[0,1]", "junk"], "unexpected arguments: [0,1] junk"),
    (["measure", "[0,1]", "--sigma", FAMILY], "unexpected arguments: [0,1]"),
    (["measure", "[0,1]", "--depth", "5"], "--depth applies only to --sigma"),
    (["measure", "--depth", "5", "[0,1]"], "--depth applies only to --sigma"),
    (["measure", "--depth"], "--depth needs a value"),
], ids=["sigma-operands", "sigma-operand-first", "depth-after-set", "depth-before-set",
        "depth-without-value"])
def test_measure_refuses_arguments_it_would_ignore(capsys, argv, message):
    r = run(*argv)
    assert r.exit_code == USAGE and r.text == f"error: {message}"
    assert main(["--json", *argv]) == USAGE
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == USAGE
    assert record["error"] == message


def test_sigma_mode_is_checked_on_every_member(tmp_path):
    # 20 pieces a member: only the first ~1000 members fit a 20000-piece
    # budget, and the last piece's lower end turns upwards after k = 1200
    pieces = [f"piece: [{i}/40, {i}/40 + 1/100]" for i in range(19)]
    pieces.append("piece: [3/4 + (k-1200)^2/(20*((k-1200)^2 + 1000000)), 9/10]")
    schema = tmp_path / "late.sigma"
    schema.write_text("\n".join(["mode: increasing", "start: 1", "depth: 1500"] + pieces) + "\n")
    r = run("measure", "--sigma", str(schema))
    assert r.exit_code == DOMAIN
    assert r.text == ("error: increasing mode not proved: "
                      "the lower end of piece 20 rises at k=1200")


def test_outputs_deterministic():
    first = run("measure", "[0,1/3] | (1/2,1]")
    second = run("measure", "[0,1/3] | (1/2,1]")
    assert first.text == second.text
    assert json.dumps(first.payload, sort_keys=True) == json.dumps(
        second.payload, sort_keys=True
    )


def test_json_and_plain_encode_same_value():
    r = run("shadow", "(2*w^2+3)/(w^2-w)")
    assert r.text == "2" and r.payload["value"] == {"num": 2, "den": 1}


def test_main_returns_exit_code(capsys):
    assert main(["shadow", "w"]) == OK
    assert capsys.readouterr().out.strip() == "+inf"
    assert main(["eval", "1/0"]) == PARSE
    capsys.readouterr()


def test_main_json_output(capsys):
    assert main(["--json", "classify", "w"]) == OK
    record = json.loads(capsys.readouterr().out)
    assert record == {"command": "classify", "status": "ok", "value": "unlimited-positive"}


def _env_with_package():
    """The environment with the package root first on PYTHONPATH, so that
    a subprocess imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


def test_repl_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "repl"],
        input="shadow (2*w^2+3)/(w^2-w)\n(w+1)*(w-1)\nexit\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_package(),
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1] == "w^2 - 1"
    assert proc.returncode == 0


def test_repl_recovers_from_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "repl"],
        input="eval 1/0\nshadow 1/w\nquit\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=_env_with_package(),
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("error:")
    assert lines[1] == "0"


@pytest.mark.parametrize(
    "expr",
    ["(" * 200 + "1" + ")" * 200, "-" * 2000 + "1", "+".join(["1"] * 5000)],
    ids=["nested-parentheses", "unary-minuses", "long-sum"],
)
def test_too_deep_input_is_a_parse_error(expr):
    r = run("eval", expr)
    assert r.exit_code == PARSE
    assert f"deeper than {exprlang.MAX_DEPTH} levels" in r.text


@pytest.mark.parametrize("command", [["measure", "--sigma"], ["oracle", "--model"]])
@pytest.mark.parametrize("target", ["missing.txt", "."])
def test_unreadable_input_file_is_domain_error(tmp_path, capsys, command, target):
    path = str(tmp_path / target)
    r = run(*command, path)
    assert r.exit_code == DOMAIN
    assert r.text.startswith("error: ") and path in r.text
    assert main(["--json", *command, path]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == DOMAIN


@pytest.mark.parametrize("argv, message", [
    (["measure", "--sigma", FAMILY, "--depth", "-1"], "error: depth must be nonnegative, got -1"),
    (["hull", "limit", "k/(k+1)", "--check-depth", "-1"],
     "error: check depth must be nonnegative, got -1"),
], ids=["measure-sigma", "hull-limit"])
def test_negative_depth_is_domain_error(capsys, argv, message):
    _assert_domain_error(capsys, argv, message)


@pytest.mark.parametrize("argv, message", [
    (["measure", "--sigma", FAMILY, "--depth", str(MAX_CHECK_DEPTH + 1)],
     f"error: depth {MAX_CHECK_DEPTH + 1} exceeds the limit of {MAX_CHECK_DEPTH}"),
    (["measure", "--sigma", FAMILY, "--depth", "10000000"],
     f"error: depth 10000000 exceeds the limit of {MAX_CHECK_DEPTH}"),
    (["hull", "limit", "k/(k+1)", "--check-depth", str(MAX_CHECK_DEPTH + 1)],
     f"error: check depth {MAX_CHECK_DEPTH + 1} exceeds the limit of {MAX_CHECK_DEPTH}"),
], ids=["measure-sigma", "measure-sigma-far", "hull-limit"])
def test_depth_above_the_limit_is_domain_error(capsys, argv, message):
    start = time.process_time()
    _assert_domain_error(capsys, argv, message)
    assert time.process_time() - start < 1


def _assert_domain_error(capsys, argv, message):
    """Exit 4 with ``message``, plain and as a --json error record."""
    r = run(*argv)
    assert r.exit_code == DOMAIN and r.text == message
    assert main(["--json", *argv]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == DOMAIN
    assert "error: " + record["error"] == message


@pytest.mark.parametrize("expr", ["w^1001", "w^-1001"])
def test_exponent_beyond_the_limit_is_domain_error(capsys, expr):
    r = run("eval", expr)
    assert r.exit_code == DOMAIN
    assert r.text.startswith("error: ") and f"limit of {MAX_EXPONENT}" in r.text
    assert main(["--json", "eval", expr]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == DOMAIN
    assert f"limit of {MAX_EXPONENT}" in record["error"]


@pytest.mark.parametrize("argv, exponent", [
    (["eval", "(w+1)^1000*(w+2)^1000 + w^1001"], 1001),
    (["eval", "(w+1)^1000*(w+2)^1000 + shadow(1/w^1001)"], 1001),
    (["hull", "limit", "(k+w)^900*(k+1)^900/w^-1001"], -1001),
    (["ext", "(w+1)^1000*(w+2)^1000 + w^1001 + N(-3)"], 1001),
], ids=["germ", "shadow", "family", "ext"])
def test_exponent_beyond_the_limit_is_refused_before_any_arithmetic(argv, exponent):
    # the product on the left of w^1001 took about 3 s before the exponent was reached
    start = time.process_time()
    r = run(*argv)
    assert time.process_time() - start < 0.5
    assert r.exit_code == DOMAIN
    assert r.text == (f"error: exponent {exponent} exceeds the limit of {MAX_EXPONENT} "
                      "in absolute value")


@pytest.mark.parametrize("grade", [-1001, 1001])
def test_neutrix_grade_beyond_the_limit_is_domain_error(capsys, grade):
    expr = f"1/(w+1) + N({grade})"
    r = run("ext", expr)
    assert r.exit_code == DOMAIN
    assert r.text == (f"error: neutrix grade {grade} exceeds the limit of "
                      f"{MAX_EXPONENT} in absolute value")
    assert main(["--json", "ext", expr]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == DOMAIN
    assert f"limit of {MAX_EXPONENT}" in record["error"]


def test_neutrix_grade_at_the_limit_is_fast():
    start = time.process_time()
    r = run("ext", "1/(w+1) + N(-1000)")
    assert time.process_time() - start < 1
    assert r.exit_code == OK
    assert r.text.startswith("(w^998 - w^997 + ") and r.text.endswith(")/w^999 + N(-1000)")


def test_exponent_at_the_limit_prints():
    start = time.process_time()
    r = run("eval", "(w+1)^1000")
    assert time.process_time() - start < 5
    assert r.exit_code == OK
    assert r.text.startswith("w^1000 + 1000*w^999 + 499500*w^998 + ")
    assert r.text.endswith(" + 499500*w^2 + 1000*w + 1")
    assert r.text.count(" + ") == 1000


@pytest.mark.parametrize("argv, degree", [
    (["eval", "((w+1)^100)^100"], 10000),
    (["eval", "w^1000*w^1000*w"], MAX_DEGREE + 1),
    (["eval", "(w^1000+1)/(w^1000+2) + (w^1000+3)/(w^1000*w+5)"], MAX_DEGREE + 1),
    (["eval", "(w^1000+1)/(w^1000*w+2)/(w^1000+3)"], MAX_DEGREE + 1),
    (["hull", "limit", "((k+1)^100)^100"], 10000),
    (["hull", "limit", "k*((w+1)^100)^100"], 10000),
], ids=["germ-power", "germ-product", "germ-sum", "germ-quotient", "family-power-in-k",
        "family-power-in-w"])
def test_degree_beyond_the_limit_is_refused_at_once(capsys, argv, degree):
    start = time.process_time()
    _assert_domain_error(capsys, argv, f"error: degree {degree} exceeds the limit of {MAX_DEGREE}")
    assert time.process_time() - start < 1


def test_family_work_beyond_the_limit_is_refused_at_once(capsys):
    # total degree 1000 passes the degree cap, but the power would form
    # about 10^8 multiply-adds of coefficients
    message = ("error: family operation costing 126003004 multiply-adds exceeds the limit of "
               f"{MAX_FAMILY_WORK}")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "hull", "limit", "(k+w)^1000/w^1000"],
        capture_output=True, text=True, timeout=60, env=_env_with_package(),
    )
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (DOMAIN, message + "\n")
    _assert_domain_error(capsys, ["hull", "limit", "(k+w)^1000/w^1000"], message)


def test_family_work_below_the_limit_is_unchanged():
    r = run("hull", "limit", "(k+w)^80/w^80")
    assert r.exit_code == DOMAIN
    assert r.text == "error: limit is 1208925819614629174706175 from member at tolerance 1/1"


def test_high_degree_quotient_is_fast(capsys):
    # a degree-100 and a degree-49 polynomial, coprime: the gcd of the
    # quotient is certified modulo a prime, not run by Euclid over Q
    golden = os.path.join(os.path.dirname(FAMILY), "slow_quotient.out")
    start = time.process_time()
    assert main(["eval", "(2*w^2+3*w-1)^50/(w-1)^49"]) == OK
    assert time.process_time() - start < 1
    with open(golden, "rb") as handle:
        assert capsys.readouterr().out.encode() == handle.read()


@pytest.mark.parametrize("argv, mismatches", [
    (["oracle", "--index-size", "2", "--carrier-size", "2", "--depth", "1"], 780),
    (["oracle", "--model", "{model}", "--depth", "2"], 322),
], ids=["sweep", "model"])
def test_oracle_failure_exits_4(monkeypatch, capsys, tmp_path, argv, mismatches):
    model = tmp_path / "fault.model"
    model.write_text("carrier: 0 1 2\nmember: 0 1\nmember: 1 2\nindex: 3\nw: 1\n")
    argv = [a.format(model=model) for a in argv]
    empty_quotient_membership(monkeypatch)
    r = run(*argv)
    assert r.exit_code == DOMAIN and r.status == "error"
    assert r.text.startswith(f"error: oracle found {mismatches} mismatches\n")
    assert r.text.endswith("FAIL") and f", {mismatches} mismatches" in r.text
    assert main(["--json", *argv]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["passed"] is False
    assert (record["error"], record["code"]) == (f"oracle found {mismatches} mismatches", DOMAIN)
    assert record.get("los", record)["mismatches"] == mismatches


@pytest.mark.parametrize("argv, limit", [
    (["oracle", "--index-size", "100"], f"<= {finmodel.MAX_FUNCTIONS}"),
    (["oracle", "--carrier-size", "4"], f"limit of {finmodel.MAX_SWEEP_CARRIER}"),
    (["oracle", "--model", "{index}"], f"<= {finmodel.MAX_FUNCTIONS}"),
    (["oracle", "--model", "{carrier}"], f"limit of {finmodel.MAX_MODEL_CARRIER}"),
], ids=["sweep-index", "sweep-carrier", "model-index", "model-carrier"])
def test_oracle_caps_are_domain_errors(monkeypatch, capsys, tmp_path, argv, limit):
    forbid_quotients(monkeypatch)
    (tmp_path / "index.model").write_text("carrier: 0 1 2\nindex: 100\nw: 0\n")
    atoms = " ".join(f"a{i}" for i in range(finmodel.MAX_MODEL_CARRIER + 1))
    (tmp_path / "carrier.model").write_text(f"carrier: {atoms}\nindex: 1\nw: 0\n")
    argv = [a.format(index=tmp_path / "index.model", carrier=tmp_path / "carrier.model")
            for a in argv]
    r = run(*argv)
    assert r.exit_code == DOMAIN and r.text.startswith("error: ") and r.text.endswith(limit)
    assert main(["--json", *argv]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == DOMAIN
    assert record["error"].endswith(limit)


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--index-size", "1", "--carrier-size", "2", "--depth", "7"],
     "formula depth 7 is outside the pool's depths 1 to 2"),
    (["oracle", "--depth", "0"], "formula depth 0 is outside the pool's depths 1 to 2"),
    (["oracle", "--depth", "-3"], "formula depth -3 is outside the pool's depths 1 to 2"),
    (["oracle", "--index-size", "0"], "sweep index size 0 is below the limit of 1"),
    (["oracle", "--carrier-size", "0"], "sweep carrier size 0 is below the limit of 1"),
    (["oracle", "--model", "{model}", "--depth", "3"],
     "formula depth 3 is outside the pool's depths 1 to 2"),
], ids=["depth-7", "depth-0", "depth-negative", "index-0", "carrier-0", "model-depth-3"])
def test_oracle_refuses_sizes_and_depths_it_would_ignore(
        monkeypatch, capsys, tmp_path, argv, message):
    model = tmp_path / "ok.model"
    model.write_text("carrier: 0 1\nmember: 0 1\nindex: 2\nw: 0\n")
    argv = [a.format(model=model) for a in argv]
    forbid_quotients(monkeypatch)
    r = run(*argv)
    assert r.exit_code == DOMAIN and r.text == f"error: {message}"
    assert main(["--json", *argv]) == DOMAIN
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["error"] == message


@pytest.mark.parametrize("expr", ["shadow(M0)", "shadow(w + M0)"])
def test_shadow_of_an_external_number_is_refused(expr):
    r = run("ext", expr)
    assert r.exit_code == DOMAIN
    assert r.text == "error: shadow takes a germ, not an external number"


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--model", "{model}", "--index-size", "100", "--carrier-size", "0"],
     "--index-size"),
    (["oracle", "--model", "{model}", "--carrier-size", "2"], "--carrier-size"),
    (["oracle", "--index-size", "2", "--model", "{model}", "--depth", "1"], "--index-size"),
], ids=["both", "carrier", "index"])
def test_oracle_model_refuses_sweep_sizes(monkeypatch, capsys, tmp_path, argv, flag):
    # a model file sets its own carrier and index; the sweep sizes would be ignored
    model = tmp_path / "ok.model"
    model.write_text("carrier: 0 1\nmember: 0 1\nindex: 2\nw: 0\n")
    argv = [a.format(model=model) for a in argv]
    forbid_quotients(monkeypatch)
    message = f"{flag} does not apply to --model: the model file sets the sizes"
    r = run(*argv)
    assert r.exit_code == USAGE and r.text == f"error: {message}"
    assert main(["--json", *argv]) == USAGE
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["code"] == USAGE
    assert record["error"] == message


@pytest.mark.parametrize("expr, char", [
    ("\u0663+w", "\u0663"), ("\u00b2", "\u00b2"), ("1\u0661", "\u0661"),
], ids=["arabic-indic-three", "superscript-two", "after-ascii"])
def test_non_ascii_digits_are_parse_errors(expr, char):
    # the grammar's digits are 0-9; other scripts' digits and superscripts are not numbers
    r = run("eval", expr)
    assert r.exit_code == PARSE
    assert r.text.startswith(f"error: unexpected character {char!r}")


@pytest.mark.parametrize("argv, flag, value", [
    (["oracle", "--depth", "abc"], "--depth", "abc"),
    (["oracle", "--depth", ""], "--depth", ""),
    (["oracle", "--index-size", "\u0663"], "--index-size", "\u0663"),
    (["oracle", "--carrier-size", "+2"], "--carrier-size", "+2"),
    (["measure", "--sigma", FAMILY, "--depth", " 3"], "--depth", " 3"),
    (["hull", "limit", "k/(k+1)", "--slope", "x"], "--slope", "x"),
    (["hull", "limit", "k/(k+1)", "--intercept", "1.0"], "--intercept", "1.0"),
    (["hull", "limit", "k/(k+1)", "--start", "1_0"], "--start", "1_0"),
    (["hull", "limit", "k/(k+1)", "--check-depth", "--3"], "--check-depth", "--3"),
], ids=["depth-word", "depth-empty", "index-arabic-indic", "carrier-plus", "sigma-depth-space",
        "slope", "intercept", "start", "check-depth"])
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, value):
    # a value int() would reject, or would take although it is no ASCII integer
    message = f"{flag} needs an integer, not {value!r}"
    r = run(*argv)
    assert r.exit_code == USAGE and r.text == f"error: {message}"
    assert main(["--json", *argv]) == USAGE
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "error" and record["error"] == message


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--depth", "9" * 5000], "--depth"),
    (["oracle", "--index-size", "-" + "1" * 4301], "--index-size"),
    (["hull", "limit", "k/(k+1)", "--check-depth", "1" * 10**5], "--check-depth"),
], ids=["depth", "negative-index-size", "check-depth"])
def test_integer_flags_refuse_more_digits_than_int_reads(capsys, argv, flag):
    # int() refuses more than 4300 digits with its own message; the flag is named instead
    digits = len(argv[-1].lstrip("-"))
    message = f"{flag} needs an integer of at most 4300 digits, not one of {digits}"
    r = run(*argv)
    assert r.exit_code == USAGE and r.text == f"error: {message}"
    assert main(["--json", *argv]) == USAGE
    assert json.loads(capsys.readouterr().out)["error"] == message


def test_integer_flags_take_4300_digits():
    # the longest accepted value reaches the domain check, not the reader
    r = run("oracle", "--depth", "9" * 4300)
    assert r.exit_code == DOMAIN and "Exceeds" not in r.text


def test_file_integers_refuse_more_digits_than_int_reads(tmp_path):
    sigma = tmp_path / "deep.sigma"
    sigma.write_text(open(FAMILY).read().replace("depth: 10", "depth: " + "7" * 4301))
    r = run("measure", "--sigma", str(sigma))
    assert r.exit_code == DOMAIN
    assert r.text == "error: sigma key 'depth' needs an integer of at most 4300 digits, not one of 4301"


def test_integer_flags_still_take_signed_ascii_integers():
    assert run("oracle", "--depth", "-3").exit_code == DOMAIN
    r = run("hull", "limit", "k/(k+1)", "--start", "-0", "--check-depth", "4")
    assert r.exit_code == OK and r.text == "1"


@pytest.mark.parametrize("dimension", ["abc", "\u0663", ""])
def test_vector_dimension_that_is_no_integer_is_named(dimension):
    # a domain error, not a usage error: exit 4 is what the benchmark expects of v:x
    r = run("hull", "point", f"v:{dimension}", "1")
    assert r.exit_code == DOMAIN
    assert r.text == f"error: the D of v:D needs an integer, not {dimension!r}"
