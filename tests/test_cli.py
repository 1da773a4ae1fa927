import errno
import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from fiblucas import cli
from fiblucas.derivops import _MAX_KEY_SIZE, _MAX_WALK_STEPS, Derivation
from fiblucas.dixmier import _MAX_CAYLEY_N, cayley_closed
from fiblucas.intertwine import _MAX_INTERTWINE_N
from fiblucas.polyring import _MAX_INDEX, Poly, X, json_text


def g(n):
    return Poly.gen(n)


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def poly_file(tmp_path, p, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(p.to_json()), encoding="utf-8")
    return str(path)


def gen_file(tmp_path, name):
    """A JSON file of the one-term polynomial on the generator called name,
    which need not be one that Poly.gen accepts."""
    path = tmp_path / "gen.json"
    doc = {"vars": [name], "terms": [{"coeff": "1", "exps": {name: 1}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_derive_kernel_element_gives_zero(tmp_path, capsys):
    path = poly_file(tmp_path, g(1) * g(3) - g(2) ** 2)
    code, out, _ = run(capsys, "derive", "--family", "fib", "--input", path)
    assert code == 0
    assert Poly.from_json(json.loads(out)) == Poly.zero()


def test_derive_with_power(tmp_path, capsys):
    path = poly_file(tmp_path, g(6))
    code, out, _ = run(
        capsys, "derive", "--family", "fib", "--input", path, "--power", "2"
    )
    assert code == 0
    assert Poly.from_json(json.loads(out)) == 20 * g(4) - 16 * g(2)


def test_derive_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(g(3).to_json()))
    )
    code, out, _ = run(capsys, "derive", "--family", "appell", "--input", "-")
    assert code == 0
    assert Poly.from_json(json.loads(out)) == 3 * g(2)


def test_cayley_both_routes(capsys):
    code, out, _ = run(
        capsys, "cayley", "--family", "fib", "--n", "5", "--route", "both"
    )
    assert code == 0
    assert Poly.from_json(json.loads(out)) == cayley_closed("fibonacci", 5)


def test_cayley_route_mismatch_writes_both_routes(capsys, monkeypatch):
    # the mismatch document, Poly values written in place, is the same bytes
    # as json.dumps of it with each polynomial's to_json() document
    monkeypatch.setattr(cli, "cayley_constructive", lambda family, n: cayley_closed(family, n) + 1)
    code, out, err = run(capsys, "cayley", "--family", "lucas", "--n", "7", "--route", "both")
    closed = cayley_closed("lucas", 7)
    want = {"error": "route mismatch", "closed": closed.to_json(),
            "constructive": (closed + 1).to_json()}
    assert (code, out, err) == (1, json.dumps(want, indent=2) + "\n", "")


def test_cayley_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "cayley", "--family", "fib", "--n", "2")
    assert code == 2
    assert "error" in err


def test_kernel_check_exit_codes(tmp_path, capsys):
    inside = poly_file(tmp_path, g(1) * g(3) - g(2) ** 2, "in.json")
    code, out, _ = run(capsys, "kernel-check", "--family", "fib", "--input", inside)
    assert code == 0
    assert json.loads(out) == {"in_kernel": True}

    outside = poly_file(tmp_path, g(4) - g(2) * g(3) - g(2), "out.json")
    code, out, _ = run(capsys, "kernel-check", "--family", "fib", "--input", outside)
    assert code == 1
    assert json.loads(out) == {"in_kernel": False}


def test_identity_latex_output(tmp_path, capsys):
    path = poly_file(tmp_path, cayley_closed("fibonacci", 3))
    code, out, _ = run(
        capsys,
        "identity",
        "--family",
        "fib",
        "--input",
        path,
        "--format",
        "latex",
    )
    assert code == 0
    assert out.strip() == "F_{1}(x)F_{3}(x)-F_{2}(x)^{2}=1"


def test_identity_nonconstant_exits_one(tmp_path, capsys):
    path = poly_file(tmp_path, g(3))
    code, out, _ = run(capsys, "identity", "--family", "fib", "--input", path)
    assert code == 1
    assert json.loads(out)["is_constant"] is False


def test_scan_reports_and_passes(capsys):
    code, out, _ = run(capsys, "scan", "--family", "lucas", "--max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n=1") and "boundary" in lines[0]
    assert lines[-1] == "conjecture (lucas, n=2..6): PASS"


def test_intertwine_all_routes(capsys):
    code, out, _ = run(
        capsys, "intertwine", "--kind", "AF", "--max", "8", "--route", "all"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["routes_agree"] is True
    assert doc["first_mismatch"] is None


def test_intertwine_single_route(capsys):
    code, out, _ = run(
        capsys, "intertwine", "--kind", "AL", "--max", "6", "--route", "series"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert "routes_agree" not in doc


def test_demo_discriminant(capsys):
    code, out, _ = run(capsys, "demo", "discriminant")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["constant"] == "-864"


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run(capsys, "scan", "--family", "fib", "--max", "9")
    _, second, _ = run(capsys, "scan", "--family", "fib", "--max", "9")
    assert first == second
    _, first, _ = run(capsys, "cayley", "--family", "lucas", "--n", "7")
    _, second, _ = run(capsys, "cayley", "--family", "lucas", "--n", "7")
    assert first == second


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive", "--family", "pell", "--input", "-"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_negative_power_and_max_exit_two_naming_the_flag(tmp_path, capsys):
    path = poly_file(tmp_path, g(3))
    code, out, err = run(capsys, "derive", "--family", "fib", "--input", path, "--power", "-1")
    assert (code, out, err) == (2, "", "error: --power must be >= 0\n")
    code, out, err = run(capsys, "intertwine", "--kind", "AL", "--max", "-1")
    assert (code, out, err) == (2, "", "error: --max must be >= 0\n")


def test_bad_input_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "derive", "--family", "fib", "--input", str(path))
    assert code == 2
    assert "invalid JSON" in err

    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "kernel-check", "--family", "fib", "--input", missing)
    assert code == 2

    for i, doc in enumerate(({"terms": [], "vars": 5}, {"terms": [], "vars": [3]})):
        path = tmp_path / f"vars{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for cmd in ("derive", "kernel-check", "identity"):
            code, _, err = run(capsys, cmd, "--family", "fib", "--input", str(path))
            assert code == 2, (cmd, doc)
            assert "error:" in err

    # an alias of x1, an Arabic-Indic digit one, a superscript two
    for i, exps in enumerate(({"x1": 1, "x01": 2}, {"x\u0661": 1}, {"x\u00b2": 1})):
        path = tmp_path / f"name{i}.json"
        path.write_text(json.dumps({"terms": [{"coeff": "1", "exps": exps}]}), encoding="utf-8")
        code, out, err = run(capsys, "identity", "--family", "lucas", "--input", str(path))
        assert (code, out) == (2, ""), exps
        assert "unknown variable name" in err

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    code, _, err = run(capsys, "kernel-check", "--family", "fib", "--input", str(deep))
    assert code == 2
    assert "nested too deeply" in err

    path = tmp_path / "int_coeff.json"
    path.write_text(json.dumps({"terms": [{"coeff": 3, "exps": {"x1": 1}}]}), encoding="utf-8")
    code, _, err = run(capsys, "derive", "--family", "fib", "--input", str(path))
    assert code == 2
    assert "coefficient must be a string" in err


def test_size_limits_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "cayley", "--family", "fib", "--n", str(_MAX_CAYLEY_N + 1))
    assert (code, out) == (2, "")
    assert f"limited to n <= {_MAX_CAYLEY_N}" in err
    code, out, err = run(capsys, "scan", "--family", "lucas", "--max", "100000")
    assert (code, out) == (2, "")
    assert f"limited to n <= {_MAX_CAYLEY_N}" in err
    path = gen_file(tmp_path, f"x{_MAX_INDEX + 1}")
    code, out, err = run(capsys, "identity", "--family", "fib", "--input", path)
    assert (code, out, err) == (
        2, "", f"error: generator x{_MAX_INDEX + 1} is past the index limit {_MAX_INDEX}\n")
    path = poly_file(tmp_path, g(150) ** 40)
    code, out, err = run(capsys, "identity", "--family", "lucas", "--input", path)
    assert (code, out) == (2, "")
    assert "degree limit" in err
    # a huge exponent is refused on its degree, before any digit width is computed
    for family, exps, degree in (("fib", {5: 10**12}, 4 * 10**12), ("lucas", {X: 10**12}, 10**12)):
        path = poly_file(tmp_path, Poly.term(1, exps))
        code, out, err = run(capsys, "identity", "--family", family, "--input", path)
        assert (code, out, err) == (
            2, "", f"error: substituted degree {degree} is past the degree limit 1000\n")
    code, out, err = run(
        capsys, "intertwine", "--kind", "AL", "--max", str(_MAX_INTERTWINE_N + 1), "--route", "all"
    )
    assert (code, out) == (2, "")
    assert f"limited to n <= {_MAX_INTERTWINE_N}" in err


def test_coefficient_over_digit_limit_names_the_limit(tmp_path, capsys):
    # D^3000(x2^3000) has the coefficient 3000!, longer than str() of an
    # int may write; the error is ours and names the limit
    path = poly_file(tmp_path, g(2) ** 3000)
    code, out, err = run(capsys, "derive", "--family", "fib", "--input", path, "--power", "3000")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: a coefficient has more than {limit} decimal digits, "
        "the limit on JSON coefficients\n"
    )


def test_coefficient_string_over_digit_limit_is_shown_bounded(tmp_path, capsys):
    # the error names the limit and shows only the first 40 characters
    path = tmp_path / "big.json"
    doc = {"terms": [{"coeff": "7" * 5000, "exps": {"x1": 1}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "kernel-check", "--family", "fib", "--input", str(path))
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == (
        f"error: coefficient {'7' * 40!r}... (5000 characters) has more than {limit} "
        "decimal digits, the limit on JSON coefficients\n"
    )
    doc = {"terms": [{"coeff": "x" * 50, "exps": {"x1": 1}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "kernel-check", "--family", "fib", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad coefficient {'x' * 40!r}... (50 characters)\n"


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_identity_result_over_digit_limit_names_the_limit_in_both_formats(tmp_path, capsys, fmt):
    # 10^4200 F_400 F_500 has coefficients of more than 4300 digits: the input is
    # read, the result cannot be written, and both writers name the limit alike
    path = tmp_path / "big.json"
    doc = {"terms": [{"coeff": "1e4200", "exps": {"x500": 1, "x400": 1}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        code, out, err = run(capsys, "identity", "--family", "fib", "--input", str(path),
                             "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err == (
        "error: a coefficient has more than 4300 decimal digits, the limit on JSON coefficients\n"
    )


def test_coefficient_exponent_past_digit_limit_exits_two_at_once(tmp_path):
    # Fraction() builds 10**999999999 for "1e-999999999", which no bound stops;
    # the reader refuses the exponent first
    path = tmp_path / "tiny.json"
    path.write_text('{"terms": [{"coeff": "1e-999999999", "exps": {"x3": 1}}]}', encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = perf_counter()
    args = ["identity", "--family", "fib", "--input", str(path)]
    res = subprocess.run([sys.executable, "-m", "fiblucas", *args],
                         env=env, capture_output=True, text=True, timeout=60)
    assert perf_counter() - t0 < 10
    limit = sys.get_int_max_str_digits()
    assert (res.returncode, res.stdout, res.stderr) == (2, "", (
        f"error: coefficient '1e-999999999' has more than {limit} decimal digits, "
        "the limit on JSON coefficients\n"
    ))


def test_json_number_over_digit_limit_names_the_limit(tmp_path, capsys):
    # json.loads refuses an integer literal past the digit limit with the
    # interpreter's text; the error is ours and names the limit
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.json"
    for digits, want in ((limit, 1), (limit + 1, 2)):
        exp = "1" + "0" * (digits - 1)
        path.write_text('{"terms": [{"coeff": "1", "exps": {"x1": %s}}]}' % exp, encoding="utf-8")
        code, out, err = run(capsys, "kernel-check", "--family", "lucas", "--input", str(path))
        assert code == want, digits
    assert (out, err) == ("", (
        f"error: a JSON number has more than {limit} decimal digits, the limit on JSON numbers\n"
    ))


@pytest.mark.parametrize("cmd", ["derive", "kernel-check"])
def test_wide_packed_keys_exit_two(tmp_path, capsys, cmd):
    # x999^E x1000^E, E = 10^400: 1001 fields of 1330 bits, refused before
    # any key is built
    wide = 10 ** 400
    path = poly_file(tmp_path, g(999) ** wide * g(1000) ** wide)
    t0 = perf_counter()
    code, out, err = run(capsys, cmd, "--family", "lucas", "--input", path)
    assert perf_counter() - t0 < 1.0
    size = 1001 * 1001 * 1330
    assert (code, out, err) == (2, "", (
        f"error: packed monomial keys of 1001 fields of 1330 bits measure fields^2 * bits = "
        f"{size}, past the derivation key limit {_MAX_KEY_SIZE}\n"
    ))


def test_derivation_index_limit(tmp_path, capsys):
    path = gen_file(tmp_path, "x100000")
    code, out, err = run(capsys, "kernel-check", "--family", "fib", "--input", path)
    assert (code, out) == (2, "")
    assert err == f"error: generator x100000 is past the index limit {_MAX_INDEX}\n"
    path = gen_file(tmp_path, f"x{_MAX_INDEX + 1}")
    code, out, err = run(capsys, "derive", "--family", "lucas", "--input", path)
    assert (code, out) == (2, "")
    assert err == f"error: generator x{_MAX_INDEX + 1} is past the index limit {_MAX_INDEX}\n"
    path = poly_file(tmp_path, g(_MAX_INDEX))
    code, out, _ = run(capsys, "kernel-check", "--family", "fib", "--input", path)
    assert (code, json.loads(out)) == (1, {"in_kernel": False})


def test_intertwine_all_routes_builds_each_table_once(capsys, monkeypatch):
    from fiblucas import intertwine

    built = []
    alpha_rows = intertwine.alpha_rows

    def counting(kind, s_max, n_max, route=intertwine.ROUTE_BETA):
        built.append(route)
        return alpha_rows(kind, s_max, n_max, route)

    monkeypatch.setattr(intertwine, "alpha_rows", counting)
    code, out, _ = run(capsys, "intertwine", "--kind", "AL", "--max", "12", "--route", "all")
    assert code == 0 and json.loads(out)["routes_agree"] is True
    assert sorted(built) == sorted(intertwine.ROUTES)


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ZeroDivisionError("division by zero")])
def test_crash_exits_three(capsys, monkeypatch, exc):
    # a crash is neither "not verified" (1) nor a usage error (2)
    def crash(args):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "demo", crash)
    code, out, err = run(capsys, "demo", "discriminant")
    assert (code, out) == (3, "")
    assert err.endswith(f"internal error: {type(exc).__name__}: {exc}\n")


def test_output_error_exits_two_and_other_os_errors_three(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    code, _, err = run(capsys, "cayley", "--family", "fib", "--n", "4")
    assert (code, err) == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")
    monkeypatch.undo()

    def crash(args):
        raise OSError(errno.EIO, "disk gone")

    monkeypatch.setitem(cli._DISPATCH, "demo", crash)
    code, out, err = run(capsys, "demo", "discriminant")
    assert (code, out) == (3, "")
    assert err.endswith("internal error: OSError: [Errno 5] disk gone\n")


def _cli_writing_to(stdout, *args):
    """The CLI as a subprocess with the given stdout; its exit code and stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-m", "fiblucas", *args], stdout=stdout,
                         stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    return res.returncode, res.stderr


@pytest.mark.parametrize("args", [
    ("cayley", "--family", "fib", "--n", "60"),
    ("scan", "--family", "lucas", "--max", "6"),
])
def test_closed_pipe_is_an_output_error(args):
    # one line and exit 2: no traceback, and no "Exception ignored" at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = _cli_writing_to(write_end, *args)
    finally:
        os.close(write_end)
    assert got == (2, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n")


def test_full_device_is_an_output_error():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "w") as full:
        got = _cli_writing_to(full, "cayley", "--family", "lucas", "--n", "60", "--route", "both")
    assert got == (2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_unwritable_stderr_keeps_the_error_code(capsys, monkeypatch):
    # the error line's own OSError must not turn exit 2 or 3 into exit 1
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def crash(args):
        raise RuntimeError("boom")

    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(sys, "stderr", Full())
    assert run(capsys, "cayley", "--family", "fib", "--n", "2")[:2] == (2, "")
    monkeypatch.setitem(cli._DISPATCH, "demo", crash)
    assert run(capsys, "demo", "discriminant")[:2] == (3, "")
    monkeypatch.setitem(cli._DISPATCH, "demo", out_of_memory)
    assert run(capsys, "demo", "discriminant")[:2] == (3, "")


# a crash inside a real CLI process: demo's handler replaced by one that raises
_CRASH = ("import sys; from fiblucas import cli; cli._DISPATCH['demo'] = lambda args: 1 / 0; "
          "sys.exit(cli.main(['demo', 'discriminant']))")


def _cli_erring_to(stderr, code, *args, stdout=subprocess.PIPE):
    """The CLI, or with code the script code, as a subprocess with the
    given stderr; its exit code and stdout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["-c", code] if code else ["-m", "fiblucas", *args]
    res = subprocess.run([sys.executable, *argv], stdout=stdout, stderr=stderr,
                         env=env, text=True, timeout=120)
    return res.returncode, res.stdout


# the program's entry: argv from sys.argv, demo's handler replaced by one
# that reports whether the collector was frozen before it ran
_FREEZE_PROBE = ("import gc, sys; from fiblucas import cli; "
                 "cli._DISPATCH['demo'] = lambda args: (str(gc.get_freeze_count() > 0), True); "
                 "sys.argv = ['fiblucas', 'demo', 'discriminant']; sys.exit(cli.main())")


def test_only_the_process_entry_freezes_the_collector(capsys):
    assert _cli_erring_to(subprocess.PIPE, _FREEZE_PROBE) == (0, "True\n")
    # with an argv list, as a long-lived caller passes, nothing moves to the permanent generation
    before = gc.get_freeze_count()
    assert run(capsys, "scan", "--family", "fib", "--max", "4")[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_unwritable_stderr_keeps_the_error_code_in_a_process(sink):
    # a usage error stays 2 and a crash 3, with nothing on stdout; with
    # stdout on the same sink, an output error stays 2 as well
    if sink == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    if sink == "closed pipe":
        read_end, err = os.pipe()
        os.close(read_end)
    else:
        err = os.open("/dev/full", os.O_WRONLY)
    try:
        assert _cli_erring_to(err, None, "cayley", "--family", "fib", "--n", "2") == (2, "")
        assert _cli_erring_to(err, _CRASH) == (3, "")
        assert _cli_erring_to(err, None, "cayley", "--family", "fib", "--n", "60",
                              stdout=err) == (2, None)
    finally:
        os.close(err)


def test_out_of_memory_exits_three_with_a_fixed_message(capsys, monkeypatch):
    # the handler must not import traceback, which may itself fail when
    # memory is short and turn the crash into exit 1
    def crash(args):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "demo", crash)
    monkeypatch.setitem(sys.modules, "traceback", None)  # any import of it raises
    code, out, err = run(capsys, "demo", "discriminant")
    assert (code, out, err) == (3, "", "internal error: out of memory\n")


def counted_applications(monkeypatch):
    """The term count of each Derivation application that ran from here on."""
    applied = []
    apply = Derivation._apply

    def counting(self, p, spent):
        out = apply(self, p, spent)
        applied.append(len(p))
        return out

    monkeypatch.setattr(Derivation, "_apply", counting)
    return applied


@pytest.mark.parametrize("family", ["fib", "lucas"])
def test_derive_power_refused_past_the_pair_limit(tmp_path, capsys, monkeypatch, family):
    # D of x1000 x999^2 walks 999 (fib) or 1000 (lucas) steps and D of that
    # 748 500 or 750 499: the second application is refused before it walks,
    # and the error names the total of the first two
    applied = counted_applications(monkeypatch)
    path = poly_file(tmp_path, g(1000) * g(999) ** 2)
    code, out, err = run(capsys, "derive", "--family", family, "--input", path, "--power", "3")
    assert (code, out) == (2, "")
    assert applied == [1]
    steps = 749499 if family == "fib" else 751499
    assert err == (
        f"error: the derivation would take {steps} walk steps in this call, "
        f"past the derivation step limit {_MAX_WALK_STEPS}\n"
    )


def test_derive_power_bounds_many_small_applications(tmp_path, capsys, monkeypatch):
    # no single Lucas application on x2^3000 comes near the step limit (a
    # term x0^a x1^b x2^c takes at most two one-step walks), but their
    # running total passes it after 706 of the 3000
    applied = counted_applications(monkeypatch)
    path = poly_file(tmp_path, g(2) ** 3000)
    code, out, err = run(capsys, "derive", "--family", "lucas", "--input", path, "--power", "3000")
    assert (code, out) == (2, "")
    assert len(applied) == 706
    assert max(applied) * 2 < _MAX_WALK_STEPS // 100
    assert err == (
        "error: the derivation would take 250278 walk steps in this call, "
        f"past the derivation step limit {_MAX_WALK_STEPS}\n"
    )


def test_kernel_check_refused_past_the_step_limit(tmp_path, capsys):
    # D of the 1000 terms of D(x1000 x999^2) walks 750 499 steps: refused once
    # the forms are grouped, before the walk builds any of its wide keys
    path = poly_file(tmp_path, Derivation.lucas()(g(1000) * g(999) ** 2))
    t0 = perf_counter()
    code, out, err = run(capsys, "kernel-check", "--family", "lucas", "--input", path)
    assert perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: the derivation would take 750499 walk steps in this call, "
        f"past the derivation step limit {_MAX_WALK_STEPS}\n"
    )


@pytest.mark.parametrize("family", ["fib", "lucas"])
def test_derive_counts_walk_steps_not_image_terms(tmp_path, capsys, family):
    # x0 + ... + x1000 is one form per parity, 1000 walk steps in all, though
    # its (term, image term) pairs number about 250 000
    p = sum((g(v) for v in range(_MAX_INDEX + 1)), Poly.zero())
    code, out, err = run(capsys, "derive", "--family", family, "--input", poly_file(tmp_path, p))
    assert (code, err) == (0, "")
    expected = Derivation(cli._FAMILY[family])(p)
    assert out == json_text(expected.to_json()) + "\n"


def test_cli_import_loads_neither_dataclasses_nor_typing():
    # every CLI job is a fresh interpreter that pays for its imports; -S
    # keeps site-packages .pth files from importing typing on their own
    root = Path(__file__).resolve().parents[1]
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    code = f"import fiblucas.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-S", "-c", code],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "[]\n"


def test_traced_benchmark_launcher_runs(tmp_path):
    # the benchmark's traced run wraps package functions by name, so a
    # rename in the package must show up here rather than in the benchmark
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launcher.py"), str(spans),
         "--", "scan", "--family", "fib", "--max", "4"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    memos = json.loads(spans.read_text(encoding="utf-8"))["memos"]
    assert set(memos) == {
        "families.family_poly",
        "derivops.builtin_image",
        "intertwine.recurrence_rows",
        "intertwine.beta_rows",
        "intertwine.b_coeffs",
    }
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launcher.py"), str(spans),
         "--", "intertwine", "--kind", "AF", "--max", "6", "--route", "all"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr


def test_huge_generator_index_is_shown_bounded(tmp_path, capsys):
    # every command refuses a generator past the index limit with one message,
    # even derive --power 0, which applies nothing; a long name, past the
    # int-to-str digit limit or not, is quoted to 40 characters
    for name in (f"x{_MAX_INDEX + 1}", "x" + "1" * 4000, "x" + "1" * 5000):
        shown = name if len(name) <= 40 else f"{name[:40]}... ({len(name)} characters)"
        for cmd in (["derive", "--power", "0"], ["derive"], ["kernel-check"], ["identity"]):
            code, out, err = run(capsys, *cmd, "--family", "lucas",
                                 "--input", gen_file(tmp_path, name))
            assert (code, out, err) == (
                2, "", f"error: generator {shown} is past the index limit {_MAX_INDEX}\n"
            ), (len(name), cmd)


def test_roundtrip_chain_output_is_indented_json(tmp_path):
    # the benchmark's roundtrip chain as subprocesses: each stdout is
    # json.dumps(doc, indent=2) byte for byte, and the identity constant is
    # q*c_n + r with c_30 = 0 (Fibonacci) and 2 (Lucas)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def cli_out(*args):
        res = subprocess.run([sys.executable, "-m", "fiblucas", *args],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (res.returncode, res.stderr) == (0, ""), args
        doc = json.loads(res.stdout)
        assert res.stdout == json.dumps(doc, indent=2) + "\n", args
        return doc

    q, r = Fraction(-37, 53), Fraction(29, 11)
    for family, c_n in (("fib", 0), ("lucas", 2)):
        c = Poly.from_json(cli_out("cayley", "--family", family, "--n", "30", "--route", "both"))
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps((q * c + r).to_json()), encoding="utf-8")
        member = cli_out("kernel-check", "--family", family, "--input", str(path))
        assert member == {"in_kernel": True}
        doc = cli_out("identity", "--family", family, "--input", str(path))
        assert (doc["is_constant"], doc["constant_value"]) == (True, str(q * c_n + r))
