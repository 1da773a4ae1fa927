import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fiblucas import cli
from fiblucas.derivops import _MAX_LEIBNIZ_PAIRS, Derivation
from fiblucas.dixmier import _MAX_CAYLEY_N, cayley_closed
from fiblucas.families import _MAX_FAMILY_INDEX
from fiblucas.intertwine import _MAX_INTERTWINE_N
from fiblucas.polyring import Poly


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
    path = poly_file(tmp_path, g(_MAX_FAMILY_INDEX + 1))
    code, out, err = run(capsys, "identity", "--family", "fib", "--input", path)
    assert (code, out) == (2, "")
    assert f"family index limit {_MAX_FAMILY_INDEX}" in err
    path = poly_file(tmp_path, g(150) ** 40)
    code, out, err = run(capsys, "identity", "--family", "lucas", "--input", path)
    assert (code, out) == (2, "")
    assert "degree limit" in err
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


def test_derivation_index_limit(tmp_path, capsys):
    path = poly_file(tmp_path, g(100000))
    code, out, err = run(capsys, "kernel-check", "--family", "fib", "--input", path)
    assert (code, out) == (2, "")
    assert err == f"error: generator x100000 is past the derivation index limit {_MAX_FAMILY_INDEX}\n"
    path = poly_file(tmp_path, g(_MAX_FAMILY_INDEX + 1))
    code, out, err = run(capsys, "derive", "--family", "lucas", "--input", path)
    assert (code, out) == (2, "")
    assert f"derivation index limit {_MAX_FAMILY_INDEX}" in err
    path = poly_file(tmp_path, g(_MAX_FAMILY_INDEX))
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


def test_out_of_memory_exits_three_with_a_fixed_message(capsys, monkeypatch):
    # the handler must not import traceback, which may itself fail when
    # memory is short and turn the crash into exit 1
    def crash(args):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "demo", crash)
    monkeypatch.setitem(sys.modules, "traceback", None)  # any import of it raises
    code, out, err = run(capsys, "demo", "discriminant")
    assert (code, out, err) == (3, "", "internal error: out of memory\n")


@pytest.mark.parametrize("family", ["fib", "lucas"])
def test_derive_power_refused_past_the_pair_limit(tmp_path, capsys, monkeypatch, family):
    # D^2 of x1000 x999^2 touches about 10^6 (term, image term) pairs and
    # D^3 about 4*10^8: the second application is refused before it runs
    applied = []
    call = Derivation.__call__

    def counting(self, p):
        applied.append(len(p))
        return call(self, p)

    monkeypatch.setattr(Derivation, "__call__", counting)
    path = poly_file(tmp_path, g(1000) * g(999) ** 2)
    code, out, err = run(capsys, "derive", "--family", family, "--input", path, "--power", "3")
    assert (code, out) == (2, "")
    assert applied == [1]
    pairs = 997002 if family == "fib" else 999500
    assert err == (
        f"error: the next application would touch {pairs} (term, image term) pairs, "
        f"past the derivation pair limit {_MAX_LEIBNIZ_PAIRS}\n"
    )


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
    # an index past the int-to-str digit limit is refused by the reader with
    # an error of our own; a long one below it is quoted to 40 characters
    limit = sys.get_int_max_str_digits()
    for digits, cmd, err_want in (
        (5000, "identity",
         f"generator {'x' + '1' * 39!r}... (5001 characters) has an index of more than "
         f"{limit} digits"),
        (4000, "identity",
         f"generator x{'1' * 39}... (4001 characters) is past the family index limit "
         f"{_MAX_FAMILY_INDEX}"),
        (4000, "kernel-check",
         f"generator x{'1' * 39}... (4001 characters) is past the derivation index limit "
         f"{_MAX_FAMILY_INDEX}"),
    ):
        name = "x" + "1" * digits
        path = tmp_path / "huge.json"
        doc = {"vars": [name], "terms": [{"coeff": "1", "exps": {name: 1}}]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, cmd, "--family", "lucas", "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {err_want}\n"), (digits, cmd)


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
