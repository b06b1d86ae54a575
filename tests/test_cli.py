"""Command-line behavior: subcommands, config layering, exit codes, outputs.

Everything runs in-process through ``main(argv)`` (fast, assertable); one
subprocess test pins the ``python -m`` entry point.
"""

import json
import re
import subprocess
import sys
import time

import pytest

from cmresidues import density
from cmresidues.cli import _DISPATCH, _OPTIONS, main, read_config_file
from cmresidues.curves import CurveModel, default_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Happy paths


def test_density_csv_stdout(capsys):
    code, out, err = run(capsys, "density", "--d", "-7", "--m", "2", "--pmax", "20000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "d,t,m,n,set,N,empirical,predicted,source,z,verdict"
    data = [line.split(",") for line in lines[1:]]
    assert [row[3] for row in data] == ["1", "2"]
    assert [row[7] for row in data] == ["1/4", "3/4"]
    assert all(row[10] == "pass" for row in data)


def test_density_json_meta(capsys):
    code, out, _ = run(
        capsys, "density", "--d", "-7", "--m", "2", "--pmax", "10000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["meta"]) == {"version", "p_max", "eisenstein_convention"}
    assert payload["meta"]["p_max"] == 10000
    assert len(payload["rows"]) == 2


def test_density_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "density", "--d", "-7", "--m", "2", "--pmax", "10000", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("d,t,m,n,")


def test_density_order_restriction(capsys):
    code, out, _ = run(capsys, "density", "--d", "-7", "--m", "2", "--n", "1", "--pmax", "10000")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + the single requested order


def test_density_modulus_one(capsys):
    # every split prime is ≡ 1 (mod 1) and its 1-class has order 1
    code, out, _ = run(capsys, "density", "--d", "-7", "--m", "1", "--pmax", "10000")
    assert code == 0
    (row,) = [line.split(",") for line in out.splitlines()[1:]]
    assert int(row[5]) > 0 and row[6:8] == ["1.000000000", "1"] and row[10] == "pass"


def test_density_with_plain_set(capsys):
    code, out, _ = run(
        capsys, "density", "--d", "-4", "--m", "4", "--set", "mod(8;1)", "--pmax", "20000"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[4] == "mod(8;1)" for row in rows)
    assert all(row[10] == "pass" for row in rows)  # closed forms apply to mod(M;1)


def test_density_with_opaque_set(capsys):
    code, out, _ = run(
        capsys, "density", "--d", "-4", "--t", "3", "--m", "4",
        "--set", "g8(5) & symord(2;3;1)", "--pmax", "20000",
    )
    assert code == 0  # n/a rows are not failures
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[10] == "n/a" and row[7] == "" for row in rows)
    assert all(row[4] == "g8(5) & symord(2;3;1)" for row in rows)


def test_density_negated_set(capsys):
    # `!` is the one negation spelling: parser, str() and README agree
    code, out, _ = run(
        capsys, "density", "--d", "-4", "--m", "4", "--set", "!mod(8;1)", "--pmax", "20000"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[4] == "!mod(8;1)" and int(row[5]) > 0 for row in rows)


def test_empty_eligible_set_exits_1(capsys):
    # p ≡ 1 (mod 4) and p ≡ 3 (mod 4) never meet: N = 0 is no pass
    for command in ("density", "conjecture"):
        code, out, _ = run(
            capsys, command, "--d", "-4", "--m", "4", "--set", "mod(4;3)", "--pmax", "20000"
        )
        assert code == 1, command
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows and all(row[5] == "0" and row[10] == "n/a" for row in rows)


def test_verify_nothing_checked_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "two-factor", "--pmax", "5")
    assert code == 1
    payload = json.loads(out)
    assert payload["checked"] == 0 and payload["violations"] == []
    assert payload["ok"] is False


def test_conjecture_rows(capsys):
    code, out, _ = run(capsys, "conjecture", "--d", "-4", "--m", "8", "--pmax", "20000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[3] for row in rows] == ["1", "2", "4", "8"]
    assert all(row[8] == "scaling" for row in rows)


def test_gap_only_passes_are_named_on_stderr(capsys):
    # at 2·10⁷ both octic rows of d = -4, t = 3 pass on the gap clause while |z| > 4:
    # the report and the exit code say pass, and stderr names both rows
    code, out, err = run(capsys, "conjecture", "--d", "-4", "--t", "3", "--m", "8", "--pmax", "20000000")
    assert code == 0
    rows = {int(row[3]): row for row in (line.split(",") for line in out.splitlines()[1:])}
    assert [rows[n][10] for n in (1, 2)] == ["pass", "pass"]
    assert all(abs(float(rows[n][9])) > density.Z_MAX for n in (1, 2))
    lines = err.splitlines()
    assert len(lines) == 2
    assert [line.startswith(f"note: d=-4 t=3 m=8 n={n} passes on gap ") for n, line in zip((1, 2), lines)] == [True, True]
    assert all(f"|z| = {abs(float(rows[n][9])):.4f} > 4.0" in line for n, line in zip((1, 2), lines))


def test_conjecture_product_rule_rows(capsys):
    code, out, _ = run(
        capsys, "conjecture", "--d", "-3", "--t", "2", "--m", "6", "--pmax", "20000"
    )
    assert code == 0
    sources = [line.split(",")[8] for line in out.splitlines()[1:]]
    assert sources == ["scaling"] * 4 + ["product-rule"] * 4


# t = 10³⁰ + 57 is prime and past the factoring limit: the scan splits it into
# no prime below 10⁶ and one cofactor, its own Euler base.  Frozen rows, after
# "d,t,m," (N is 553, 556 and 1124).
HUGE_T_ROWS = {
    (-7, 4): [
        "1,,553,0.262206148,0.248643761,scaling,0.7379,pass",
        "2,,553,0.235081374,0.248643761,scaling,-0.7379,pass",
        "4,,553,0.502712477,0.502712477,scaling,0.0000,pass",
    ],
    (-4, 8): [
        "1,,556,0.267985612,0.234712230,scaling,1.8512,pass",
        "2,,556,0.201438849,0.234712230,scaling,-1.8512,pass",
        "4,,556,0.530575540,0.530575540,scaling,0.0000,pass",
        "8,,556,0.000000000,0.000000000,scaling,,pass",
    ],
    (-3, 6): [
        "1,,1124,0.274021352,0.274021352,scaling,0.0000,pass",
        "2,,1124,0.282918149,0.282918149,scaling,0.0000,pass",
        "3,,1124,0.217081851,0.217081851,scaling,0.0000,pass",
        "6,,1124,0.225978648,0.225978648,scaling,0.0000,pass",
        "1,,1124,0.274021352,0.273514773,product-rule,0.0381,pass",
        "2,,1124,0.282918149,0.283424729,product-rule,-0.0377,pass",
        "3,,1124,0.217081851,0.217588430,product-rule,-0.0412,pass",
        "6,,1124,0.225978648,0.225472068,product-rule,0.0406,pass",
    ],
}


@pytest.mark.parametrize("d, m", list(HUGE_T_ROWS))
def test_conjecture_twist_past_the_factoring_limit(capsys, d, m):
    code, out, err = run(capsys, "conjecture", "--d", str(d), "--t", str(10**30 + 57), "--m", str(m), "--pmax", "20000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "d,t,m,n,set,N,empirical,predicted,source,z,verdict"
    assert lines[1:] == [f"{d},{10**30 + 57},{m},{row}" for row in HUGE_T_ROWS[(d, m)]]


def test_density_twist_with_a_huge_prime_cofactor(capsys):
    # a prime past 10¹⁸ is its own squarefree part, so the table applies; the same
    # primes are eligible as in conjecture, which needs no table
    argv = ("--d", "-7", "--t", str(10**30 + 57), "--m", "2", "--pmax", "300000")
    code, out, err = run(capsys, "density", *argv)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[5], r[7], r[8], r[10]) for r in rows] == [("12978", "1/2", "quadratic-table", "pass")] * 2
    code, out, _ = run(capsys, "conjecture", *argv)
    assert code == 0 and {line.split(",")[5] for line in out.splitlines()[1:]} == {"12978"}
    # a composite with no factor below 10⁶, past 10¹⁸, is still refused
    code, out, err = run(capsys, "density", "--d", "-7", "--t", str((10**9 + 7) * (10**9 + 9)), "--m", "2")
    assert code == 2 and out == "" and "cannot factor" in err
    # the square of a prime past 10⁹ is factored: squarefree part 1, the t = 1 report
    square, one = (run(capsys, "density", "--d", "-7", "--t", t, "--m", "2") for t in (str((10**9 + 7) ** 2), "1"))
    assert square[0] == one[0] == 0 and square[2] == one[2] == ""
    assert square[1].replace(str((10**9 + 7) ** 2), "1") == one[1]


def test_verify_suite_payload(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "two-factor", "--pmax", "3000")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"meta", "suite", "params", "checked", "ok", "violations"}
    assert payload["suite"] == "two-factor"
    assert payload["ok"] is True and payload["violations"] == []
    assert payload["checked"] > 0


def test_verify_restricted(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "quadratic", "--d", "-11", "--t", "2", "--pmax", "2000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["ds"] == [-11]
    assert payload["params"]["ts"] == ["2"]


def test_workers_do_not_change_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(density, "_CHUNK", 5_000)  # six segments
    for argv in (["density", "--d", "-4", "--t", "3", "--m", "4"], ["verify", "--suite", "nine-cells"]):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        for target, workers in ((a, "1"), (b, "3")):
            code, _, _ = run(capsys, *argv, "--pmax", "30000", "--workers", workers, "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes(), argv


@pytest.mark.parametrize("given", ["flag", "config"])
def test_verify_honours_workers(tmp_path, capsys, given):
    argv = ["verify", "--suite", "two-factor", "--pmax", "1000"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("workers = 3\n")
    more = ["--workers", "3"] if given == "flag" else ["--config", str(cfg)]
    got = run(capsys, *argv, *more)
    assert got == run(capsys, *argv) and got[0] == 0


@pytest.mark.parametrize("command", ["density", "conjecture"])
def test_negative_rational_twist_after_a_space(capsys, command):
    # "-1/2" starts with '-' but is no plain number, so argparse alone reads it as a flag
    argv = [command, "--d", "-7", "--m", "4", "--pmax", "20000"]
    spaced = run(capsys, *argv, "--t", "-1/2")
    assert spaced == run(capsys, *argv, "--t=-1/2")
    assert spaced[1].splitlines()[1].startswith("-7,-1/2,4,")
    code, out, _ = run(capsys, "verify", "--suite", "quadratic", "--d", "-11", "--t", "-3/4", "--pmax", "2000")
    assert code == 0 and json.loads(out)["params"]["ts"] == ["-3/4"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cmresidues", "density", "--d", "-7", "--m", "2", "--pmax", "5000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("d,t,m,n,")


def test_reports_do_not_import_sympy():
    script = (
        "import sys\n"
        "from cmresidues.cli import main\n"
        "assert main(['density', '--d', '-7', '--t', '12/35', '--m', '2', '--pmax', '20000']) == 0\n"
        "assert main(['conjecture', '--d', '-3', '--t', '2', '--m', '6', '--pmax', '20000']) == 0\n"
        "print('sympy' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


# ---------------------------------------------------------------------------
# Config files


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the quadratic family scan\n"
        "d = -7\n"
        "m = 2\n"
        "pmax = 10000   # small smoke run\n"
        "format = json\n"
    )
    code, out, _ = run(capsys, "density", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["p_max"] == 10000
    assert payload["rows"][0]["d"] == -7


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = -7\nm = 2\npmax = 10000\n")
    code, out, _ = run(
        capsys, "density", "--config", str(cfg), "--pmax", "20000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["meta"]["p_max"] == 20000


def test_read_config_file_direct(tmp_path):
    cfg = tmp_path / "c"
    cfg.write_text("t = -1/2\nworkers = 2\n")
    assert read_config_file(str(cfg)) == {"t": "-1/2", "workers": "2"}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("pmax 10000\n", "expected 'key = value'"),
        ("primes = 10\n", "unknown key"),
        ("pmax = abc\n", "bad.cfg: bad config key 'pmax' value 'abc'"),
    ],
)
def test_config_file_errors(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = run(capsys, "density", "--d", "-7", "--m", "2", "--config", str(cfg))
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize(
    "command, text",
    [
        (["verify", "--suite", "two-factor"], "m = 4\n"),
        (["verify", "--suite", "two-factor"], "n = 1\n"),
        (["verify", "--suite", "two-factor"], "set = mod(8;1)\n"),
        (["conjecture", "--d", "-7", "--m", "2"], "suite = quadratic\n"),
        (["density", "--d", "-7", "--m", "2"], "oracle-bound = 500\n"),
        (["conjecture", "--d", "-7", "--m", "2"], "oracle-bound = 500\n"),
        (["density", "--d", "-7", "--m", "2"], "suite = quadratic\n"),
    ],
)
def test_config_keys_a_command_cannot_honour(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax = 1000\n" + text)
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"{command[0]} does not take config key {text.split(' =')[0]!r}" in err


def test_verify_takes_format_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "two-factor", "--pmax", "200", "--format", "json")
    assert code == 0 and json.loads(out)["suite"] == "two-factor"


_REFUSED = [
    (command, name)
    for name, (_, commands, _) in _OPTIONS.items()
    for command in _DISPATCH
    if command not in commands
]


@pytest.mark.parametrize("command, name", _REFUSED)
def test_every_refused_option_exits_2(tmp_path, capsys, command, name):
    # flag and config key alike, for every option a command does not honour
    code, out, err = run(capsys, command, f"--{name}", "1")
    assert code == 2 and out == ""
    assert f"{command} does not take --{name}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = 1\n")
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"{command} does not take config key {name!r}" in err


@pytest.mark.parametrize("command", list(_DISPATCH))
def test_help_lists_exactly_the_honoured_options(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    honoured = {f"--{name}" for name, (_, commands, _) in _OPTIONS.items() if command in commands}
    assert listed == honoured | {"--config", "--help"}


def test_config_file_missing(capsys):
    code, _, err = run(capsys, "density", "--d", "-7", "--m", "2", "--config", "/no/such/file")
    assert code == 2 and "cannot read config file" in err


# ---------------------------------------------------------------------------
# Usage errors (exit 2) and verdict failures (exit 1)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verify", "--pmax", "1000"], "verify needs --suite"),
        (["verify", "--suite", "frobenius", "--pmax", "1000"], "unknown suite"),
        (["density", "--m", "2"], "density needs --d"),
        (["conjecture", "--d", "-4"], "conjecture needs --d and --m"),
        (["density", "--d", "-5", "--m", "2"], "--d must be one of"),
        (["density", "--d", "-7", "--m", "2", "--t", "0"], "--t must be nonzero"),
        (["density", "--d", "-7", "--m", "2", "--t", "3/0"], "bad --t"),
        (["density", "--d", "-7", "--m", "2", "--t", "abc"], "bad --t"),
        (["density", "--d", "-7", "--m", "2", "--pmax", "3"], "--pmax must be at least 5"),
        (["density", "--d", "-7", "--m", "2", "--workers", "0"], "--workers must be positive"),
        (["density", "--d", "-7", "--m", "2", "--set", "foo(1)"], "bad set expression"),
        (["density", "--d", "-7", "--m", "2", "--set", "mod(8;1"], "bad set expression"),
        (["verify", "--suite", "twist", "--d", "-4", "--pmax", "1000"], "twist suite covers"),
        (["verify", "--suite", "cubic", "--d", "-7", "--pmax", "1000"], "fixes its own discriminant"),
        (["verify", "--suite", "two-factor", "--t", "3", "--pmax", "1000"], "takes no twist"),
        (["density", "--d", "-7", "--m", "2", "--n", "3"], "--n 3 does not divide --m 2"),
        (["conjecture", "--d", "-7", "--m", "2", "--n", "3"], "--n 3 does not divide --m 2"),
        (["verify", "--suite", "two-factor", "--pmax", "1000", "--m", "4"], "verify does not take --m"),
        (["verify", "--suite", "two-factor", "--pmax", "1000", "--n", "1"], "verify does not take --n"),
        (["verify", "--suite", "two-factor", "--pmax", "1000", "--set", "mod(8;1)"], "verify does not take --set"),
        (["density", "--d", "-7", "--m", "100000000000000000000", "--pmax", "2000"], "past the engine's limit 2**32"),
        (["verify", "--suite", "two-factor", "--pmax", "4294967297"], "limit 2**32"),
        (["verify", "--suite", "cubic", "--pmax", "2000", "--oracle-bound", "100"], "takes no oracle bound"),
        (["verify", "--suite", "twist", "--pmax", "2000", "--oracle-bound", "100"], "takes no oracle bound"),
        (["verify", "--suite", "trace-oracle", "--pmax", "2000", "--oracle-bound", "-5"], "must be non-negative"),
        (["verify", "--suite", "trace-oracle", "--pmax", "2000004", "--oracle-bound", "3000000"],
         "int64-safe limit"),
        (["verify", "--suite", "two-factor", "--pmax", "200", "--format", "csv"], "verify does not take --format csv"),
        # past the factoring limit: (3·10²² + 29)(10²² + 9), (10⁹ + 7)(10⁹ + 9), and
        # 1000003 · 1000033, which φ and the divisors of m would have to split
        (["density", "--d", "-7", "--m", "2", "--t", "300000000000000000000560000000000000000000261"],
         "cannot factor"),
        (["density", "--d", "-7", "--m", "2", "--t", "1/1000000016000000063"], "cannot factor"),
        (["density", "--d", "-7", "--m", "1000036000099", "--pmax", "2000"], "cannot factor"),
        (["density", "--d", "-7", "--m", "2", "--pmax", "2000", "--set", "mod(100000000000000000000;1)"],
         "past the engine's limit 2**32"),
        (["density", "--d", "-7", "--m", "2", "--pmax", "2000", "--set", "symord(100000000000000000000;3;1)"],
         "past the engine's limit 2**32"),
    ],
)
def test_usage_errors(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err
    assert out == ""


@pytest.mark.parametrize(
    "command, text, fragment",
    [
        (["verify", "--suite", "cubic"], "oracle-bound = 100\n", "takes no oracle bound"),
        (["verify", "--suite", "twist"], "oracle-bound = 20000\n", "takes no oracle bound"),
        (["verify", "--suite", "trace-oracle"], "oracle-bound = -5\n", "must be non-negative"),
        (["verify", "--suite", "two-factor"], "format = csv\n", "verify does not take --format csv"),
    ],
)
def test_oracle_bound_config_key(tmp_path, capsys, command, text, fragment):
    # the config key is held to the flag's rules
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax = 2000\n" + text)
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert fragment in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "twist", "--pmax", "2000002"),
        ("--suite", "trace-oracle", "--pmax", "2000002", "--oracle-bound", "2000001"),
    ],
)
def test_naive_limit_rejected_before_the_scan(capsys, argv):
    # the first prime past the limit is 2000003; the range is refused before any counting
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "int64-safe limit 2000000" in err


def _twisted_table_file(tmp_path):
    """curves.txt with the d = -11 model replaced by its -1 twist."""
    rows = []
    for d, m in sorted(default_table().items()):
        if d == -11:
            b2 = m.a1 * m.a1 + 4 * m.a2
            b4 = 2 * m.a4 + m.a1 * m.a3
            b6 = m.a3 * m.a3 + 4 * m.a6
            c4 = b2 * b2 - 24 * b4
            c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
            rows.append(f"-11 0 0 0 {-27 * c4} {54 * c6}")
        else:
            rows.append(f"{d} {m.a1} {m.a2} {m.a3} {m.a4} {m.a6}")
    f = tmp_path / "twisted.txt"
    f.write_text("\n".join(rows) + "\n")
    return f


def test_wrong_model_orientation_exits_1(tmp_path, capsys):
    f = _twisted_table_file(tmp_path)
    code, out, _ = run(
        capsys, "density", "--d", "-11", "--m", "2", "--pmax", "20000",
        "--curve-table", str(f),
    )
    assert code == 1
    verdicts = [line.split(",")[10] for line in out.splitlines()[1:]]
    assert "fail" in verdicts
    # the same scan against the shipped table is clean
    code, _, _ = run(capsys, "density", "--d", "-11", "--m", "2", "--pmax", "20000")
    assert code == 0


def test_malformed_curve_table_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("-11 1 2 3\n")
    code, _, err = run(
        capsys, "density", "--d", "-11", "--m", "2", "--pmax", "10000",
        "--curve-table", str(f),
    )
    assert code == 2
    assert "expected 6 fields" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--d", "-4", "--m", "4"),
        ("density", "--d", "-3", "--m", "3"),
        ("verify", "--suite", "trace-oracle"),
    ],
)
def test_curve_table_fixed_families_exit_2(tmp_path, capsys, argv):
    # these two families are fixed by t alone: another model cannot change a report
    models = dict(default_table())
    models[-4] = CurveModel(0, 0, 0, -4, 0)  # y² = x³ - 4x
    models[-3] = CurveModel(0, 0, 0, 0, 1)  # y² = x³ + 1
    f = tmp_path / "fixed.txt"
    f.write_text("".join(f"{d} {m.a1} {m.a2} {m.a3} {m.a4} {m.a6}\n" for d, m in models.items()))
    code, out, err = run(capsys, *argv, "--pmax", "2000", "--curve-table", str(f))
    assert code == 2 and out == ""
    assert "vary --t" in err


@pytest.mark.parametrize(
    "argv", [("density", "--d", "-7", "--m", "2"), ("verify", "--suite", "two-factor")]
)
def test_curve_table_non_twist_row_exits_2_unscanned(tmp_path, capsys, argv):
    # every row is checked at load, also the row of a d the command never reads:
    # a d = -19 model with the j-invariant of d = -11 is no twist of E^-19
    models = dict(default_table())
    models[-19] = models[-11]
    f = tmp_path / "other_j.txt"
    f.write_text("".join(f"{d} {m.a1} {m.a2} {m.a3} {m.a4} {m.a6}\n" for d, m in models.items()))
    code, out, err = run(capsys, *argv, "--pmax", "2000", "--curve-table", str(f))
    assert code == 2 and out == ""
    assert "for d = -19 is not a twist" in err


def test_verify_doctored_table_exits_1(tmp_path, capsys):
    f = _twisted_table_file(tmp_path)
    code, out, _ = run(
        capsys, "verify", "--suite", "quadratic", "--d", "-11", "--pmax", "2000",
        "--curve-table", str(f),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"][0]["suite"] == "quadratic"
