"""The scripts under ``scripts/``, run in-process through their ``main``."""

import ast
import importlib
import re
import sys
from dataclasses import replace
from inspect import signature
from pathlib import Path

import pytest

from cmresidues import curves, verify_suite

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import calibrate_models  # noqa: E402
import run_acceptance_batch  # noqa: E402
import study_octic_bias  # noqa: E402
from test_density import _doctored_table  # noqa: E402


def test_acceptance_batch_same_bytes_on_one_and_two_workers(tmp_path):
    # three engine segments, every row passing
    outs = [tmp_path / f"w{workers}.csv" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert run_acceptance_batch.main(["--pmax", "600000", "--workers", str(workers), "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 1 + 99


def test_acceptance_batch_fails_an_empty_scan(tmp_path, capsys):
    # below 6 no density item has an eligible prime: N = 0 is no pass
    assert run_acceptance_batch.main(["--pmax", "6", "--out", str(tmp_path / "b.csv")]) == 1
    out = capsys.readouterr().out
    assert "-7,1,2,1,,0,,1/4,quadratic-table,,n/a" in out.splitlines()


def test_acceptance_batch_names_gap_only_passes_on_stderr(tmp_path, capsys, monkeypatch):
    # a passing row whose |z| is past 4 (its z doctored here; at 2·10⁷ the octic
    # rows are such rows) is named on stderr, and the exit code stays 0
    rows = run_acceptance_batch.batch_rows

    def with_a_large_z(results):
        out = rows(results)
        return [replace(out[0], z=4.5)] + out[1:]

    monkeypatch.setattr(run_acceptance_batch, "batch_rows", with_a_large_z)
    assert run_acceptance_batch.main(["--pmax", "60000", "--out", str(tmp_path / "b.csv")]) == 0
    captured = capsys.readouterr()
    assert "note:" not in captured.out
    assert re.fullmatch(r"note: d=-7 t=1 m=2 n=1 passes on gap 0\.00\d+ <= 0\.004 alone; \|z\| = 4\.5000 > 4\.0\n", captured.err)


def test_octic_study_without_eligible_primes(capsys):
    assert study_octic_bias.main(["--heights", "10"]) == 1
    assert capsys.readouterr().out.startswith("x=1e+01: N=0 [")
    # at 20 there is one eligible prime, none of it quartic-trivial: no gap/sigma
    assert study_octic_bias.main(["--heights", "10", "20", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ["gap/sigma" in line for line in lines] == [False, False, True]
    assert " N=1 d8_1=0.000000 " in lines[1]


def test_calibration_passes_the_shipped_models(capsys):
    assert calibrate_models.main(["--pmax", "400", "--twist-pmax", "200"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all nine models calibrated"


def test_calibration_fails_a_model_twisted_by_minus_one(monkeypatch, capsys):
    # the d = -11 model replaced by its twist by -1: the naive counts see it
    doctored = _doctored_table()
    monkeypatch.setattr(curves, "default_table", lambda: doctored)
    assert calibrate_models.main(["--pmax", "400", "--twist-pmax", "200"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "1 model(s) failed calibration"
    assert [line.split(":")[0] for line in out if line.endswith("FAIL")] == ["d=  -11"]


@pytest.mark.parametrize(
    "script, argv, message",
    [
        (run_acceptance_batch, ["--pmax", "3"], "bad prime range 5..3"),
        (study_octic_bias, ["--heights", "3"], "bad prime range 5..3"),
        (run_acceptance_batch, ["--pmax", "600000", "--workers", "0"], "workers must be positive, got 0"),
        (study_octic_bias, ["--heights", "1e5", "--workers", "-3"], "workers must be positive, got -3"),
        (study_octic_bias, ["--heights", "1e5", "--t", "0"], "twist parameter t must be nonzero"),
        (study_octic_bias, ["--heights", "1e5", "--t", "abc"], "not a rational number: 'abc'"),
    ],
)
def test_scripts_refuse_bad_input_as_the_cli_does(script, argv, message, tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert script.main(argv + (["--out", str(out)] if script is run_acceptance_batch else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {message}\n"


def test_benchmark_child_finds_what_it_imports():
    # bench/child.py imports these names and reads oracle_bound's default by
    # introspection; a change that drops one would first fail in the benchmark
    tree = ast.parse((ROOT / "bench" / "child.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cmresidues"
        for alias in node.names
    ]
    assert len(imported) > 20
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    assert isinstance(signature(verify_suite).parameters["oracle_bound"].default, int)
