"""Command-line front end: reports, exit codes, determinism."""

import gc
import importlib.util
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cosetlab
from cosetlab import _lazy, cli, spectral, suite
from cosetlab.cli import main
from cosetlab.finitegroup import special_linear_order
from cosetlab.freegroup import MAX_WORD_LETTERS

from helpers import child_peak_rss


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_eymard_verify_single_generator(capsys):
    code, report, _ = run_json(capsys, "eymard-verify", "x0", "--no-meta")
    assert code == 0
    assert report["level"] == 0
    assert report["deviations"] == {"x0": 0.0}
    assert report["pass"] is True


def test_eymard_verify_conjugate(capsys):
    code, report, _ = run_json(
        capsys, "eymard-verify", "x5 x3 x5^-1, x1", "--no-meta"
    )
    assert code == 0
    assert report["level"] == 3
    assert set(report["deviations"]) == {"x5 x3 x5^-1", "x1"}
    assert all(v == 0.0 for v in report["deviations"].values())


def test_eymard_verify_echoes_a_run_length_literal_at_its_length(capsys):
    n = MAX_WORD_LETTERS // 2
    literal = f"x1^{n}, x2^-3 x2 x3"
    code, report, _ = run_json(capsys, "eymard-verify", literal, "--no-meta")
    assert code == 0
    assert list(report["deviations"]) == [f"x1^{n}", "x2^-2 x3"]
    assert all(len(w) <= len(p) for w, p in zip(report["deviations"], literal.split(",")))


def test_eymard_verify_empty_is_usage_error(capsys):
    code, out, err = run(capsys, "eymard-verify", "")
    assert code == 2
    assert "error" in err


def test_eymard_verify_parse_error(capsys):
    code, out, err = run(capsys, "eymard-verify", "x1 y3")
    assert code == 2
    assert "y3" in err


def test_kesten_report(capsys):
    code, report, _ = run_json(
        capsys, "kesten", "-k", "2", "--radii", "1..4", "--no-meta"
    )
    assert code == 0
    assert report["k"] == 2
    assert [row["radius"] for row in report["rows"]] == [1, 2, 3, 4]
    estimates = [row["estimate"] for row in report["rows"]]
    assert estimates == sorted(estimates)
    assert abs(report["free_walk_limit"] - math.sqrt(3) / 2) < 1e-15
    assert all(e <= report["free_walk_limit"] + 1e-9 for e in estimates)


def test_kesten_single_generator_approaches_one(capsys):
    code, report, _ = run_json(
        capsys, "kesten", "-k", "1", "--radii", "1,10,100,200", "--no-meta"
    )
    assert code == 0
    assert report["free_walk_limit"] == 1.0
    assert report["rows"][-1]["estimate"] > 0.99


def test_kesten_usage_errors(capsys):
    assert run(capsys, "kesten", "-k", "0")[0] == 2
    assert run(capsys, "kesten", "--radii", "5..3")[0] == 2
    assert run(capsys, "kesten", "--radii", "3,3")[0] == 2
    assert run(capsys, "kesten", "--radii", "")[0] == 2


@pytest.mark.parametrize("argv", [
    ["kesten", "--radii=--"],
    ["kesten", "--cap=--"],
    ["kesten", "--csv=--"],
    ["reiter", "t", "--epsilon=--"],
    ["reiter", "t", "--epsilon=0.5", "--window=--"],
    ["congruence", "--witness=--"],
    ["congruence", "3", "3", "--out=--"],
])
def test_double_dash_as_an_option_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "expected one argument" in err


def test_kesten_resource_cap(capsys):
    code, out, err = run(capsys, "kesten", "--radii", "1..9", "--cap", "100")
    assert code == 3
    assert "cap" in err


def test_kesten_radii_beyond_cap_rejected_before_expansion(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "kesten", "--radii", "1..1000000000")
    assert code == 3
    assert "--cap 2000000" in err
    assert time.perf_counter() - started < 1.0
    # radius 30 of any free orbit has at least 61 nodes
    code, _, err = run(capsys, "kesten", "--radii", "1,20..30", "--cap", "60")
    assert code == 3
    assert "radius 30" in err and "--cap 60" in err
    assert run(capsys, "kesten", "--cap", "0")[0] == 2


def test_kesten_radii_past_the_solve_limit_exit_3_before_any_solve(capsys, monkeypatch):
    # 100,000 radii of the k=1 path, one solve each, ran past 60 s; the
    # solve at radius r takes r + 1 layer steps, summed here in closed form
    started = time.perf_counter()
    code, out, err = run(capsys, "kesten", "-k", "1", "--radii", "1..100000",
                         "--cap", "300000", "--no-meta")
    assert code == 3 and out == ""
    assert f"SOLVE_LIMIT = {spectral.SOLVE_LIMIT}" in err and "5000150000" in err
    # a range within --cap is not expanded before the check
    code, _, err = run(capsys, "kesten", "--radii", "1..1000000000000", "--cap", str(10**13))
    assert code == 3 and "SOLVE_LIMIT" in err
    assert time.perf_counter() - started < 1.0
    # 2 + 3 + 4 = 9 for 1..3 and 14 for 1..4, summed over the chunks
    monkeypatch.setattr(spectral, "SOLVE_LIMIT", 13)
    assert cli._parse_radii("1,2..3", 100, 2) == [1, 2, 3]
    code, _, err = run(capsys, "kesten", "--radii", "1..3,4", "--no-meta")
    assert code == 3 and "need 14 layer steps" in err and "SOLVE_LIMIT = 13" in err


def test_kesten_generator_count_beyond_cap_rejected_before_building(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "kesten", "-k", "10000000", "--radii", "1")
    assert code == 3
    assert out == ""
    assert "20000001" in err and "--cap 2000000" in err
    assert time.perf_counter() - started < 2.0
    # a radius-1 ball of k free generators has exactly 2k + 1 nodes
    code, _, err = run(capsys, "kesten", "-k", "3", "--radii", "1", "--cap", "6")
    assert code == 3
    assert "at least 7" in err and "--cap 6" in err
    assert run(capsys, "kesten", "-k", "3", "--radii", "1", "--cap", "7", "--no-meta")[0] == 0


def _no_generators(k):
    raise AssertionError(f"built {2 * k} generators")


def test_kesten_generator_images_bounded_before_they_are_built(capsys, monkeypatch):
    # 16,000 generators on the 16,001 nodes of the radius-1 ball would store
    # 256M images; before the bound the run took 63 s and 7.6 GB
    started = time.perf_counter()
    code, out, err = run(capsys, "kesten", "-k", "8000", "--radii", "1")
    assert code == 3
    assert out == ""
    assert "image limit" in err and "need 256016000 images" in err
    assert time.perf_counter() - started < 2.0
    # refused from the arguments: building 200,000 generators first took 3 s
    monkeypatch.setattr(cli, "free_generator_set", _no_generators)
    code, out, err = run(capsys, "kesten", "-k", "100000", "--radii", "1")
    assert code == 3 and out == ""
    assert "need 40000200000 images" in err


def test_kesten_csv(capsys, tmp_path):
    csv_path = tmp_path / "profile.csv"
    code, report, _ = run_json(
        capsys, "kesten", "--radii", "1..3", "--csv", str(csv_path), "--no-meta"
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "radius,estimate"
    assert len(lines) == 4
    for line, row in zip(lines[1:], report["rows"]):
        r_txt, e_txt = line.split(",")
        assert int(r_txt) == row["radius"]
        assert float(e_txt) == row["estimate"]


def test_reiter_shift_generator(capsys):
    code, report, _ = run_json(
        capsys, "reiter", "t", "--epsilon", "0.2", "--no-meta"
    )
    assert code == 0
    assert report["window_size"] == 50
    assert report["max_deviation"] == 0.2
    assert set(report["deviations"]) == {"(1; e)", "(-1; e)"}


def test_reiter_window_is_the_first_that_certifies_exactly(capsys):
    # 2 * 6 / 30000 = 1/2500 <= 0.02^2: summed float squares overshot
    # that boundary and doubled the window to 60,000
    code, report, _ = run_json(capsys, "reiter", "t^6", "--epsilon", "0.02", "--no-meta")
    assert code == 0
    assert report["window_size"] == 30000
    assert report["deviation_squared"] == {"(6; e)": "1/2500", "(-6; e)": "1/2500"}
    assert report["max_deviation"] == 0.02
    code, report, _ = run_json(
        capsys, "reiter", "t^5, x17 x24 x17^-1", "--epsilon", "0.02", "--no-meta"
    )
    assert code == 0
    assert (report["window_start"], report["window_size"]) == (24, 25000)
    assert report["deviation_squared"] == {
        "(5; e)": "1/2500", "(-5; e)": "1/2500",
        "(0; x17 x24 x17^-1)": "0", "(0; x17 x24^-1 x17^-1)": "0",
    }
    assert report["max_deviation"] == 0.02


def test_reiter_word_generator(capsys):
    code, report, _ = run_json(
        capsys, "reiter", "x0", "--epsilon", "0.5", "--no-meta"
    )
    assert code == 0
    assert report["window_size"] == 1
    assert report["max_deviation"] == 0.0


def test_reiter_epsilon_out_of_range(capsys):
    code, _, err = run(capsys, "reiter", "t", "--epsilon", "3")
    assert code == 2
    assert "epsilon" in err


def test_reiter_window_cap(capsys):
    code, _, err = run(capsys, "reiter", "t", "--epsilon", "0.001",
                       "--window", "1000")
    assert code == 3
    huge = "1" + "0" * 400
    for literal in (f"t^{huge}", f"({huge}; x1)"):
        code, _, err = run(capsys, "reiter", literal, "--epsilon", "1.9")
        assert code == 3 and "window size 10^399.7 exceeds cap 1048576" in err
    # a window too long for str() (over 4,300 digits) is named by its size
    code, _, err = run(capsys, "reiter", f"t^{'9' * 3900}", "--epsilon", "1e-300")
    assert code == 3 and "window size 10^4500.3" in err
    code, report, _ = run_json(capsys, "reiter", f"t^{huge}", "--epsilon", "1.9",
                               f"--window={huge}0", "--no-meta")
    assert code == 0 and report["window_size"] == math.ceil(2 * 10**400 / Fraction(1.9) ** 2)
    assert 0 < report["amplitude"] < 1e-199
    assert run(capsys, "reiter", "t", "--epsilon", "0.5", "--window", "-5")[0] == 2
    assert run(capsys, "congruence", "2", "3", "--cap", "0")[0] == 2


def test_reciprocity_default_suite(capsys):
    code, report, _ = run_json(capsys, "reciprocity", "--no-meta")
    assert code == 0
    assert report["pass"] is True
    assert len(report["entries"]) == 15


def test_reciprocity_report_names_the_suite_as_given(capsys, tmp_path, monkeypatch):
    # two checkouts in two working directories give the same bytes
    outputs = []
    for name in ("a", "b"):
        checkout = tmp_path / name
        shutil.copytree(suite.DATA_DIR, checkout / "data")
        (checkout / "one.jsonl").write_text(
            '{"kind": "frobenius", "group": "s3", "subgroup": "c3_in_s3"}\n'
        )
        monkeypatch.setattr(suite, "DATA_DIR", checkout / "data")
        monkeypatch.chdir(checkout)
        code, default_out, _ = run(capsys, "reciprocity", "--no-meta")
        assert code == 0
        assert json.loads(default_out)["suite"] == "default"
        code, given_out, _ = run(capsys, "reciprocity", "one.jsonl", "--no-meta")
        assert code == 0
        assert json.loads(given_out)["suite"] == "one.jsonl"
        outputs.append((default_out, given_out))
    assert outputs[0] == outputs[1]


def test_reciprocity_malformed_suite(capsys, tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind": "mystery"}\n{"kind": "frobenius"}\n')
    code, out, err = run(capsys, "reciprocity", str(p))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: {p}: line 1: unknown kind 'mystery'",
        f"error: {p}: line 2: missing fields ['group', 'subgroup']",
    ]


def test_reciprocity_failing_suite(capsys, tmp_path):
    p = tmp_path / "fail.jsonl"
    p.write_text('{"kind": "frobenius", "group": "s4", "subgroup": "c3_in_s3"}\n')
    code, report, _ = run_json(capsys, "reciprocity", str(p), "--no-meta")
    assert code == 1
    assert report["pass"] is False


def test_reciprocity_empty_suite_warns(capsys, tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("# intentionally empty\n")
    code, out, err = run(capsys, "reciprocity", str(p), "--no-meta")
    assert code == 0
    assert "warning" in err


def test_congruence_order_check(capsys):
    code, report, _ = run_json(capsys, "congruence", "2", "3", "--no-meta")
    assert code == 0
    assert report["order_bfs"] == 24
    assert report["order_formula"] == 24
    assert report["order_match"] is True
    code, report, _ = run_json(capsys, "congruence", "3", "3", "--no-meta")
    assert code == 0
    assert report["order_bfs"] == 5616
    assert report["order_match"] is True


def test_congruence_witness(capsys):
    code, report, _ = run_json(
        capsys, "congruence", "--witness", "1,6;0,1", "--no-meta"
    )
    assert code == 0
    assert report["witness"]["modulus"] == 4


def test_congruence_usage_errors(capsys):
    assert run(capsys, "congruence")[0] == 2
    assert run(capsys, "congruence", "2")[0] == 2
    assert run(capsys, "congruence", "1", "3")[0] == 2
    assert run(capsys, "congruence", "--witness", "1,0;0,1")[0] == 2
    assert run(capsys, "congruence", "--witness", "2,0;0,1")[0] == 2
    assert run(capsys, "congruence", "--witness", "1,2,3")[0] == 2


def test_no_meta_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "kesten", "--radii", "1..3", "--no-meta")
    _, second, _ = run(capsys, "kesten", "--radii", "1..3", "--no-meta")
    assert first == second


def test_meta_block_present_by_default(capsys):
    code, report, _ = run_json(capsys, "eymard-verify", "x0")
    assert code == 0
    assert report["meta"]["tool"] == "cosetlab"
    assert "generated" in report["meta"]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "eymard-verify", "x0", "--no-meta", "--out", str(target)
    )
    assert code == 0
    assert str(target) in out
    report = json.loads(target.read_text())
    assert report["pass"] is True


@pytest.mark.parametrize("argv", [
    ["eymard-verify", "x5 x3 x5^-1, x1"],
    ["kesten", "-k", "1", "--radii", "1..3"],
    ["reiter", "t, x0, x-3", "--epsilon", "0.1"],
    ["reciprocity", "{failing_suite}"],
    ["congruence", "2", "3", "--witness", "1,6;0,1"],
])
def test_out_file_holds_the_printed_report(capsys, tmp_path, argv):
    failing = tmp_path / "fail.jsonl"
    failing.write_text('{"kind": "frobenius", "group": "s4", "subgroup": "c3_in_s3"}\n')
    argv = [a.format(failing_suite=failing) for a in argv] + ["--no-meta"]
    code, printed, _ = run(capsys, *argv)
    target = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(target)) == (code, f"report written to {target}\n", "")
    assert target.read_text() == printed
    assert code == (1 if argv[0] == "reciprocity" else 0)


def test_unknown_subcommand(capsys):
    assert run(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "kesten", "--help")[0] == 0


def test_congruence_cap_exceeded(capsys):
    code, out, err = run(capsys, "congruence", "3", "5", "--cap", "1000")
    assert code == 3
    assert out == ""
    assert "cap 1000" in err


def test_word_literal_past_the_letter_bound_exits_3(capsys):
    code, out, err = run(capsys, "eymard-verify", "x1^1000000000")
    assert code == 3
    assert out == ""
    assert "MAX_WORD_LETTERS" in err


def test_literal_lists_are_bounded_as_a_whole(capsys):
    n = MAX_WORD_LETTERS
    for argv in (
        ["eymard-verify", f"x1^{n}, x2^{n}"],
        ["reiter", f"t, x1^{n // 2}, (3; x2^{n // 2} x3)", "--epsilon", "0.5"],
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"has {n + 1 if argv[0] == 'reiter' else 2 * n} letters" in err
        assert "MAX_WORD_LETTERS" in err
        assert time.perf_counter() - started < 1.0


_NUMPY_FREE_RUNS = [["--version"], ["reiter", "t", "--epsilon", "0.5"], ["eymard-verify", "x1"],
                    # usage errors
                    ["kesten", "-k", "two"], ["kesten", "--radii", "0"], ["congruence", "2"],
                    ["reiter", "x1 y", "--epsilon", "0.5"]]
_NUMPY_RUNS = [["reciprocity"], ["congruence", "2", "3"],
               ["kesten", "-k", "1", "--radii", "1"]]


@pytest.fixture(scope="module")
def modules_loaded():
    """Per run, in a fresh process: whether scipy was imported, whether
    numpy ran (a lazily imported numpy sits in sys.modules unexecuted, so
    look for its submodules), the cosetlab modules it imported (by their
    names within the package), whether dataclasses was imported, whether
    numpy.ma was, and which of fractions and decimal were."""
    env = dict(os.environ, PYTHONPATH=str(Path(suite.__file__).parents[1]))
    probe = (
        "import contextlib, io, json, sys\n"
        "from cosetlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    main(json.loads(sys.argv[1]))\n"
        "print(json.dumps(['scipy' in sys.modules, "
        "any(m.startswith('numpy.') for m in sys.modules), "
        "[m[len('cosetlab.'):] for m in sys.modules if m.startswith('cosetlab.')], "
        "'dataclasses' in sys.modules, 'numpy.ma' in sys.modules, "
        "[m for m in ('fractions', 'decimal') if m in sys.modules]]))\n"
    )
    loaded = []
    for argv in _NUMPY_FREE_RUNS + _NUMPY_RUNS:
        got = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                             capture_output=True, text=True, timeout=120)
        scipy, numpy, modules, dataclasses, masked, exact = json.loads(got.stdout)
        loaded.append((scipy, numpy, set(modules), dataclasses, masked, set(exact)))
    return loaded


def test_lazy_import_of_a_missing_module_fails_at_once():
    # numpy is deferred, but a missing numpy fails the import of its user
    probe = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import cosetlab.cosets\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    assert _fresh_run(probe).stdout == "numpy\n"


def test_no_subcommand_loads_scipy(modules_loaded):
    assert not any(scipy for scipy, *_ in modules_loaded)


def test_no_subcommand_loads_numpy_ma(modules_loaded):
    # np.unique imports numpy.ma (about 10 ms) through np.ma.is_masked
    assert not any(masked for *_, masked, _ in modules_loaded)


def test_no_subcommand_loads_dataclasses(modules_loaded):
    # dataclasses imports inspect; numpy loads inspect but not dataclasses
    assert not any(dataclasses for *_, dataclasses, _, _ in modules_loaded)


def test_only_subcommands_that_build_arrays_run_numpy(modules_loaded):
    numpy = [ran for _, ran, *_ in modules_loaded]
    assert numpy == [False] * len(_NUMPY_FREE_RUNS) + [True] * len(_NUMPY_RUNS)


def test_each_run_loads_only_the_modules_it_uses(modules_loaded):
    runs = {tuple(argv): (modules, dataclasses) for argv, (_, _, modules, dataclasses, *_)
            in zip(_NUMPY_FREE_RUNS + _NUMPY_RUNS, modules_loaded)}
    for argv in [("--version",), ("kesten", "-k", "two"), ("kesten", "--radii", "0")]:
        modules, _ = runs[argv]
        assert not modules & {"freegroup", "cosets", "spectral", "finitegroup",
                              "characters", "suite"}, argv
    for argv in [("reiter", "t", "--epsilon", "0.5"), ("eymard-verify", "x1")]:
        modules, dataclasses = runs[argv]
        assert modules == {"cli", "errors", "freegroup", "invariance"}, argv
        assert not dataclasses, argv
    modules, _ = runs["congruence", "2", "3"]
    assert "finitegroup" in modules and not modules & {"spectral", "cosets"}
    # a usage error loads no module it does not run
    assert runs["congruence", "2"][0] == {"cli", "errors"}
    assert runs["reiter", "x1 y", "--epsilon", "0.5"][0] == {"cli", "errors", "freegroup"}


def test_only_the_reiter_path_loads_fractions_and_decimal(modules_loaded):
    # invariance imports Fraction where the Reiter code runs: at the top of
    # the module it cost every Kesten process about 6 ms of imports
    exact = {tuple(argv): loaded[-1]
             for argv, loaded in zip(_NUMPY_FREE_RUNS + _NUMPY_RUNS, modules_loaded)}
    assert exact["kesten", "-k", "1", "--radii", "1"] == set()
    assert exact["reiter", "t", "--epsilon", "0.5"] == {"fractions", "decimal"}


def test_cli_resolves_only_the_public_names():
    assert cli.parse_literals is cosetlab.parse_literals
    for name in ("no_such_name", "__path__", "__all__"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)


@pytest.mark.parametrize("name, argv", [
    ("kesten_profile", ["kesten", "-k", "1", "--radii", "1..3"]),
    ("reiter_search", ["reiter", "t", "--epsilon", "0.5"]),
    ("parse_gelement", ["reiter", "t", "--epsilon", "0.5"]),
    ("parse_word", ["eymard-verify", "x1"]),
    ("run_suite", ["reciprocity"]),
    ("congruence_group", ["congruence", "2", "3"]),
    ("_emit", ["congruence", "2", "3"]),
])
def test_handlers_call_what_the_cli_module_holds(capsys, monkeypatch, name, argv):
    # perfbench/tracer.py times each layer by replacing these attributes of
    # `cli`, so a handler must call whatever `cli.<name>` holds when it runs
    real, calls = getattr(cli, name), []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    assert run(capsys, *argv, "--no-meta")[0] == 0
    assert calls


@pytest.mark.parametrize("preset", list(itertools.product((None, "3"), repeat=3)))
def test_console_main_starts_one_blas_thread_unless_the_user_chose(monkeypatch, preset):
    # the entry point leaves the BLAS thread count to numpy's loader
    for var, value in zip(_lazy.BLAS_THREAD_VARS, preset):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(cli, "main", lambda: 0)
    frozen = gc.get_freeze_count()
    with pytest.raises(SystemExit):
        cli.console_main()
    # the process entry point freezes the heap before it exits; thaw it, so
    # the test process keeps collecting
    assert gc.get_freeze_count() > frozen
    gc.unfreeze()
    assert tuple(os.environ.get(var) for var in _lazy.BLAS_THREAD_VARS) == preset


_CLI_RUN = (
    "sys.argv = ['cosetlab', 'congruence', '2', '3', '--no-meta']\n"
    "runpy.run_module('cosetlab', run_name='__main__', alter_sys=True)\n"
)
# kesten_profile through the library on Coset(0, e) under t, x0; it checks
# that os.environ is as it found it and that numpy keeps its own loader
_LIBRARY_RUN = (
    "import importlib.util, json, os\n"
    "environ, own = dict(os.environ), type(importlib.util.find_spec('numpy').loader)\n"
    "from cosetlab import Coset, GenSet, IDENTITY, kesten_profile, parse_gelement\n"
    "gens = GenSet.symmetrized([parse_gelement('t'), parse_gelement('x0')])\n"
    "profile = kesten_profile(Coset(0, IDENTITY), gens, range(1, {radius} + 1))\n"
    "import numpy\n"
    "assert dict(os.environ) == environ, 'environment changed'\n"
    "assert type(numpy.__spec__.loader) is own and numpy.__loader__ is numpy.__spec__.loader\n"
    "print(json.dumps(list(profile.estimates)))\n"
)


def _fresh_run(code, **preset):
    """`code` run by a fresh interpreter that sees only `preset` of the BLAS
    thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in _lazy.BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(suite.__file__).parents[1]))
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    return got


def _blas_probe(run=_CLI_RUN, first="", **preset):
    """Threads alive at exit of `run` (by default `python -m cosetlab
    congruence 2 3`) with the statement `first` run before it, and the
    OPENBLAS_NUM_THREADS it ended with (None if unset), given only `preset`
    of the BLAS thread variables."""
    probe = (
        "import atexit, os, runpy, sys\n"
        "atexit.register(lambda: print(len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr))\n"
        f"{first}\n{run}"
    )
    got = _fresh_run(probe, **preset)
    if run is _CLI_RUN:
        assert json.loads(got.stdout)["order_bfs"] == 24
    threads, value = got.stderr.split()
    return int(threads), None if value == "None" else value


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_runs_one_thread_unless_the_user_chose():
    assert _blas_probe() == (1, None)
    threads, value = _blas_probe(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    assert threads == min(2, len(os.sched_getaffinity(0)))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_loaded_by_a_library_run_starts_one_thread_unless_the_user_chose():
    shift = _LIBRARY_RUN.format(radius=4)
    assert _blas_probe(shift) == (1, None)
    assert _blas_probe(shift, OPENBLAS_NUM_THREADS="2") == (
        min(2, len(os.sched_getaffinity(0))), "2")
    # numpy imported before cosetlab keeps its own thread count
    assert _blas_probe(shift, first="import numpy") == _blas_probe("import numpy\n")


def test_blas_thread_count_never_enters_the_estimates():
    shift = _LIBRARY_RUN.format(radius=10)
    one, two = (json.loads(_fresh_run(shift, OPENBLAS_NUM_THREADS=n).stdout) for n in "12")
    assert len(one) == 10 and one == two


def test_the_lazy_loader_sets_one_blas_thread_only_while_it_loads(monkeypatch, tmp_path):
    # the module records the value its load ran with
    (tmp_path / "cosetlab_probe_mod.py").write_text(
        "import os\nseen = os.environ.get('OPENBLAS_NUM_THREADS')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    for var in _lazy.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)

    def load():
        spec = importlib.util.find_spec("cosetlab_probe_mod")
        own, spec.loader = type(spec.loader), _lazy._OneBlasThread(spec.loader)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert type(module.__spec__.loader) is own and module.__loader__ is module.__spec__.loader
        return module

    assert load().seen == "1" and "OPENBLAS_NUM_THREADS" not in os.environ
    # a count the user chose is left to them
    monkeypatch.setenv("GOTO_NUM_THREADS", "4")
    assert load().seen is None
    assert os.environ.get("GOTO_NUM_THREADS") == "4" and "OPENBLAS_NUM_THREADS" not in os.environ


def test_library_use_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "congruence", "2", "3", "--no-meta")[0] == 0
    assert run(capsys, "--version")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_cli_process_writes_complete_files_before_its_frozen_exit(capsys, tmp_path):
    argv = ["kesten", "-k", "1", "--radii", "1..3", "--no-meta"]
    # buffered stdout, so that an exit that skipped the flush would lose it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(suite.__file__).parents[1])
    got = subprocess.run([sys.executable, "-m", "cosetlab", *argv, "--csv", "F", "--out", "G"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (got.returncode, got.stdout, got.stderr) == (0, "report written to G\n", "")
    assert len((tmp_path / "F").read_text().splitlines()) == 4
    assert json.loads((tmp_path / "G").read_text()) == run_json(capsys, *argv)[1]


_STDLIB_LOADED_ON_USE = ("csv", "datetime", "json", "pathlib", "typing")


@pytest.mark.parametrize("argv, loaded", [
    (["--version"], set()),
    (["kesten", "-k", "two"], set()),
    (["reiter", "t", "--epsilon", "0.5", "--no-meta"], {"json"}),
])
def test_a_cli_run_imports_only_the_stdlib_it_uses(argv, loaded):
    # -S: no site hook or .pth file imports anything first; numpy's
    # directory is on the path so that a lazy import can find it
    np_dir = Path(importlib.util.find_spec("numpy").origin).parents[1]
    probe = (
        "import sys\n"
        "from cosetlab.cli import main\n"
        "main(sys.argv[1:])\n"
        f"print('loaded:', *[m for m in {_STDLIB_LOADED_ON_USE!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(suite.__file__).parents[1]), str(np_dir)]))
    got = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    last = got.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:" and set(last[1:]) == loaded, got.stderr


def test_library_use_leaves_the_environment_alone():
    probe = (
        "import io, os, contextlib\n"
        "before = dict(os.environ)\n"
        "import cosetlab\n"
        "from cosetlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['congruence', '2', '3', '--no-meta'])\n"
        "print(before == dict(os.environ))\n"
    )
    # none of the BLAS thread variables set, so numpy's loader sets one
    assert _fresh_run(probe).stdout.split() == ["True"]


_exponents = st.one_of(
    st.integers(-50, 50),
    st.integers(MAX_WORD_LETTERS + 1, 10**12).flatmap(lambda k: st.sampled_from((k, -k))),
)
_word_literals = st.lists(
    st.tuples(st.integers(-10**12, 10**12), _exponents), min_size=1, max_size=3
)


def _run_quiet(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def _check_exit(code, literals):
    if sum(abs(k) for tokens in literals for _, k in tokens) > MAX_WORD_LETTERS:
        assert code == 3
    else:
        assert code in (0, 1)


def _word_text(tokens):
    return " ".join(f"x{i}^{k}" for i, k in tokens)


@settings(max_examples=100, deadline=2000)
@given(st.lists(_word_literals, min_size=1, max_size=3))
def test_eymard_verify_fuzz_exits_in_bounds(literals):
    code = _run_quiet(["eymard-verify", ", ".join(map(_word_text, literals)),
                       "--no-meta"])
    _check_exit(code, literals)


_shifts = st.integers(-50, 50) | st.integers(-10**400, 10**400)


@settings(max_examples=150, deadline=2000)
@given(st.lists(_word_literals, max_size=3), st.lists(_shifts, max_size=2),
       st.lists(st.tuples(_shifts, st.none() | _word_literals), max_size=2),
       st.floats(1e-3, 1.999),
       st.none() | st.integers(-3, 0) | st.integers(1, 10**7) | st.integers(1, 10**500))
def test_reiter_fuzz_exits_in_bounds(literals, shifts, pairs, epsilon, window):
    texts = [*map(_word_text, literals), *(f"t^{k}" for k in shifts),
             *(f"({k}; {_word_text(w) if w else 'e'})" for k, w in pairs)]
    argv = ["reiter", ", ".join(texts) or "e", f"--epsilon={epsilon!r}", "--no-meta"]
    if window is not None:
        argv.append(f"--window={window}")
    code = _run_quiet(argv)
    words = [*literals, *(w for _, w in pairs if w)]
    K = max(map(abs, [*shifts, *(k for k, _ in pairs)]), default=0)
    start = max(1, math.ceil(Fraction(2 * K) / Fraction(epsilon) ** 2))
    if sum(abs(k) for tokens in words for _, k in tokens) > MAX_WORD_LETTERS:
        assert code == 3
    elif window is not None and window < 1:
        assert code == 2
    else:
        assert code == (3 if start > (1 << 20 if window is None else window) else 0)


@st.composite
def _radii(draw):
    """A radii literal of strictly increasing "lo" and "lo..hi" chunks,
    small enough to solve at once, sometimes closed by a radius past every
    --cap drawn below; and its largest radius."""
    parts, top = [], 0
    for width in draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3)):
        lo = top + draw(st.integers(1, 3))
        top = lo + max(width, 0)
        parts.append(str(lo) if width < 0 else f"{lo}..{top}")
    if draw(st.integers(0, 3)) == 0:
        top = draw(st.integers(10**6, 10**12))
        parts.append(str(top))
    return ",".join(parts), top


@settings(max_examples=100, deadline=2000)
@example(("2..2", 2), 1, 1, "--")
@given(_radii(), st.integers(1, 4) | st.integers(-1, 50),
       st.integers(1, 10**4) | st.integers(-1, 10**4),
       st.none() | st.text("0123456789.,-kx ", max_size=8))
def test_kesten_fuzz_exits_in_bounds(radii, k, cap, garbage):
    text, top = radii
    code = _run_quiet(["kesten", f"-k={k}", f"--radii={garbage or text}", f"--cap={cap}",
                       "--no-meta"])
    assert code in (0, 1, 2, 3)
    if garbage is None and cap >= 1 and 2 * max(top, k) + 1 > cap:
        assert code == 3


@settings(max_examples=60, deadline=2000)
@given(st.integers(2, 3) | st.integers(-1, 5) | st.integers(6, 10**9),
       st.integers(2, 12) | st.integers(-1, 40), st.integers(1, 10**4) | st.integers(-3, 0))
def test_congruence_fuzz_exits_in_bounds(n, m, cap):
    code = _run_quiet(["congruence", f"{n}", f"{m}", f"--cap={cap}", "--no-meta"])
    assert code in (0, 1, 2, 3)
    if n >= 2 and m >= 2 and cap >= 1:
        # from n = 6 the order is at least m^(n(n-1)) >= 2^30 > cap
        assert code == (3 if n >= 6 or special_linear_order(n, m) > cap else 0)
    else:
        assert code == 2


def test_congruence_past_the_triangular_bound_exits_3_at_once():
    # |SL(40, Z/2)| >= 2^1560: refused before any generator is built
    env = dict(os.environ, PYTHONPATH=str(Path(suite.__file__).parents[1]))
    got = subprocess.run([sys.executable, "-m", "cosetlab", "congruence", "40", "2"],
                         env=env, capture_output=True, text=True, timeout=2)
    assert got.returncode == 3 and got.stdout == ""
    assert "cap 1000000" in got.stderr and "2^1560" in got.stderr


def test_congruence_stops_at_the_closure_byte_budget():
    # |SL(4, Z/3)| = 12,130,560.  Bounded by the element cap alone, the
    # closure held a million keys and stopped after 2.5 s at 227 MB.
    code, err, maxrss_kb = child_peak_rss(
        [sys.executable, "-m", "cosetlab", "congruence", "4", "3", "--no-meta"], timeout=60)
    assert code == 3
    assert "CLOSURE_BYTES" in err and "cap 1000000" in err
    assert maxrss_kb < 170 * 1024


def test_congruence_fits_sl2_mod_97_under_the_closure_byte_budget():
    # |SL(2, Z/97)| = 912,576.  Keyed by a dict of row bytes, the closure
    # counted about 128 bytes a key and stopped at CLOSURE_BYTES; numbered
    # in a table of 8-byte row keys it finishes, at about 140 MB.  Exit 0
    # means order_bfs matched order_formula.
    code, err, maxrss_kb = child_peak_rss(
        [sys.executable, "-m", "cosetlab", "congruence", "2", "97", "--no-meta"], timeout=60)
    assert code == 0, err
    assert maxrss_kb < 200 * 1024


def _elementary_product(n, steps):
    """The product of the elementary matrices I + c E_ij (i != j) in steps:
    an integer matrix of determinant 1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in steps:
        i, j = i % n, j % n
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


@settings(max_examples=100, deadline=2000)
@given(st.integers(2, 4), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                             st.integers(-10**6, 10**6)), max_size=6))
def test_congruence_witness_fuzz_finds_the_smallest_separating_modulus(n, steps):
    a = _elementary_product(n, steps)
    literal = ";".join(",".join(map(str, row)) for row in a)
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = main(["congruence", f"--witness={literal}", "--no-meta"])
    dev = [x - (i == j) for i, row in enumerate(a) for j, x in enumerate(row)]
    if not any(dev):
        assert code == 2
        return
    assert code == 0
    m = json.loads(out.getvalue())["witness"]["modulus"]
    assert any(x % m for x in dev) and not any(x % k for k in range(2, m) for x in dev)


@settings(max_examples=200, deadline=2000)
@given(st.text("0123456789-+,; e", max_size=40) | st.text(max_size=20),
       st.none() | st.tuples(st.integers(-1, 3), st.integers(-1, 12)))
def test_congruence_witness_literal_fuzz_exits_in_bounds(literal, order):
    argv = ["congruence", f"--witness={literal}", "--cap=1000", "--no-meta"]
    if order is not None:
        argv[1:1] = map(str, order)
    assert _run_quiet(argv) in (0, 1, 2, 3)


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8,
)
_names = st.sampled_from(sorted(suite.registry()))
_entries = st.fixed_dictionaries(
    {"kind": st.sampled_from(["frobenius", "stages", "invariants"]) | _json},
    optional={"group": _names | _json, "mid": _names | _json, "subgroup": _names | _json,
              "tables": _json},
)
_runnable = st.fixed_dictionaries(  # well formed, but any group, table or character
    {"kind": st.sampled_from(["frobenius", "stages", "invariants"]),
     "group": _names, "mid": _names, "subgroup": _names},
    optional={"character": st.sampled_from(["trivial", 0, 1, 7, -1, True, 1.5]) | _json,
              "tables": st.fixed_dictionaries({}, optional={"group": st.text(max_size=8),
                                                            "subgroup": st.text(max_size=8)})},
)
_suite_lines = st.lists(
    st.builds(json.dumps, _runnable) | st.builds(json.dumps, _entries)
    | st.builds(json.dumps, _json) | st.text(max_size=30)
    | st.sampled_from(["", "# comment", "{", "[1, 2]"]),
    max_size=3,
)


@settings(max_examples=200, deadline=2000)
@given(_suite_lines)
def test_reciprocity_malformed_suite_fuzz_exits_in_bounds(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "suite.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        assert _run_quiet(["reciprocity", str(path), "--no-meta"]) in (0, 1, 2, 3)
