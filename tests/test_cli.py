"""Command-line front end: reports, exit codes, determinism."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosetlab import suite
from cosetlab._lazy import lazy_import
from cosetlab.cli import main
from cosetlab.finitegroup import special_linear_order
from cosetlab.freegroup import MAX_WORD_LETTERS


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
    p.write_text('{"kind": "mystery"}\n')
    code, out, err = run(capsys, "reciprocity", str(p))
    assert code == 2
    assert "line 1" in err


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
                    ["kesten", "-k", "two"], ["kesten", "--radii", "0"]]  # usage errors
_NUMPY_RUNS = [["reciprocity"], ["congruence", "2", "3"],
               ["kesten", "-k", "1", "--radii", "1"]]


@pytest.fixture(scope="module")
def modules_loaded():
    """Per run, in a fresh process: whether scipy was imported, and whether
    numpy ran (a lazily imported numpy sits in sys.modules unexecuted, so
    look for its submodules)."""
    env = dict(os.environ, PYTHONPATH=str(Path(suite.__file__).parents[1]))
    probe = (
        "import contextlib, io, json, sys\n"
        "from cosetlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    main(json.loads(sys.argv[1]))\n"
        "print(json.dumps(['scipy' in sys.modules, "
        "any(m.startswith('numpy.') for m in sys.modules)]))\n"
    )
    loaded = []
    for argv in _NUMPY_FREE_RUNS + _NUMPY_RUNS:
        got = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                             capture_output=True, text=True, timeout=120)
        loaded.append(tuple(json.loads(got.stdout)))
    return loaded


def test_lazy_import_of_a_missing_module_fails_at_once():
    with pytest.raises(ModuleNotFoundError):
        lazy_import("cosetlab_no_such_module")


def test_no_subcommand_loads_scipy(modules_loaded):
    assert not any(scipy for scipy, _ in modules_loaded)


def test_only_subcommands_that_build_arrays_run_numpy(modules_loaded):
    numpy = [ran for _, ran in modules_loaded]
    assert numpy == [False] * len(_NUMPY_FREE_RUNS) + [True] * len(_NUMPY_RUNS)


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


@settings(max_examples=100, deadline=2000)
@given(st.lists(_word_literals, min_size=1, max_size=3),
       st.lists(st.integers(-50, 50), max_size=2))
def test_reiter_fuzz_exits_in_bounds(literals, shifts):
    text = ", ".join([*map(_word_text, literals), *(f"t^{k}" for k in shifts)])
    code = _run_quiet(["reiter", text, "--epsilon", "0.5", "--no-meta"])
    _check_exit(code, literals)


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
@given(st.integers(2, 3) | st.integers(-1, 5), st.integers(2, 12) | st.integers(-1, 40),
       st.integers(1, 10**4))
def test_congruence_fuzz_exits_in_bounds(n, m, cap):
    code = _run_quiet(["congruence", f"{n}", f"{m}", f"--cap={cap}", "--no-meta"])
    assert code in (0, 1, 2, 3)
    if n >= 2 and m >= 2:
        assert code == (3 if special_linear_order(n, m) > cap else 0)
    else:
        assert code == 2
