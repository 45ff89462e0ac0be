"""The benchmark's own tests: each referee rejects a planted wrong answer,
the stored reference agrees with cosetlab and with its own model, and a
small-size run emits every metric BENCHMARK.json names."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import referees  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {"free_radius": 5, "shift_radius": 6, "epsilon": 0.1, "window": 1000, "sl": (3, 2)}


def kesten_report(estimates):
    rows = [{"radius": r, "estimate": e} for r, e in enumerate(estimates, 1)]
    return json.dumps({"rows": rows, "pass": True, "free_walk_limit": math.sqrt(3) / 2})


def test_radial_eigenvalue_matches_known_ball_norms():
    assert abs(referees.radial_eigenvalue(1) - 0.5) < 1e-15
    assert abs(referees.radial_eigenvalue(2) - 0.6614378277661477) < 1e-15
    assert abs(referees.radial_eigenvalue(6) - 0.8113619196946872) < 1e-15
    assert [referees.free_ball_nodes(r) for r in (1, 2, 11)] == [5, 17, 354293]


def test_kesten_free_referee_accepts_lower_bounds_and_rejects_high_estimate():
    refs = [referees.radial_eigenvalue(r) for r in range(1, 5)]
    gap, problems = referees.kesten_free([kesten_report([x - 1e-9 for x in refs])], 4)
    assert problems == [] and abs(gap - 1e-9) < 1e-12
    high = [x - 1e-9 for x in refs]
    high[2] = refs[2] + 1e-9
    _, problems = referees.kesten_free([kesten_report(high)], 4)
    assert any("above reference" in p for p in problems)
    _, problems = referees.kesten_free([kesten_report([x - 1e-3 for x in refs])], 4)
    assert any("below" in p for p in problems)


def test_kesten_free_referee_rejects_wrong_node_count():
    refs = [referees.radial_eigenvalue(r) for r in range(1, 4)]
    _, problems = referees.kesten_free([kesten_report(refs)], 3, [5, 17, 53])
    assert problems == []
    _, problems = referees.kesten_free([kesten_report(refs)], 3, [5, 17, 54])
    assert any("ball sizes" in p for p in problems)


def test_kesten_shift_referee_rejects_wrong_node_count_and_high_estimate():
    ref = referees.load_reference()["kesten_shift"]
    out = json.dumps({"offset": 7, "radii": [1, 2, 3], "estimates": ref["eigenvalues"][:3]})
    gap, problems = referees.kesten_shift([out], 3, 7, ref["nodes"][:3])
    assert problems == [] and gap == referees.GAP_RESOLUTION
    _, problems = referees.kesten_shift([out], 3, 7, [3, 7, 18])
    assert any("ball sizes" in p for p in problems)
    high = json.dumps({"offset": 7, "radii": [1, 2, 3],
                       "estimates": [x + 1e-10 for x in ref["eigenvalues"][:3]]})
    _, problems = referees.kesten_shift([high], 3, 7)
    assert any("above reference" in p for p in problems)


def test_reiter_referee_rejects_moved_word_and_wrong_window():
    a, n = -4, 1000
    devs = {
        "(5; e)": math.sqrt(10 / n), "(-5; e)": math.sqrt(10 / n),
        f"(0; x{a} x{a + 7} x{a}^-1)": 0.0, f"(0; x{a} x{a + 7}^-1 x{a}^-1)": 0.0,
    }
    report = {"deviations": devs, "window_size": n, "window_start": a + 7,
              "pass": True, "max_deviation": math.sqrt(10 / n)}
    assert referees.reiter_window([json.dumps(report)], a, 0.1, n)[1] == []
    bad = dict(report, deviations=dict(devs, **{f"(0; x{a} x{a + 7} x{a}^-1)": 1e-17}))
    assert referees.reiter_window([json.dumps(bad)], a, 0.1, n)[1]
    assert referees.reiter_window([json.dumps(dict(report, window_size=2 * n))], a, 0.1, n)[1]


def test_sl_order_and_finite_groups_referee_rejects_wrong_order():
    assert [referees.sl_order(*nm) for nm in ((2, 3), (3, 2), (2, 6), (3, 4))] == [
        24, 168, 144, 43008]
    suite = {"pass": True, "entries": [
        {"line": i, "kind": k, "passed": True, "details": {}}
        for i, k in enumerate(referees.SUITE_KINDS)]}
    good = {"order_bfs": 43008, "order_formula": 43008, "pass": True}
    assert referees.finite_groups([json.dumps(suite), json.dumps(good)], 3, 4)[1] == []
    wrong = dict(good, order_bfs=43009, order_formula=43009)
    _, problems = referees.finite_groups([json.dumps(suite), json.dumps(wrong)], 3, 4)
    assert any("expected 43008" in p for p in problems)


def test_stored_reference_matches_its_model_and_cosetlab():
    from cosetlab import GenSet, Coset, IDENTITY, markov_operator, orbit_ball, parse_gelement

    stored = referees.load_reference()["kesten_shift"]
    fresh = make_reference.build(6)["kesten_shift"]
    assert fresh["nodes"] == stored["nodes"][:6]
    assert np.allclose(fresh["eigenvalues"], stored["eigenvalues"][:6], rtol=0, atol=1e-12)
    assert stored["max_residual"] < 1e-13
    gens = GenSet.symmetrized([parse_gelement("t"), parse_gelement("x3")])
    ball = orbit_ball(Coset(3, IDENTITY), gens.elements, 6)
    dense = markov_operator(ball).matrix.toarray()
    for r in range(1, 7):
        k = ball.prefix_size(r)
        assert k == stored["nodes"][r - 1]
        top = np.linalg.eigvalsh(dense[:k, :k])[-1]
        assert abs(top - stored["eigenvalues"][r - 1]) < 1e-12


def test_benchmark_json_names_the_metrics_run_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.MAKERS)


def test_seed_picks_offsets_reproducibly():
    a, b = workloads.make("reiter-window", 5), workloads.make("reiter-window", 5)
    assert a.steps == b.steps
    assert workloads.make("kesten-shift", 5).steps != workloads.make("kesten-shift", 6).steps


@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_metric(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_REPS", 1)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(workloads, "SIZE", SMALL)
    monkeypatch.chdir(ROOT)
    code = run.main(["--seconds", "0", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert last["correct"] is True and last["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.MAKERS:
        got = {k.split(".", 1)[1]: v["unit"] for k, v in last["metrics"].items()
               if k.startswith(name + ".")}
        assert got == expected
    if trace:
        assert last["metrics"]["kesten-free.cosets.orbit_ball.nodes"]["value"] == 485
        assert last["metrics"]["reiter-window.spectral.reiter_search.window_size"][
            "value"] == 1000
        assert last["metrics"]["finite-groups.suite.entries"]["value"] == 15
    assert not (ROOT / run.WORK_DIR).exists()


def test_stamp_names_the_commit():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    assert run._git_commit(ROOT) == head.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "kesten-free",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
