"""The bundled verification suite and its file format."""

import pytest

from cosetlab.suite import (
    SuiteFormatError,
    default_suite_path,
    irreducibles,
    registry,
    run_suite,
)


def test_registry_contents():
    reg = registry()
    assert len(reg["s3"]) == 6
    assert len(reg["s4"]) == 24
    assert len(reg["sl2z3"]) == 24
    assert len(reg["gl32"]) == 168
    assert len(reg["borel_sl2z3"]) == 6
    assert len(reg["stab_gl32"]) == 24
    assert len(reg["e_in_s3"]) == 1
    # registry handles are cached
    assert registry()["s3"] is reg["s3"]
    assert irreducibles("s3") is irreducibles("s3")
    with pytest.raises(ValueError, match="no bundled character table for 'e_in_s3'"):
        irreducibles("e_in_s3")


def test_default_suite_passes():
    result = run_suite()
    assert result.passed
    assert len(result.entries) == 15
    assert not result.warnings
    kinds = {e.kind for e in result.entries}
    assert kinds == {"frobenius", "invariants", "stages"}
    for e in result.entries:
        assert e.passed, (e.line, e.description, e.details)


def test_default_suite_details():
    result = run_suite(default_suite_path())
    frob = [e for e in result.entries if e.kind == "frobenius"]
    # every pair of irreducibles is covered
    for e in frob:
        pairs = e.details["pairs"]
        assert all(p["mult_up"] == p["mult_down"] for p in pairs)
    by_desc = {e.description: e for e in frob}
    grid = by_desc["frobenius c3_in_s3 <= s3"].details["pairs"]
    assert len(grid) == 3 * 3


def test_empty_suite_warns(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("# nothing here\n\n")
    result = run_suite(p)
    assert result.passed
    assert result.warnings


def test_malformed_suite_collects_all_problems(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        "{not json\n"
        '{"kind": "mystery"}\n'
        '{"kind": "frobenius", "group": "s3"}\n'
        '{"kind": "frobenius", "group": "s3", "subgroup": "nope"}\n'
        '["list", "entry"]\n'
        '{"kind": ["frobenius"]}\n'
        '{"kind": "frobenius", "group": ["s3"], "subgroup": "c3_in_s3"}\n'
        '{"kind": "frobenius", "group": "s3", "subgroup": "c3_in_s3", "tables": ["x"]}\n'
        '{"kind": "frobenius", "group": "s3", "subgroup": "c3_in_s3", "tables": {"group": 1}}\n'
    )
    with pytest.raises(SuiteFormatError) as exc:
        run_suite(p)
    problems = exc.value.problems
    assert len(problems) == 9
    assert any("line 1" in q for q in problems)
    assert any("line 2" in q and "mystery" in q for q in problems)
    assert any("line 3" in q and "subgroup" in q for q in problems)
    assert any("line 4" in q and "nope" in q for q in problems)
    assert any("line 5" in q for q in problems)
    assert any("line 6" in q and "kind" in q for q in problems)
    assert any("line 7" in q and "group name" in q for q in problems)
    assert any("line 8" in q and "tables" in q for q in problems)
    assert any("line 9" in q and "tables" in q for q in problems)


def test_wrong_pairing_is_a_failed_entry(tmp_path):
    # structurally valid but mathematically wrong: c3_in_s3 is not inside s4
    p = tmp_path / "wrong.jsonl"
    p.write_text('{"kind": "frobenius", "group": "s4", "subgroup": "c3_in_s3"}\n')
    result = run_suite(p)
    assert not result.passed
    assert "error" in result.entries[0].details


def test_corrupted_table_override_fails_the_entry(tmp_path):
    # an override table that is not orthonormal must be rejected, turning
    # the entry into a failure rather than a silent pass
    chars = (tmp_path / "corrupt.chars")
    chars.write_text(
        "chi0 1.0,0.0 1.0,0.0 1.0,0.0\n"
        "chi1 1.0,0.0 1.0,0.0 -1.0,0.0\n"
        "chi2 1.0,0.0 -1.0,0.0 0.0,0.0\n"
    )
    p = tmp_path / "suite.jsonl"
    p.write_text(
        '{"kind": "frobenius", "group": "s3", "subgroup": "c3_in_s3", '
        '"tables": {"subgroup": "corrupt.chars"}}\n'
    )
    result = run_suite(p)
    assert not result.passed
    assert "error" in result.entries[0].details


def test_stages_with_integer_character_spec(tmp_path):
    p = tmp_path / "stages.jsonl"
    p.write_text(
        '{"kind": "stages", "group": "sl2z3", "mid": "borel_sl2z3", '
        '"subgroup": "borel_sl2z3", "character": 2}\n'
    )
    result = run_suite(p)
    assert result.passed


def test_stages_rejects_a_boolean_character_spec(tmp_path):
    # JSON true is not the character index 1
    p = tmp_path / "stages.jsonl"
    p.write_text(
        '{"kind": "stages", "group": "sl2z3", "mid": "borel_sl2z3", '
        '"subgroup": "borel_sl2z3", "character": true}\n'
    )
    result = run_suite(p)
    assert not result.passed
    assert "bad character spec" in result.entries[0].details["error"]


@pytest.mark.parametrize("index", [-1, 3])
def test_stages_rejects_a_character_index_outside_the_table(tmp_path, index):
    # -1 is not chi2, counted from the end; c3_in_s3 has chi0, chi1, chi2
    p = tmp_path / "stages.jsonl"
    p.write_text(
        '{"kind": "stages", "group": "s3", "mid": "c3_in_s3", '
        f'"subgroup": "c3_in_s3", "character": {index}}}\n'
    )
    result = run_suite(p)
    assert not result.passed
    error = result.entries[0].details["error"]
    assert error == f"bad character spec {index}: want 0..2"
