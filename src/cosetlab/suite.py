"""Bundled verification suite for the finite-group reciprocity checks.

Provides deterministic constructions of the small groups the checks run
on, loads their curated irreducible character tables, and executes JSONL
suite files whose entries request Frobenius-reciprocity grids, induction
in stages, or invariant-vector dimension counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

from .characters import (
    Character,
    frobenius_check,
    induce_character,
    invariant_dimension,
    load_character_table,
    stages_check,
)
from .finitegroup import FiniteGroup, Subgroup, congruence_group, generate_group

DATA_DIR = Path(__file__).parent / "data"

TABLE_NAMES = (
    "s3", "c3_in_s3", "s4", "s3_in_s4",
    "sl2z3", "borel_sl2z3", "gl32", "stab_gl32",
)


@lru_cache(maxsize=1)
def registry() -> Dict[str, FiniteGroup]:
    """The named groups and subgroups exercised by the bundled suite.

    Construction order and generators are fixed so every group's element
    and class ordering is reproducible; the bundled character tables are
    stated in exactly these class orders.
    """
    s3 = generate_group([(1, 0, 2), (1, 2, 0)])
    s4 = generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    sl2z3 = congruence_group(2, 3)
    gl32 = congruence_group(3, 2)
    return {
        "s3": s3,
        "c3_in_s3": s3.subgroup([(1, 2, 0)]),
        "c2_in_s3": s3.subgroup([(1, 0, 2)]),
        "e_in_s3": s3.subgroup([]),
        "s4": s4,
        "s3_in_s4": s4.subgroup([(1, 0, 2, 3), (1, 2, 0, 3)]),
        "c2_in_s4": s4.subgroup([(1, 0, 2, 3)]),
        "e_in_s4": s4.subgroup([]),
        "sl2z3": sl2z3,
        "borel_sl2z3": sl2z3.subgroup([((1, 1), (0, 1)), ((2, 0), (0, 2))]),
        "e_in_sl2z3": sl2z3.subgroup([]),
        "gl32": gl32,
        "stab_gl32": gl32.subgroup([
            ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
            ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
        ]),
        "e_in_gl32": gl32.subgroup([]),
    }


@lru_cache(maxsize=None)
def irreducibles(name: str) -> Tuple[Character, ...]:
    """The validated irreducible characters of a registry group."""
    if name not in TABLE_NAMES:
        raise ValueError(f"no bundled character table for {name!r}")
    return load_character_table(registry()[name], DATA_DIR / f"{name}.chars")


def default_suite_path() -> Path:
    return DATA_DIR / "default_suite.jsonl"


class SuiteFormatError(ValueError):
    """Malformed suite entries, each problem tagged with its line number."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class EntryResult:
    line: int
    kind: str
    description: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class SuiteResult:
    entries: List[EntryResult]
    warnings: List[str]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


_REQUIRED = {
    "frobenius": ("group", "subgroup"),
    "stages": ("group", "mid", "subgroup"),
    "invariants": ("group", "subgroup"),
}


def run_suite(path=None) -> SuiteResult:
    """Execute a JSONL suite file (default: the bundled suite).

    All format problems are collected and raised together as a
    SuiteFormatError; claim failures become failed entries in the result.
    """
    path = Path(path) if path is not None else default_suite_path()
    reg = registry()
    problems: List[str] = []
    parsed: List[Tuple[int, dict]] = []
    for ln, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {ln}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict) or "kind" not in obj:
            problems.append(f"line {ln}: entry must be an object with a 'kind'")
            continue
        kind = obj["kind"]
        if kind not in _REQUIRED:
            problems.append(f"line {ln}: unknown kind {kind!r}")
            continue
        missing = [k for k in _REQUIRED[kind] if k not in obj]
        if missing:
            problems.append(f"line {ln}: missing fields {missing}")
            continue
        unknown = [obj[k] for k in _REQUIRED[kind] if obj[k] not in reg]
        if unknown:
            problems.append(f"line {ln}: unknown group name(s) {unknown}")
            continue
        parsed.append((ln, obj))
    if problems:
        raise SuiteFormatError(problems)
    entries = [_run_entry(ln, obj, reg, path.parent) for ln, obj in parsed]
    warnings = ["suite contains no entries"] if not entries else []
    return SuiteResult(entries, warnings)


def _chars_for(name: str, override, base_dir: Path) -> Tuple[Character, ...]:
    if override is None:
        return irreducibles(name)
    p = Path(override)
    if not p.is_absolute():
        p = base_dir / p
    return load_character_table(registry()[name], p)


def _run_entry(ln: int, obj: dict, reg, base_dir: Path) -> EntryResult:
    kind = obj["kind"]
    try:
        if kind == "frobenius":
            G, H = reg[obj["group"]], reg[obj["subgroup"]]
            if not isinstance(H, Subgroup) or H.parent is not G:
                raise ValueError(f"{obj['subgroup']} is not a subgroup of {obj['group']}")
            tables = obj.get("tables", {})
            g_chars = _chars_for(obj["group"], tables.get("group"), base_dir)
            h_chars = _chars_for(obj["subgroup"], tables.get("subgroup"), base_dir)
            pairs = []
            ok = True
            for chi in h_chars:
                for rho in g_chars:
                    up, down = frobenius_check(G, H, chi, rho)
                    pairs.append({"chi": chi.name, "rho": rho.name,
                                  "mult_up": up, "mult_down": down})
                    ok = ok and up == down
            desc = f"frobenius {obj['subgroup']} <= {obj['group']}"
            return EntryResult(ln, kind, desc, ok, {"pairs": pairs})

        if kind == "invariants":
            G, H = reg[obj["group"]], reg[obj["subgroup"]]
            if not isinstance(H, Subgroup) or H.parent is not G:
                raise ValueError(f"{obj['subgroup']} is not a subgroup of {obj['group']}")
            h_chars = _chars_for(obj["subgroup"], obj.get("tables", {}).get("subgroup"),
                                 base_dir)
            rows = []
            ok = True
            for chi in h_chars:
                if invariant_dimension(chi) != 0:
                    continue  # only characters orthogonal to the trivial one
                dim = invariant_dimension(induce_character(chi, G))
                rows.append({"chi": chi.name, "invariant_dimension": dim})
                ok = ok and dim == 0
            desc = f"invariants ind from {obj['subgroup']} to {obj['group']}"
            return EntryResult(ln, kind, desc, ok, {"characters": rows})

        # kind == "stages"
        G, H, F = reg[obj["group"]], reg[obj["mid"]], reg[obj["subgroup"]]
        spec = obj.get("character", "trivial")
        if spec == "trivial":
            chi = Character.trivial(F)
        elif isinstance(spec, int):
            chi = irreducibles(obj["subgroup"])[spec]
        else:
            raise ValueError(f"bad character spec {spec!r}")
        ok = stages_check(G, H, F, chi)
        desc = (f"stages {obj['subgroup']} <= {obj['mid']} <= {obj['group']} "
                f"(chi={chi.name or 'trivial'})")
        return EntryResult(ln, kind, desc, ok, {})
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return EntryResult(ln, kind, f"{kind} entry", False, {"error": str(exc)})
