"""The package namespace: every public name, resolved on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cosetlab

# The public names of `cosetlab`, by the submodule that defines them.
PUBLIC = {
    "errors": "ResourceLimitError",
    "freegroup": "GElement G_IDENTITY IDENTITY Word format_gelement format_word g_inv g_mul "
    "gamma_member minimal_level parse_gelement parse_literals parse_word reduce retract "
    "shift_word w_inv w_mul",
    "cosets": "Coset OrbitBall act h_orbit_partition normal_form orbit_ball",
    "invariance": "GenSet ReiterCertificate delta_invariance_check reiter_search",
    "spectral": "SpectralProfile free_generator_set kesten_profile markov_operator",
    "finitegroup": "ConjugacyClass FiniteGroup Subgroup congruence_group generate_group "
    "separation_witness special_linear_order",
    "characters": "Character coset_permutation_character frobenius_check induce_character "
    "inner_product invariant_dimension load_character_table parse_character_table "
    "restrict_character stages_check transfer_character",
    "suite": "EntryResult SuiteFormatError SuiteResult default_suite_path irreducibles "
    "registry run_suite",
}

_PROBE = """
import importlib, json, sys
import cosetlab
report = {"loaded_by_import": sorted(m for m in sys.modules if m.startswith("cosetlab."))}
namespace = {}
exec("from cosetlab import *", namespace)
report["star"] = sorted(namespace)
report["dir"] = dir(cosetlab)
home = json.loads(sys.argv[1])
report["not_the_same"] = [
    name for module, names in home.items() for name in names.split()
    if getattr(cosetlab, name) is not getattr(importlib.import_module("cosetlab." + module), name)
] + [module for module in home
     if getattr(cosetlab, module) is not sys.modules["cosetlab." + module]]
try:
    from cosetlab import no_such_name
except ImportError:
    report["missing_name"] = "ImportError"
print(json.dumps(report))
"""


def _probe() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(cosetlab.__file__).parents[1]))
    got = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(PUBLIC)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    return json.loads(got.stdout)


def test_public_namespace_in_a_fresh_process():
    report = _probe()
    public = set(PUBLIC).union(*(names.split() for names in PUBLIC.values()))
    assert report["loaded_by_import"] == []
    assert public <= set(report["star"])
    assert public <= set(report["dir"])
    assert report["not_the_same"] == []
    assert report["missing_name"] == "ImportError"


def test_invariance_loads_no_numpy_and_no_kesten_module():
    # the Reiter and invariance half of the package runs in plain Python
    env = dict(os.environ, PYTHONPATH=str(Path(cosetlab.__file__).parents[1]))
    probe = "import json, sys, cosetlab.invariance; print(json.dumps(sorted(sys.modules)))"
    got = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    loaded = set(json.loads(got.stdout))
    assert not any(m == "numpy" or m.startswith("numpy.") for m in loaded)
    assert {m for m in loaded if m.startswith("cosetlab.")} == {
        "cosetlab.errors", "cosetlab.freegroup", "cosetlab.invariance"}
