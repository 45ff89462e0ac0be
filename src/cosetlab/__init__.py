"""Verification laboratory for amenability of homogeneous spaces.

Exact arithmetic in the free group on integer-indexed generators and the
semidirect product with the index shift; canonical coset forms and orbit
balls; exact invariance and Reiter almost-invariance certificates, in plain
Python; Kesten-style spectral lower bounds on orbit balls; and exact
character reciprocity on finite groups, including special-linear
congruence quotients.

The public names resolve on first access, so importing the package loads
none of its submodules, and a run loads only those it uses.
"""

__version__ = "1.0.0"

# Each submodule and the public names it defines.
_EXPORTS = {
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
__all__ = [*_EXPORTS, *" ".join(_EXPORTS.values()).split()]


def __getattr__(name: str):
    """A submodule, or a public name imported from its submodule on first
    access (PEP 562) and bound here, where later lookups find it."""
    home = [module for module, names in _EXPORTS.items() if name in (module, *names.split())]
    if not home:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is timed by -X importtime;
    # it binds the submodule here
    __import__(f"{__name__}.{home[0]}")
    if name != home[0]:
        globals()[name] = getattr(globals()[home[0]], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
