"""Branched-cover extension toolkit: combinatorial cover extension across an
inclusion of bases, braid-group actions, numerical slice monodromy, and Levi
forms of Hartogs-type defining functions, driven by JSON scenarios.

Every export is listed once, in ``_EXPORTS`` under the module that defines
it, and resolves on first read (PEP 562): ``import coverext`` loads no
submodule, and only ``cpoly``, ``monodromy`` and ``hartogs`` load numpy, so
group work never does.  A submodule read as an attribute is imported too.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "braids": ("MinimalExtensionResult", "braid_presentation", "hom_search",
               "minimal_extension_degree", "standard_rep"),
    "cosets": ("CosetTable", "Presentation", "StabilizerData", "schreier_generators", "todd_coxeter"),
    "cpoly": ("BivarPoly", "CPoly", "discriminant", "root_bound", "roots", "sylvester_resultant"),
    "errors": ("CapExceeded", "CoverextError", "DegenerateCover", "NotSmooth", "NumericFailure",
               "SchemaError", "SurjectivityError"),
    "extension": ("ExtensionResult", "Inclusion", "abelianized_surjective", "two_sheet_unique",
                  "weak_extend"),
    "hartogs": ("LeviData", "levi_matrix", "levi_signature", "rho_alpha"),
    "monodromy": ("CoverSlice", "MonodromyResult", "auto_basepoint", "branch_points",
                  "full_monodromy", "separates_fiber", "track_path", "track_to",
                  "weierstrass_poly_of_function", "z_discriminant"),
    "perms": ("Perm", "format_cycles", "generate", "generated_order"),
    "reps": ("PermRep",),
    "scenarios": ("Report", "run_bundled", "run_file", "run_payload"),
    "words": ("Word", "format_word", "parse_word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
