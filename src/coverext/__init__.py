"""Branched-cover extension toolkit: combinatorial cover extension across an
inclusion of bases, braid-group actions, numerical slice monodromy, and Levi
forms of Hartogs-type defining functions, driven by JSON scenarios."""

from .braids import (
    MinimalExtensionResult,
    braid_presentation,
    hom_search,
    minimal_extension_degree,
    standard_rep,
)
from .cosets import CosetTable, Presentation, StabilizerData, schreier_generators, todd_coxeter
from .cpoly import BivarPoly, CPoly, discriminant, root_bound, roots, sylvester_resultant
from .errors import (
    CapExceeded,
    CoverextError,
    DegenerateCover,
    NotSmooth,
    NumericFailure,
    SchemaError,
    SurjectivityError,
)
from .extension import (
    ExtensionResult,
    Inclusion,
    abelianized_surjective,
    two_sheet_unique,
    weak_extend,
)
from .hartogs import LeviData, levi_matrix, levi_signature, rho_alpha
from .monodromy import (
    CoverSlice,
    MonodromyResult,
    auto_basepoint,
    branch_points,
    full_monodromy,
    separates_fiber,
    track_path,
    track_to,
    weierstrass_poly_of_function,
    z_discriminant,
)
from .perms import Perm, format_cycles, generate, generated_order
from .reps import PermRep
from .scenarios import Report, run_bundled, run_file, run_payload
from .words import Word, format_word, parse_word

__all__ = [
    "BivarPoly",
    "CPoly",
    "CapExceeded",
    "CosetTable",
    "CoverSlice",
    "CoverextError",
    "DegenerateCover",
    "ExtensionResult",
    "Inclusion",
    "LeviData",
    "MinimalExtensionResult",
    "MonodromyResult",
    "NotSmooth",
    "NumericFailure",
    "Perm",
    "PermRep",
    "Presentation",
    "Report",
    "SchemaError",
    "StabilizerData",
    "SurjectivityError",
    "Word",
    "abelianized_surjective",
    "auto_basepoint",
    "braid_presentation",
    "branch_points",
    "discriminant",
    "format_cycles",
    "format_word",
    "full_monodromy",
    "generate",
    "generated_order",
    "hom_search",
    "levi_matrix",
    "levi_signature",
    "minimal_extension_degree",
    "parse_word",
    "rho_alpha",
    "root_bound",
    "roots",
    "run_bundled",
    "run_file",
    "run_payload",
    "schreier_generators",
    "separates_fiber",
    "standard_rep",
    "sylvester_resultant",
    "todd_coxeter",
    "track_path",
    "track_to",
    "two_sheet_unique",
    "weak_extend",
    "weierstrass_poly_of_function",
    "z_discriminant",
]
