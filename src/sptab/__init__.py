"""Symplectic Young tableaux: admissible columns, doubling, jeux de taquin,
the quasi-standard reduction and its inverse, with exact counting oracles.

Importing the package loads no layer.  Each public name is looked up in the
submodule that defines it on every access (PEP 562), so that submodule is
imported on first use and a rebinding there is always what `sptab.<name>`
returns.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "columns": (
        "DoubledColumn SymplecticColumn dble dble_sets g_from is_admissible "
        "surgery_add_B surgery_add_D surgery_remove_A surgery_remove_C"
    ),
    "enumeration": (
        "enum_admissible_columns enum_qs_sl enum_qs_sp enum_ss_sl enum_ss_sp shapes_up_to "
        "verify_bijection weyl_dim_sp"
    ),
    "errors": (
        "ColumnError GBoundaryError InadmissibleColumnError LetterError ParseError ShapeError "
        "SptabError TableauError TaquinInvariantError"
    ),
    "letters": "Letter code from_code sigma_letter_sl",
    "plucker": "contract contraction_matrix exact_rank kernel_dimension relation_rank",
    "tableaux": (
        "Tableau dble_tableau is_quasistandard_sl is_quasistandard_sp is_semistandard_sp parse "
        "render shape_contains skew_cells tableau_from_json tableau_to_json weight_leq weight_subshapes"
    ),
    "taquin_sl": (
        "SlSkewColumn SlSkewTableau expand_sl jdt_step jdt_to_rest reduce_sl sigma_sl slide_pass_sl"
    ),
    "taquin_sp": (
        "SpSkewColumn SpSkewTableau phi phi_passes psi sigma_sp sjdt_step sjdt_to_rest slide_pass_sp"
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        # read a loaded module from sys.modules: import_module is several
        # times slower even then, and callers may look a name up per call
        module = f"{__name__}.{_HOME[name]}"
        return getattr(sys.modules.get(module) or import_module(module), name)
    if name in _PUBLIC or name == "cli":
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
