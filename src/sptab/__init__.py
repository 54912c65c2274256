"""Symplectic Young tableaux: admissible columns, doubling, jeux de taquin,
the quasi-standard reduction and its inverse, with exact counting oracles."""

from .columns import (
    ColumnWindow,
    DoubledColumn,
    SymplecticColumn,
    dble,
    dble_sets,
    g_from,
    is_admissible,
    split_column,
    surgery_add_B,
    surgery_add_D,
    surgery_remove_A,
    surgery_remove_C,
)
from .enumeration import (
    enum_admissible_columns,
    enum_qs_sl,
    enum_qs_sp,
    enum_ss_sl,
    enum_ss_sp,
    shapes_up_to,
    verify_bijection,
    weyl_dim_sp,
)
from .errors import (
    ColumnError,
    GBoundaryError,
    InadmissibleColumnError,
    LetterError,
    ParseError,
    ShapeError,
    SptabError,
    TableauError,
    TaquinInvariantError,
)
from .letters import Letter, code, from_code, sigma_letter_sl
from .plucker import (
    contract,
    contraction_matrix,
    exact_rank,
    internal_relations,
    kernel_dimension,
    relation_rank,
    wedge_basis,
)
from .tableaux import (
    Tableau,
    dble_tableau,
    is_quasistandard_sl,
    is_quasistandard_sp,
    is_semistandard_sl,
    is_semistandard_sp,
    parse,
    pushable_rows,
    render,
    shape_contains,
    skew_cells,
    subshapes,
    tableau_from_json,
    tableau_to_json,
    weight_leq,
    weight_subshapes,
)
from .taquin_sl import (
    SlSkewColumn,
    SlSkewTableau,
    expand_sl,
    jdt_inverse,
    jdt_step,
    jdt_to_rest,
    reduce_sl,
    sigma_sl,
    slide_pass_sl,
)
from .taquin_sp import (
    SpSkewColumn,
    SpSkewTableau,
    phi,
    phi_passes,
    psi,
    sigma_sp,
    sjdt_step,
    sjdt_to_rest,
    slide_pass_sp,
)

__version__ = "0.1.0"
