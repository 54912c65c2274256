"""The package namespace is lazy and each CLI command loads only the layers
it runs.  Every import-set case starts a fresh interpreter."""

import importlib
import json
import subprocess
import sys

import pytest

import sptab
from sptab import taquin_sp

PUBLIC = {
    "columns": [
        "DoubledColumn", "SymplecticColumn", "dble", "dble_sets", "g_from", "is_admissible", "surgery_add_B",
        "surgery_add_D", "surgery_remove_A", "surgery_remove_C",
    ],
    "enumeration": [
        "enum_admissible_columns", "enum_qs_sl", "enum_qs_sp", "enum_ss_sl", "enum_ss_sp", "shapes_up_to",
        "verify_bijection", "weyl_dim_sp",
    ],
    "errors": [
        "ColumnError", "GBoundaryError", "InadmissibleColumnError", "LetterError", "ParseError", "ShapeError",
        "SptabError", "TableauError", "TaquinInvariantError",
    ],
    "letters": ["Letter", "code", "from_code", "sigma_letter_sl"],
    "plucker": [
        "contract", "contraction_matrix", "exact_rank", "kernel_dimension", "relation_rank",
    ],
    "tableaux": [
        "Tableau", "dble_tableau", "is_quasistandard_sl", "is_quasistandard_sp", "is_semistandard_sp", "parse",
        "render", "shape_contains", "skew_cells", "tableau_from_json", "tableau_to_json", "weight_leq",
        "weight_subshapes",
    ],
    "taquin_sl": [
        "SlSkewColumn", "SlSkewTableau", "expand_sl", "jdt_step", "jdt_to_rest", "reduce_sl", "sigma_sl",
        "slide_pass_sl",
    ],
    "taquin_sp": [
        "SpSkewColumn", "SpSkewTableau", "phi", "phi_passes", "psi", "sigma_sp", "sjdt_step", "sjdt_to_rest",
        "slide_pass_sp",
    ],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_namespace_names_each_public_object_of_its_submodule():
    assert len(NAMES) == 66 and sorted(sptab.__all__) == sorted(NAMES)
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"sptab.{module}")
        for name in names:
            assert getattr(sptab, name) is getattr(mod, name), name
    star: dict = {}
    exec("from sptab import *", star)
    assert set(star) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(sptab))
    with pytest.raises(AttributeError):
        sptab.no_such_name


def test_namespace_reads_the_submodule_on_every_access(monkeypatch):
    # a rebinding in the submodule (the benchmark's tracer installs one) is
    # what the package returns, and nothing of it is left once undone
    original = taquin_sp.phi
    monkeypatch.setattr(taquin_sp, "phi", lambda t, record=None: "wrapped")
    assert sptab.phi(None) == "wrapped"
    monkeypatch.undo()
    assert sptab.phi is original and "phi" not in vars(sptab)


def fresh(code, *args, stdin=""):
    r = subprocess.run([sys.executable, "-c", code, *args], input=stdin, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


# standard-library modules that take a cold start several milliseconds each
HEAVY = ("dataclasses", "inspect")
LOADED = (
    'sorted(m[6:] for m in sys.modules if m.startswith("sptab.")), "fractions" in sys.modules, '
    f"[m for m in {HEAVY!r} if m in sys.modules]"
)

# runs the CLI as `python -m sptab.cli` would, with its stdout set aside
PROBE = f"""
import contextlib, io, json, runpy, sys
sys.argv[0] = "sptab"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("sptab.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, {LOADED}]))
"""

T_RANK3 = '{"n":3,"kind":"sp","columns":[[1,2,-2],[2,-2]]}'
Q_EX4 = '{"n":4,"kind":"sp","columns":[[1,-3,-2,-1]]}'
SKEW_ZERO = '{"n":4,"columns":[[-4,-3,-2,-1],[1,4,-3,-1],[3,4]],"inner":[2,0,0]}'
TAQUIN = {"taquin_sl", "taquin_sp"}

# argv, stdin, a layer the command must load, the layers it must not
COMMANDS = [
    (["double", "--n", "3"], T_RANK3, "tableaux", TAQUIN | {"enumeration", "plucker"}),
    (["check", "--n", "3", "--predicate", "qs-sp"], T_RANK3, "tableaux", TAQUIN | {"enumeration", "plucker"}),
    (["check", "--n", "4", "--predicate", "admissible"], "[1,2,-1]", "columns", TAQUIN | {"enumeration", "plucker"}),
    (["phi", "--n", "3", "--trace"], T_RANK3, "taquin_sp", {"enumeration", "plucker"}),
    (["psi", "--n", "4", "--target-shape", "4,3,2"], Q_EX4, "taquin_sp", {"enumeration", "plucker"}),
    (["sjdt", "--n", "4", "--star", "2,1"], SKEW_ZERO, "taquin_sp", {"enumeration", "plucker"}),
    (["enum", "--n", "2", "--shape", "2,1", "--predicate", "qs-sp"], "", "enumeration", TAQUIN | {"plucker"}),
    (["verify", "dims", "--n", "3", "--max-k", "3"], "", "plucker", TAQUIN),
]


@pytest.fixture(scope="module")
def preloaded():
    """Those of HEAVY that a bare interpreter (`python -c pass`, with site) holds."""
    code = f"import sys; print(*(m for m in {HEAVY!r} if m in sys.modules))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(r.stdout.split())


def test_import_sptab_loads_no_layer(preloaded):
    modules, fractions, heavy = fresh(f"import json, sys, sptab; print(json.dumps([{LOADED}]))")
    assert modules == [] and not fractions and set(heavy) <= preloaded
    # a submodule attribute still resolves, and imports only what it needs
    modules, _, _ = fresh(f"import json, sys, sptab; sptab.taquin_sp.phi; print(json.dumps([{LOADED}]))")
    assert "taquin_sp" in modules and "enumeration" not in modules


@pytest.mark.parametrize(
    "argv, stdin, needed, unused",
    COMMANDS,
    ids=["double", "check", "check-admissible", "phi", "psi", "sjdt", "enum", "verify-dims"],
)
def test_each_command_loads_only_its_layers(argv, stdin, needed, unused, preloaded):
    code, modules, fractions, heavy = fresh(PROBE, *argv, stdin=stdin)
    assert code == 0
    assert needed in modules and not unused & set(modules), modules
    assert not fractions
    # the value classes are records of their own: no command loads dataclasses or inspect
    assert set(heavy) <= preloaded, heavy
