import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sptab.cli import main
from sptab.enumeration import enum_qs_sp, enum_ss_sp, shapes_up_to
from sptab.tableaux import tableau_to_json

RUN = [sys.executable, "-m", "sptab.cli"]


def run_cli(args, stdin=""):
    return subprocess.run(RUN + args, input=stdin, capture_output=True, text=True)


T_RANK3 = '{"n":3,"kind":"sp","columns":[[1,2,-2],[2,-2]]}'
T_EX4 = '{"n":4,"kind":"sp","columns":[[1,2,3,-3],[1,3,-3],[3,-3]]}'
Q_EX4 = '{"n":4,"kind":"sp","columns":[[1,-3,-2,-1]]}'
SKEW_ZERO = '{"n":4,"columns":[[-4,-3,-2,-1],[1,4,-3,-1],[3,4]],"inner":[2,0,0]}'


def test_check_quasistandard_example():
    r = run_cli(["check", "--n", "3", "--predicate", "qs-sp"], T_RANK3)
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"result": False, "violation": {"kind": "nqs-row", "row": 2}}
    r = run_cli(["check", "--n", "3", "--predicate", "ss-sp"], T_RANK3)
    assert json.loads(r.stdout) == {"result": True, "violation": None}


def test_check_reports_violation_location():
    r = run_cli(
        ["check", "--n", "2", "--predicate", "ss-sp"],
        '{"n":2,"kind":"sp","columns":[[2,-2]]}',
    )
    assert json.loads(r.stdout) == {"result": False, "violation": {"kind": "column", "col": 1}}


def test_check_admissible_bare_column():
    r = run_cli(["check", "--n", "4", "--predicate", "admissible"], "[1,2,-1]")
    assert json.loads(r.stdout)["result"] is True


def test_enum_count():
    r = run_cli(["enum", "--n", "2", "--shape", "2", "--predicate", "ss-sp", "--count"])
    assert json.loads(r.stdout) == {"count": 5}


def test_double_golden():
    r = run_cli(["double", "--n", "3"], T_RANK3)
    assert json.loads(r.stdout) == {
        "n": 3,
        "kind": "double",
        "columns": [[1, 2, -3], [1, 3, -2], [2, -3], [3, -2]],
    }
    r = run_cli(["double", "--n", "3", "--format", "ascii"], T_RANK3)
    assert r.stdout == "1  1  2  3\n2  3  3' 2'\n3' 2'\n"


def test_phi_psi_round_trip():
    r = run_cli(["phi", "--n", "4"], T_EX4)
    out = json.loads(r.stdout)
    assert out["shape"] == [4]
    assert out["result"]["columns"] == [[1, -3, -2, -1]]
    r = run_cli(
        ["psi", "--n", "4", "--target-shape", "4,3,2"],
        json.dumps(out["result"]),
    )
    assert json.loads(r.stdout)["result"] == json.loads(T_EX4)


def test_sjdt_trace_with_zero_letters():
    r = run_cli(["sjdt", "--n", "4", "--star", "2,1"], SKEW_ZERO)
    out = json.loads(r.stdout)
    assert out["path"] == [[2, 1], [2, 2], [2, 3]]
    assert out["trace"][1]["zero_present"] is True
    assert out["trace"][1]["columns"][0][0] == {"m": 0, "b": False}
    assert out["final"]["columns"][0][-1] == {"m": 0, "b": True}


def test_verify_subcommands_pass():
    r = run_cli(["verify", "dims", "--n", "3", "--max-k", "3"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "pass"
    r = run_cli(["verify", "plucker", "--n", "2", "--k", "2", "--dump-matrix"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["kernel"] == 5
    assert sorted(out["triplets"]) == [[0, 2, 1], [0, 3, 1]]
    r = run_cli(["verify", "bijection", "--n", "2", "--max-boxes", "2"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "pass"


def test_verify_dims_builds_no_column(monkeypatch, capsys):
    # the admissible counts come from the witness search alone: no column
    # record is built or cached
    from sptab import columns, enumeration

    builds = []
    init = columns.SymplecticColumn.__post_init__

    def counted(col):
        builds.append(col)
        init(col)

    monkeypatch.setattr(columns.SymplecticColumn, "__post_init__", counted)
    cached = enumeration.enum_admissible_columns.cache_info().currsize
    assert main(["verify", "dims", "--n", "6", "--max-k", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass"
    assert [r["admissible"] for r in out["results"]] == [comb(12, k) - comb(12, k - 2) for k in range(2, 7)]
    assert builds == []
    assert enumeration.enum_admissible_columns.cache_info().currsize == cached


def test_a_failed_report_exits_2_from_each_verify_subcommand(monkeypatch, capsys):
    # each oracle is put off in turn, so that its subcommand's report fails
    from sptab import enumeration, plucker

    verify_bijection, kernel_dimension, exact_rank = (
        enumeration.verify_bijection,
        plucker.kernel_dimension,
        plucker.exact_rank,
    )

    def failed(n, shape):
        return {**verify_bijection(n, shape), "status": "fail"}

    for argv, module, name, wrong in (
        ("bijection --n 2 --max-boxes 2", enumeration, "verify_bijection", failed),
        ("dims --n 3 --max-k 3", plucker, "kernel_dimension", lambda n, k: kernel_dimension(n, k) + 1),
        ("plucker --n 3 --k 2", plucker, "exact_rank", lambda rows: exact_rank(rows) - 1),
    ):
        with monkeypatch.context() as m:
            m.setattr(module, name, wrong)
            assert main(["verify", *argv.split()]) == 2, argv
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1, argv
        assert json.loads(out)["status"] == "fail", argv


def test_enum_admissible_count_matches_the_listing(capsys):
    for n, k in ((2, 1), (3, 2), (4, 3), (4, 4)):
        assert main(["enum", "--n", str(n), "--shape", str(k), "--predicate", "admissible"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert main(["enum", "--n", str(n), "--shape", str(k), "--predicate", "admissible", "--count"]) == 0
        assert capsys.readouterr().out == json.dumps({"count": len(listed)}, separators=(",", ":")) + "\n"


def test_enum_rejects_rank_below_one():
    for predicate in ("admissible", "ss-sp", "qs-sp", "ss-sl", "qs-sl"):
        for count in ([], ["--count"]):
            code, err = run_main(["enum", "--n", "0", "--shape", "1", "--predicate", predicate] + count, "")
            assert (code, err) == (1, "error: rank must be positive, got 0\n")


def test_rank_is_checked_before_the_letters():
    # both readers used to report "magnitude 1 exceeds rank 0"
    for argv, stdin in (
        (["check", "--n", "0", "--predicate", "admissible"], "[1]"),
        (["double", "--n", "0"], '{"n": 0, "kind": "sp", "columns": [[1]]}'),
    ):
        assert run_main(argv, stdin) == (1, "error: rank must be positive, got 0\n")


def test_verify_bijection_jobs_flag_matches_serial():
    a = run_cli(["verify", "bijection", "--n", "2", "--max-boxes", "3"])
    b = run_cli(["verify", "bijection", "--n", "2", "--max-boxes", "3", "--jobs", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_deterministic_output():
    for _ in range(2):
        a = run_cli(["enum", "--n", "2", "--shape", "2,1", "--predicate", "qs-sp"])
        b = run_cli(["enum", "--n", "2", "--shape", "2,1", "--predicate", "qs-sp"])
        assert a.stdout == b.stdout


def test_bad_input_exit_code():
    r = run_cli(["check", "--n", "3", "--predicate", "ss-sp"], "not json")
    assert r.returncode == 1
    assert "error" in r.stderr
    r = run_cli(["phi", "--n", "2"], '{"n":2,"kind":"sp","columns":[[2,-2]]}')
    assert r.returncode == 1


def test_rank_mismatch_is_an_input_error():
    r = run_cli(["check", "--n", "4", "--predicate", "ss-sp"], T_RANK3)
    assert r.returncode == 1
    assert "does not match" in r.stderr


# SHA-256 and length of the full stdout of the traced worked example and of
# the zero-letter slide, byte for byte
TRACE_GOLDENS = [
    (["phi", "--n", "4", "--trace"], T_EX4, "7df28b6d0dee03aa7e9975480965898a01f76406135f8c654f313c91b3d85067", 1774),
    (
        ["psi", "--n", "4", "--target-shape", "4,3,2", "--trace"],
        Q_EX4,
        "40a6af623035639974366a6e44f1bff33e40d4aba41c078d191f3a509023df80",
        2620,
    ),
    (["sjdt", "--n", "4", "--star", "2,1"], SKEW_ZERO, "cc2782cc2f49b023bd3fa1224824f06bd3b87f86b1534a0b0a37d01c8cb36739", 1276),
]


def test_trace_output_golden_bytes():
    for argv, stdin, digest, size in TRACE_GOLDENS:
        r = run_cli(argv, stdin)
        assert r.returncode == 0, r.stderr
        out = r.stdout.encode()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size), argv


def test_verify_bijection_output_golden_bytes():
    # SHA-256 and length of the full report of the rank-4 sweep up to 5 boxes
    r = run_cli(["verify", "bijection", "--n", "4", "--max-boxes", "5"])
    assert r.returncode == 0, r.stderr
    out = r.stdout.encode()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (
        "ed59957165658c5b38e84862704f3edfbb56a03392e61fad293ecf778dd5856f",
        2797,
    )


def assert_input_error(r):
    """Exit 1, nothing on stdout, a single error line and no traceback."""
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


def test_usage_errors_are_input_errors():
    # argparse alone would exit 2, the code of a failed verification report
    for argv in (["check", "--n", "3"], ["verify", "bijection", "--n", "x", "--max-boxes", "2"], ["frobnicate"]):
        assert_input_error(run_cli(argv))
    r = run_cli(["--help"])
    assert r.returncode == 0 and r.stdout.startswith("usage: sptab")


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["check", "--n", "3", "--predicate", "qs-sp", "--format", "json"], T_RANK3),
        (["sjdt", "--n", "4", "--star", "2,1", "--format", "json"], SKEW_ZERO),
        (["enum", "--n", "2", "--shape", "1", "--predicate", "ss-sp", "--file", "input.json"], ""),
    ],
    ids=["check-format", "sjdt-format", "enum-file"],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(argv, stdin):
    # check and sjdt always print JSON, and enum reads no input; each took
    # the option, ignored it and exited 0
    option = " ".join(argv[-2:])
    assert run_main(argv, stdin) == (1, f"error: sptab: unrecognized arguments: {option}\n")


def test_double_rejects_columns_not_a_list_of_lists():
    assert_input_error(run_cli(["double", "--n", "3"], '{"n": 3, "kind": "sp", "columns": 5}'))
    assert_input_error(run_cli(["double", "--n", "3"], '{"n": 3, "kind": "sp", "columns": [[1], 2]}'))


def test_sjdt_rejects_inner_not_matching_columns():
    skew = '{"n": 3, "columns": [[1, 2], [2], [3]], "inner": [0]}'
    assert_input_error(run_cli(["sjdt", "--n", "3", "--star", "1,2"], skew))
    skew = '{"n": 3, "columns": [[1, 2], [2]], "inner": [0, "x"]}'
    assert_input_error(run_cli(["sjdt", "--n", "3", "--star", "1,2"], skew))


def test_sjdt_rejects_letter_above_rank():
    assert_input_error(run_cli(["sjdt", "--n", "3", "--star", "1,1"], '{"n": 3, "columns": [[5]], "inner": [1]}'))


NULL = "column 1: unreadable letter value None"
ABOVE = "magnitude 5 exceeds rank 3"
RAGGED = "tableau JSON columns must be a list of lists"
EXTENDED = "column 1 contains the extended letter 0"


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        # sjdt used to drop the null and slide the column [2, 3]
        (["sjdt", "--n", "3", "--star", "1,1"], '{"n":3,"columns":[[2,null,3]],"inner":[1]}', NULL),
        (["double", "--n", "3"], '{"n":3,"kind":"sp","columns":[[2,null,3]]}', NULL),
        (["check", "--n", "3", "--predicate", "admissible"], "[2,null,3]", NULL),
        # sjdt used to name the letter by a set: "A contains 5, outside [0, 3]"
        (["sjdt", "--n", "3", "--star", "1,1"], '{"n":3,"columns":[[5]],"inner":[1]}', ABOVE),
        (["double", "--n", "3"], '{"n":3,"kind":"sp","columns":[[5]]}', ABOVE),
        (["check", "--n", "3", "--predicate", "admissible"], "[5]", ABOVE),
        # sjdt used to say "sjdt columns must be a list of lists"
        (["sjdt", "--n", "3", "--star", "1,1"], '{"n":3,"columns":[[1],2],"inner":[1,0]}', RAGGED),
        (["double", "--n", "3"], '{"n":3,"kind":"sp","columns":[[1],2]}', RAGGED),
        # used to say "column 1 has entries outside [1, 3]"
        (["check", "--n", "3", "--predicate", "ss-sl"], '{"n":3,"kind":"sl","columns":[[5]]}', ABOVE),
        # both used to say "column 1: codes must be strictly increasing within [1, 6]"
        (["double", "--n", "3"], '{"n":3,"kind":"sp","columns":[[1,"-0"]]}', EXTENDED),
        (["double", "--n", "3"], '{"n":3,"kind":"sp","columns":[[0]]}', EXTENDED),
    ],
    ids=[f"{command}-{fault}" for fault in ("null", "above") for command in ("sjdt", "double", "check")]
    + ["sjdt-ragged", "double-ragged", "check-plain-above", "double-zero-bar", "double-zero"],
)
def test_every_json_reader_gives_one_message_per_fault(argv, stdin, message):
    # a null is never a letter, a letter above the rank is named by its
    # magnitude in both alphabets, and an extended letter however it is written
    assert run_main(argv, stdin) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        # both used to say "height 4 outside [1, 3]" and "height 0 outside [1, 3]"
        (
            ["enum", "--n", "3", "--shape", "4", "--predicate", "admissible", "--count"],
            "",
            "height 4 exceeds the maximum 3",
        ),
        (
            ["enum", "--n", "3", "--shape", "0", "--predicate", "admissible"],
            "",
            "heights (0,) contain a non-positive entry",
        ),
        # used to say "rank must be positive, got --n 0"
        (["verify", "plucker", "--n", "0", "--k", "2"], "", "rank must be positive, got 0"),
        (["enum", "--n", "3", "--shape", "a", "--predicate", "ss-sp"], "", "unreadable shape 'a'"),
        (["sjdt", "--n", "3", "--star", "1,1"], '{"n":"3","columns":[[1]],"inner":[1]}', "unreadable rank '3'"),
        (
            ["sjdt", "--n", "3", "--star", "2,1"],
            '{"n":3,"columns":[[2]],"inner":[1]}',
            "star row 2 must be the bottom vacated cell (inner=1)",
        ),
        (["verify", "dims", "--n", "3", "--max-k", "1"], "", "--max-k and --n must be at least 2, got 1 and 3"),
        (["verify", "plucker", "--n", "3", "--k", "5"], "", "degree 5 outside [2, 3]"),
        (
            ["enum", "--n", "3", "--shape", "2,1", "--predicate", "admissible"],
            "",
            "admissible enumeration takes a single height",
        ),
    ],
    ids=[
        "admissible-tall", "admissible-zero", "verify-rank", "enum-shape", "sjdt-rank", "sjdt-star-row",
        "dims-max-k", "plucker-degree", "admissible-shape",
    ],
)
def test_refusals_name_their_fault(argv, stdin, message):
    assert run_main(argv, stdin) == (1, f"error: {message}\n")


def test_sjdt_rejects_a_column_without_a_double():
    # the slide of the first input never reads the double of [1,2,2']
    for n, skew, column in (
        (2, '{"n":2,"columns":[[1,2,-2]],"inner":[1]}', "[1,2,2']"),
        (3, '{"n":3,"columns":[[1,2,3,-3],[1]],"inner":[1,0]}', "[1,2,3,3']"),
    ):
        r = run_cli(["sjdt", "--n", str(n), "--star", "1,1"], skew)
        assert_input_error(r)
        assert r.stderr == f"error: column {column} is not admissible for rank {n}\n"


@pytest.mark.parametrize(
    "skew, message",
    [
        # used to be re-sorted to the column [2, 3] and slid
        ('{"n": 3, "columns": [[3, 2]], "inner": [1]}', "column 1: letters must strictly increase in alphabet order"),
        ('{"n": 3, "columns": [[1, 1]], "inner": [1]}', "column 1: letters must strictly increase in alphabet order"),
        # 0 sits below every letter, so it cannot follow 1
        ('{"n": 3, "columns": [[1, 0]], "inner": [1]}', "column 1: letters must strictly increase in alphabet order"),
        # row 2 reads 3 | 2, not semi-standard; it used to slide
        ('{"n": 3, "columns": [[3], [1, 2]], "inner": [1, 0]}', "the skew tableau is not semi-standard away from the star"),
    ],
    ids=["out-of-order", "repeated", "zero-out-of-place", "not-semistandard"],
)
def test_sjdt_refuses_input_the_slide_check_cannot_pass(skew, message):
    assert run_main(["sjdt", "--n", "3", "--star", "1,1"], skew) == (1, f"error: {message}\n")


def test_sjdt_slides_every_lowered_semistandard_tableau():
    # every semi-standard tableau at rank <= 3 with up to 3 boxes, its first
    # k columns lowered by one vacated cell and the star on column k, slides
    # to rest with every state checked: no input the check admits traps
    runs = 0
    for n in (1, 2, 3):
        for shape in shapes_up_to(n, 3):
            for t in enum_ss_sp(n, shape):
                cols = tableau_to_json(t)["columns"]
                for k in range(1, len(cols) + 1):
                    skew = json.dumps({"n": n, "columns": cols, "inner": [1] * k + [0] * (len(cols) - k)})
                    assert run_main(["sjdt", "--n", str(n), "--star", f"1,{k}"], skew) == (0, ""), skew
                    runs += 1
    assert runs == 513


def test_sjdt_rejects_a_star_past_the_last_column():
    # used to report that there was no star to slide
    skew = '{"n": 3, "columns": [[1, 2], [2]], "inner": [0, 0]}'
    got = run_main(["sjdt", "--n", "3", "--star", "1,3"], skew)
    assert got == (1, "error: star column 3 outside [1, 2]\n")


def test_sjdt_rejects_a_star_in_a_column_with_no_vacated_cell():
    # used to report a negative inner height, of a frame the input never gave
    skew = '{"n": 3, "columns": [[1, 2], [2]], "inner": [0, 0]}'
    got = run_main(["sjdt", "--n", "3", "--star", "0,1"], skew)
    assert got == (1, "error: star column 1 has no vacated cell (inner=0)\n")


def test_sjdt_rejects_a_star_left_of_a_vacated_cell():
    # used to report the inner heights (0, 1) of the frame with the star taken out
    skew = '{"n": 3, "columns": [[1, 2], [2]], "inner": [1, 1]}'
    got = run_main(["sjdt", "--n", "3", "--star", "1,1"], skew)
    assert got == (1, "error: star 1,1 is not at an inner corner: cell 1,2 is vacated\n")


def test_double_dash_option_value_is_an_input_error():
    # argparse hands "--shape=--" over as an empty list, not a string
    assert_input_error(run_cli(["enum", "--n", "3", "--shape=--", "--predicate", "ss-sp"]))
    assert_input_error(run_cli(["psi", "--n", "4", "--target-shape=--"], Q_EX4))
    assert_input_error(run_cli(["sjdt", "--n", "4", "--star=--"], SKEW_ZERO))


def test_verify_rejects_rank_below_one():
    # --n -1 used to report a pass over nothing, --n -2 a multiplicity error
    for n in ("0", "-1", "-2"):
        assert_input_error(run_cli(["verify", "dims", "--n", n, "--max-k", "3"]))
        assert_input_error(run_cli(["verify", "bijection", "--n", n, "--max-boxes", "1"]))


def test_verify_rejects_a_range_that_checks_nothing():
    # each of these used to exit 0 with a pass over an empty or trivial set
    for k in ("1", "-3"):
        assert_input_error(run_cli(["verify", "dims", "--n", "4", "--max-k", k]))
    assert_input_error(run_cli(["verify", "dims", "--n", "1", "--max-k", "5"]))
    assert_input_error(run_cli(["verify", "bijection", "--n", "2", "--max-boxes", "-1"]))
    for jobs in ("0", "-2"):
        assert_input_error(run_cli(["verify", "bijection", "--n", "2", "--max-boxes", "2", "--jobs", jobs]))


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size asked for and
    runs the tasks in this process, starting none."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args, chunksize=1):
        return [fn(*a) for a in args]


def test_verify_bijection_pool_has_no_idle_workers(monkeypatch, capsys):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    argv = ["verify", "bijection", "--n", "2", "--max-boxes", "2"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    for jobs in ("2", "64"):
        assert main(argv + ["--jobs", jobs]) == 0
        assert capsys.readouterr().out == serial
    # one pool per parallel run, none larger than the number of shapes
    assert RecordingPool.sizes == [2, len(shapes_up_to(2, 2))]


def test_rank_below_one_is_an_input_error():
    # a tableau with no columns used to be accepted at any rank
    empty = '{"n": -1, "kind": "sp", "columns": []}'
    for argv in (["double"], ["check", "--predicate", "ss-sp"], ["phi"], ["psi", "--target-shape", ""]):
        assert_input_error(run_cli(argv + ["--n", "-1"], empty))
    assert_input_error(run_cli(["enum", "--n", "-2", "--shape", "", "--predicate", "ss-sp", "--count"]))


def test_non_integer_json_values_are_input_errors():
    # a rank or a magnitude that is not a JSON integer, or a bar flag that is
    # not a JSON boolean, used to be coerced: 3.9 read as 3, true as 1, "no" as barred
    for n in ("3.9", "true", '"3"'):
        assert_input_error(run_cli(["double", "--n", "3"], f'{{"n": {n}, "kind": "sp", "columns": [[1, 2]]}}'))
    assert_input_error(run_cli(["sjdt", "--n", "3", "--star", "1,1"], '{"n": 3.9, "columns": [[2]], "inner": [1]}'))
    for letter in ('{"m": 1.7, "b": false}', '{"m": true, "b": false}', '{"m": 1, "b": "no"}', '{"m": 1, "b": 0}'):
        tableau = f'{{"n": 3, "kind": "sp", "columns": [[{letter}]]}}'
        assert_input_error(run_cli(["double", "--n", "3"], tableau))


def test_unreadable_file_is_an_input_error(tmp_path):
    # a missing path or a directory used to end in a traceback
    for path in (tmp_path / "missing.json", tmp_path):
        assert_input_error(run_cli(["double", "--n", "3", "--file", str(path)]))


def test_psi_rejects_non_quasistandard_input():
    r = run_cli(["psi", "--n", "3", "--target-shape", "3,1,1"], '{"n": 3, "kind": "sp", "columns": [[1, 2, 3], [1]]}')
    assert_input_error(r)


# ---------------------------------------------------------------------------
# fuzzing main in process: well-formed argument vectors, random input

LETTER = st.integers(-5, 5) | st.just("-0") | st.fixed_dictionaries({"m": st.integers(-1, 5), "b": st.booleans()})
JSONISH = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.text(max_size=3) | LETTER,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "kind", "columns", "inner", "m", "b"]), inner, max_size=4),
    max_leaves=12,
)
SPEC = st.text(alphabet="0123456789,- x", max_size=5)
PREDICATE = st.sampled_from(["ss-sp", "qs-sp", "ss-sl", "qs-sl", "admissible"])


@st.composite
def requests(draw):
    """A well-formed argument vector, random input and where it is read from:
    stdin (None), or, for a command that reads input, --file naming a
    missing path, a directory or a file holding the input.  The input is
    often a tableau or a skew tableau of the requested rank; real tableaux,
    target shapes and stars reach the slides."""
    command = draw(st.sampled_from(["double", "check", "phi", "psi", "sjdt", "enum"]))
    n = draw(st.integers(-1, 4))
    shapes = [",".join(map(str, s)) for s in shapes_up_to(max(n, 1), 4)]
    argv = [command, "--n", str(n)]
    if command in ("double", "enum", "phi", "psi"):
        argv += ["--format", draw(st.sampled_from(["json", "ascii"]))]
    if command in ("check", "enum"):
        argv += ["--predicate", draw(PREDICATE)]
    if command == "enum":
        argv += [f"--shape={draw(SPEC)}"] + draw(st.sampled_from([[], ["--count"]]))
    if command == "psi":
        argv.append(f"--target-shape={draw(SPEC | st.sampled_from(shapes))}")
    if command == "sjdt":
        argv.append(f"--star={draw(SPEC | st.just('1,1'))}")
    if command in ("phi", "psi") and draw(st.booleans()):
        argv.append("--trace")
    # columns of distinct letters in alphabet order, longest first, or anything
    rank = max(n, 1)
    ordered = st.lists(st.integers(-rank, rank).filter(bool), unique=True, max_size=4).map(
        lambda col: sorted(col, key=lambda v: v if v > 0 else 2 * rank + 1 + v)
    )
    columns = st.lists(ordered, max_size=3).map(lambda cols: sorted(cols, key=len, reverse=True))
    tableau = st.fixed_dictionaries(
        {
            "n": st.just(n) | st.integers(0, 4),
            "kind": st.sampled_from(["sp", "sp", "sl", "x"]),
            "columns": columns | st.lists(st.lists(LETTER, max_size=4), max_size=3),
        },
        optional={"inner": st.lists(st.integers(-1, 3), max_size=3)},
    )
    choices = [tableau.map(json.dumps), tableau.map(json.dumps), JSONISH.map(json.dumps), st.text(max_size=8)]
    if n >= 1:
        # a semi-standard (quasi-standard for psi) tableau; sjdt starts it
        # with the star over column 1
        shape = tuple(map(int, draw(st.sampled_from(shapes[1:])).split(",")))
        real = (enum_qs_sp if command == "psi" else enum_ss_sp)(n, shape)
        if real:
            t = tableau_to_json(draw(st.sampled_from(real)))
            if command == "sjdt":
                t["inner"] = [1] + [0] * (len(t["columns"]) - 1)
            choices += [st.just(json.dumps(t))] * 3
    stdin = draw(draw(st.sampled_from(choices)))
    sources = [None] if command == "enum" else [None, None, None, "missing", "directory", "file"]
    return argv, stdin, draw(st.sampled_from(sources))


def run_main_output(argv, stdin):
    """Exit code, stdout and stderr of main run in process on this stdin."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_main(argv, stdin):
    code, _, err = run_main_output(argv, stdin)
    return code, err


@settings(max_examples=400, deadline=None)
@given(request=requests())
def test_main_fuzz_exits_cleanly(request):
    argv, stdin, source = request
    with tempfile.TemporaryDirectory() as tmp:
        if source is not None:
            path = Path(tmp) / "input.json"
            if source == "file":
                path.write_text(stdin, encoding="utf-8")
            argv = argv + ["--file", tmp if source == "directory" else str(path)]
        code, err = run_main(argv, stdin)
    assert code in (0, 1), (argv, stdin, err)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, stdin, err)


# every value a JSON letter can hold, well-formed or not
ANY_LETTER = (
    st.integers(-4, 4)
    | st.just("-0")
    | st.fixed_dictionaries({"m": st.integers(-1, 4) | st.none(), "b": st.booleans() | st.none()})
    | st.none()
    | st.sampled_from([0.0, 1.5, -2.0])
    | st.sampled_from(["", "1", "x", "2'"])
)


@st.composite
def reader_requests(draw):
    """A command that reads a tableau, on a JSON object whose rank, kind,
    letters and (for sjdt) inner heights may each be malformed."""
    command = draw(st.sampled_from(["double", "check", "phi", "psi", "sjdt"]))
    rank = draw(st.sampled_from([-1, 0, 2, 3, "3", None]))
    argv = [command, "--n", str(rank) if type(rank) is int else "3"]
    if command == "check":
        argv += ["--predicate", draw(PREDICATE)]
    if command == "psi":
        argv += ["--target-shape", "3,2"]
    if command == "sjdt":
        argv += ["--star", draw(st.sampled_from(["1,1", "1,2", "2,1"]))]
    # distinct signed integers in alphabet order (0 among them), or anything
    top = rank if type(rank) is int and rank > 0 else 3
    ordered = st.lists(st.integers(-top, top), unique=True, max_size=3).map(
        lambda col: sorted(col, key=lambda v: v if v >= 0 else 2 * top + 1 + v)
    )
    columns = draw(st.lists(ordered | st.lists(ANY_LETTER, max_size=3), max_size=3))
    data = {"n": rank, "kind": draw(st.sampled_from(["sp", "sl", "x", None])), "columns": columns}
    if command == "sjdt":
        size = st.just(len(columns)) | st.integers(0, 3)
        data["inner"] = draw(size.flatmap(lambda k: st.lists(st.integers(-1, 2), min_size=k, max_size=k)))
    return argv, json.dumps(data)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(request=reader_requests())
def test_every_reader_refuses_any_letters_with_one_error_line(request):
    # exit 3 is for a trap of the slides alone, never for bad input
    argv, stdin = request
    code, out, err = run_main_output(argv, stdin)
    assert code in (0, 1), (argv, stdin, err)
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), (argv, stdin, out, err)
