"""End-to-end command-line behaviour: output shapes and exit codes."""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path
from unittest.mock import ANY

import pytest

import stanlab.cli as cli
from stanlab import enumeration, objects, verification
from stanlab.errors import (
    CapExceeded,
    InvariantViolation,
    MismatchBetweenForms,
    OutOfRange,
)
from test_acceptance import suite as acceptance_suite

WORKED_ROWS = [[0, 6], [3, 6], [4, 7], [10, 3], [11, 5]]
WORKED_WORD = "UUUUUDDDUUUDUUDDDDDDUUDUUUDDDD"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


class TestEnumerate:
    def test_stream_shape_and_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "stanley",
                           "--measure", "columns", "--value", "4")
        assert code == 0
        rows = lines(out)
        assert len(rows) == 5
        assert all(set(r) == {"object", "stats"} for r in rows)
        assert all(r["stats"]["col"] == 4 for r in rows)

    def test_group_by_emits_bare_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "stanley",
                           "--measure", "area", "--value", "6",
                           "--group-by", "row")
        assert code == 0
        assert out == '{"1":1,"2":4,"3":1}\n'

    @pytest.mark.parametrize("family, measure, value, name, message", [
        ("stanley", "semiperimeter", "1", "nonsense", "not defined"),
        ("parallelogram", "area", "0", "overlaps", "not an integer mark"),
    ])
    def test_group_by_bad_statistic_on_empty_bound(self, capsys, family,
                                                   measure, value, name,
                                                   message):
        code, out, err = run(capsys, "enumerate", "--family", family,
                             "--measure", measure, "--value", value,
                             "--group-by", name)
        assert code == 2
        assert out == ""
        assert message in err

    def test_empty_dyck_path(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "0")
        assert code == 0
        rows = lines(out)
        assert len(rows) == 1
        assert rows[0]["object"]["word"] == ""

    def test_limit_truncates_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "5",
                           "--limit", "3")
        assert code == 0
        assert len(lines(out)) == 3

    def test_zero_limit_emits_nothing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "5",
                           "--limit", "0")
        assert (code, out) == (0, "")

    def test_zero_limit_walks_nothing(self, capsys):
        # the stream is lazy, so the walk of a bound far past the cap, which
        # would first list its 2,000,001 heights, never starts
        tracemalloc.start()
        try:
            result = run(capsys, "enumerate", "--family", "dyck", "--measure",
                         "semilength", "--value", "1000000", "--limit", "0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        assert peak < 2**20, peak

    def test_limit_draws_no_object_past_it(self, capsys, monkeypatch):
        # 14 Dyck words of semilength 4: a cap of 5 refuses the sixth, which
        # a limit of 5 must not draw
        monkeypatch.setattr(enumeration, "DEFAULT_CAP", 5)
        code, out, err = run(capsys, "enumerate", "--family", "dyck",
                             "--measure", "semilength", "--value", "4",
                             "--limit", "5")
        assert (code, err) == (0, "")
        assert [r["object"]["word"] for r in lines(out)] == [
            "UDUDUDUD", "UDUDUUDD", "UDUUDDUD", "UDUUDUDD", "UDUUUDDD"]

    @pytest.mark.parametrize("limit", [0, 1, 3])
    def test_limit_draws_exactly_limit_objects(self, capsys, monkeypatch,
                                               limit):
        real = cli.enumerate_family
        drawn = []

        def counted(bound):
            for x in real(bound):
                drawn.append(x)
                yield x

        monkeypatch.setattr(cli, "enumerate_family", counted)
        code, out, _ = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "5",
                           "--limit", str(limit))
        assert code == 0
        assert len(lines(out)) == len(drawn) == limit

    def test_negative_limit_exit_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--family", "dyck",
                             "--measure", "semilength", "--value", "5",
                             "--limit", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_limit_with_group_by_exit_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--family", "dyck",
                             "--measure", "semilength", "--value", "2",
                             "--group-by", "nbp", "--limit", "0")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "--limit" in err

    def test_unsupported_pair_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "--family", "stanley",
                           "--measure", "rows", "--value", "4")
        assert code == 2
        assert err

    def test_cap_exit_three(self, capsys, monkeypatch):
        def blow_up(bound, **kwargs):
            raise CapExceeded("too many objects")

        monkeypatch.setattr(cli, "enumerate_family", blow_up)
        code, _, err = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "3")
        assert code == 3
        assert "too many" in err

    @pytest.mark.parametrize("option, value", [("--jobs", "2"),
                                               ("--cache-dir", "cache")])
    def test_removed_options_exit_two(self, capsys, option, value):
        code, out, _ = run(capsys, "enumerate", "--family", "stanley",
                           "--measure", "columns", "--value", "3",
                           option, value)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("family, measure, value, first", [
        ("dyck", "semilength", "600", "UD" * 600),
        ("peaklessMotzkin", "steps", "1500", "F" * 1500),
        ("stanley", "columns", "3000", [[i, 2] for i in range(2999)]),
        ("stanley", "area", "3000", [[i, 2] for i in range(1500)]),
        ("stanley", "semiperimeter", "3000",
         [[i, 2] for i in range(1498)] + [[1498, 3]]),
        ("parallelogram", "area", "3000", [[0, 1]] * 3000),
        ("fountain", "diagonals", "3000", [1] * 3000),
    ])
    def test_path_walks_pass_the_recursion_limit(self, capsys, family,
                                                  measure, value, first):
        # every walk runs on an explicit stack, not one frame per step
        code, out, _ = run(capsys, "enumerate", "--family", family,
                           "--measure", measure, "--value", value,
                           "--limit", "1")
        assert code == 0
        rows = lines(out)
        assert len(rows) == 1
        # the object's one field: word, rows, columns or diagonals
        assert list(rows[0]["object"].values()) == [first]

    def test_internal_error_exit_six(self, capsys, monkeypatch):
        # an unexpected fault in a walk; no valid bound raises one, so fake it
        def overflow(bound):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "enumerate_family", overflow)
        code, out, err = run(capsys, "enumerate", "--family", "stanley",
                             "--measure", "columns", "--value", "3000",
                             "--limit", "1")
        assert code == 6
        assert out == ""
        assert "RecursionError" in err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "dyck", "--measure", "semilength", "--value", "2"],
    ["series", "--gf", "columns", "--order", "2"],
    ["verify", "--suite", "table1", "--max-size", "2"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_zero(capsys, monkeypatch, argv):
    # a reader that stops early, like `| head`, is no error
    monkeypatch.setattr(cli.sys, "stdout", _ClosedPipe())
    code = cli.main(argv)
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "dyck", "--measure", "semilength", "--value", "1"],
    ["map", "--bijection", "phi"],
    ["series", "--gf", "columns", "--order", "2"],
    ["verify", "--suite", "table1", "--max-size", "2"],
], ids=lambda argv: argv[0])
def test_timestamps_option_is_gone(capsys, argv):
    # output carries no wall-clock line: each run's bytes are reproducible
    code, out, err = run(capsys, *argv, "--timestamps")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --timestamps" in err


class TestMap:
    def feed(self, monkeypatch, text: str) -> None:
        monkeypatch.setattr(cli.sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8"))

    def test_phi_on_worked_example(self, capsys, monkeypatch):
        self.feed(monkeypatch, json.dumps({"rows": WORKED_ROWS}) + "\n")
        code, out, _ = run(capsys, "map", "--bijection", "phi")
        assert code == 0
        rec = lines(out)[0]
        assert set(rec) == {"in", "out", "stats_in", "stats_out"}
        assert rec["out"]["word"] == WORKED_WORD
        assert rec["stats_in"]["sper"] == 21
        assert rec["stats_out"]["semilength"] == 15

    def test_phi_inv_on_empty_path(self, capsys, monkeypatch):
        self.feed(monkeypatch, '{"word": ""}\n')
        code, out, _ = run(capsys, "map", "--bijection", "phi-inv")
        assert code == 0
        assert lines(out)[0]["out"]["rows"] == [[0, 1]]

    def test_input_file_flag(self, capsys, tmp_path):
        src = tmp_path / "paths.jsonl"
        src.write_text('{"word": "UD"}\n{"word": "UUDD"}\n')
        code, out, _ = run(capsys, "map", "--bijection", "phi-inv",
                           "--in", str(src))
        assert code == 0
        assert len(lines(out)) == 2

    def test_invalid_line_exit_four(self, capsys, monkeypatch):
        self.feed(monkeypatch, '{"word": "UD"}\nnot json\n')
        code, out, err = run(capsys, "map", "--bijection", "phi-inv")
        assert code == 4
        assert "line 2" in err
        assert len(lines(out)) == 1

    def test_domain_error_exit_four(self, capsys, monkeypatch):
        # chi-prime refuses a path with a triple rise
        self.feed(monkeypatch, '{"word": "UUUDDD"}\n')
        code, _, err = run(capsys, "map", "--bijection", "chi-prime")
        assert code == 4
        assert "line 1" in err

    def test_path_with_a_peak_exit_four(self, capsys, monkeypatch):
        # chi refuses a Motzkin path with a UD factor
        self.feed(monkeypatch, '{"word": "UDF"}\n')
        code, out, err = run(capsys, "map", "--bijection", "chi")
        assert code == 4
        assert out == ""
        assert "line 1: invalid input (chi expects a Motzkin path with no " \
            "UD factor)" in err

    def test_h_inv_on_empty_path_exit_four(self, capsys, monkeypatch):
        # the empty path is the one-cell polyomino, which is no shear of
        # a parallelogram polyomino
        self.feed(monkeypatch, '{"word": ""}\n')
        code, out, err = run(capsys, "map", "--bijection", "h-inv")
        assert (code, out) == (4, "")
        assert "line 1: invalid input (h_inv needs a nonempty Dyck path)" \
            in err

    @pytest.mark.parametrize("bijection, line", [
        ("phi-inv", '{"word": 5}'),
        ("chi", '{"word": ["U", "D"]}'),
        ("f", '{"diagonals": [1.5, 1]}'),
        ("f", '{"diagonals": ["2", 1]}'),
        ("phi", '{"rows": [[0, 2], [true, 2]]}'),
        ("h", '{"columns": [[0, 2.0]]}'),
    ])
    def test_wrongly_typed_field_exit_four(self, capsys, monkeypatch,
                                           bijection, line):
        self.feed(monkeypatch, line + "\n")
        code, out, err = run(capsys, "map", "--bijection", bijection)
        assert code == 4
        assert out == ""
        assert "line 1: invalid input" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("bijection, line", [
        ("phi", '{"rows": [[0, 1, 2]]}'),
        ("phi", '{"rows": [5]}'),
        ("phi", '{"rows": null}'),
        ("h", '{"columns": [[0, 1, 2]]}'),
        ("f", '{"diagonals": 5}'),
        ("phi-inv", '[1]'),
        ("phi-inv", '{}'),
    ])
    def test_wrongly_shaped_line_exit_four(self, capsys, monkeypatch,
                                           bijection, line):
        self.feed(monkeypatch, line + "\n")
        code, out, err = run(capsys, "map", "--bijection", bijection)
        assert (code, out) == (4, "")
        assert "line 1: invalid input" in err

    def test_type_error_in_a_map_is_internal(self, capsys, monkeypatch):
        # a TypeError is a bug in the code, not bad input
        def broken(d):
            raise TypeError("broken map")

        monkeypatch.setitem(cli.BIJECTIONS, "phi-inv", ("dyck", broken))
        self.feed(monkeypatch, '{"word": "UD"}\n')
        code, out, err = run(capsys, "map", "--bijection", "phi-inv",
                             "--skip-invalid")
        assert (code, out) == (6, "")
        assert err.startswith("internal error: TypeError")

    @pytest.mark.parametrize("skip", [False, True])
    def test_invariant_failure_in_a_map_exits_five(self, capsys, monkeypatch,
                                                  skip):
        # a failed invariant is a fault in the code, not bad input, so it
        # is never skipped
        def broken(p):
            raise InvariantViolation("rows do not read as a fountain")

        monkeypatch.setitem(cli.BIJECTIONS, "f-inv", ("stanley", broken))
        self.feed(monkeypatch, '{"rows": [[0, 2]]}\n{"rows": [[0, 3]]}\n')
        code, out, err = run(capsys, "map", "--bijection", "f-inv",
                             *(["--skip-invalid"] if skip else []))
        assert (code, out) == (5, "")
        assert err == ("theorem check failed: InvariantViolation: rows do "
                       "not read as a fountain\n")

    @pytest.mark.parametrize("skip", [False, True])
    def test_invalid_object_built_in_a_map_exits_five(self, capsys,
                                                      monkeypatch, skip):
        # a map that builds an invalid object is at fault, not its input:
        # only the maps' domain refusals are reported as invalid input
        def broken(d):
            return objects.make_stanley([(1, 2)])

        monkeypatch.setitem(cli.BIJECTIONS, "phi-inv", ("dyck", broken))
        self.feed(monkeypatch, '{"word": "UD"}\n{"word": "UUDD"}\n')
        code, out, err = run(capsys, "map", "--bijection", "phi-inv",
                             *(["--skip-invalid"] if skip else []))
        assert (code, out) == (5, "")
        assert err == ("theorem check failed: NotLeftShifted: first row must "
                       "start at column 0, got 1\n")

    def test_skip_invalid_keeps_going(self, capsys, monkeypatch):
        self.feed(monkeypatch,
                  '{"word": "UD"}\nbroken\n{"word": "UUDD"}\n')
        code, out, err = run(capsys, "map", "--bijection", "phi-inv",
                             "--skip-invalid")
        assert code == 0
        assert len(lines(out)) == 2
        assert "line 2" in err

    @pytest.mark.parametrize("name", ["missing.jsonl", "."],
                             ids=["missing", "directory"])
    def test_unreadable_input_file_exit_two(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "map", "--bijection", "phi-inv",
                             "--in", str(tmp_path / name))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {tmp_path / name}: ")

    @pytest.mark.parametrize("blank", ["\n", "   \n", "\t\r\n"],
                             ids=["empty", "spaces", "tab-cr"])
    def test_blank_lines_are_skipped(self, capsys, monkeypatch, blank):
        self.feed(monkeypatch, blank + '{"word": "UD"}\n' + blank + "x\n")
        code, out, err = run(capsys, "map", "--bijection", "phi-inv")
        # blank lines are read past but still counted
        assert code == 4
        assert [r["in"] for r in lines(out)] == [{"word": "UD"}]
        assert err.startswith("line 4: invalid input")

    UNDECODABLE = b'{"word": "UD"}\n\xff\xfe\n{"word": "UUDD"}\n'
    OVER_DEEP = ('{"word": "UD"}\n' + "[" * 100_000 + '\n{"word": "UUDD"}\n'
                 ).encode()

    @pytest.mark.parametrize("data", [UNDECODABLE, OVER_DEEP],
                             ids=["undecodable", "over-deep"])
    @pytest.mark.parametrize("source", ["stdin", "file"])
    @pytest.mark.parametrize("skip", [False, True])
    def test_unreadable_line_is_one_invalid_line(self, capsys, monkeypatch,
                                                 tmp_path, data, source, skip):
        argv = ["map", "--bijection", "phi-inv"]
        if source == "file":
            path = tmp_path / "in.jsonl"
            path.write_bytes(data)
            argv += ["--in", str(path)]
        else:
            monkeypatch.setattr(cli.sys, "stdin",
                                io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        code, out, err = run(capsys, *argv, *(["--skip-invalid"] if skip else []))
        assert "internal error" not in err
        assert "line 2" in err
        assert code == (0 if skip else 4)
        assert len(lines(out)) == (2 if skip else 1)


class TestSeries:
    def test_columns_order_one(self, capsys):
        code, out, _ = run(capsys, "series", "--gf", "columns", "--order", "1")
        assert code == 0
        rec = lines(out)[0]
        assert rec["series"]["terms"] == [{"e": [1, 1], "c": 1}]

    def test_area_matches_frozen_values(self, capsys):
        code, out, _ = run(capsys, "series", "--gf", "area", "--order", "11")
        assert code == 0
        rec = lines(out)[0]
        coeffs = [t["c"] for t in rec["series"]["terms"]]
        assert coeffs == [1, 1, 1, 2, 3, 6, 10, 19, 34, 63, 115]

    def test_verify_flag_reports_oracle(self, capsys):
        code, out, _ = run(capsys, "series", "--gf", "columns",
                           "--order", "5", "--verify")
        assert code == 0
        assert lines(out)[0]["verified_against_oracle"] is True

    def test_corollaries_verify_reports_false(self, capsys):
        # one closed form disagrees with enumeration; the flag and the exit
        # code say so, and the series is printed all the same
        code, out, _ = run(capsys, "series", "--gf", "corollaries",
                           "--order", "6", "--verify")
        assert code == 1
        assert lines(out)[0]["verified_against_oracle"] is False

    def test_order_zero_exit_two(self, capsys):
        code, _, _ = run(capsys, "series", "--gf", "columns", "--order", "0")
        assert code == 2

    def test_series_assertion_exit_five(self, capsys, monkeypatch):
        def disagree(order):
            raise MismatchBetweenForms("area: the two forms disagree")

        monkeypatch.setattr(cli.catalog, "gf_area", disagree)
        code, out, err = run(capsys, "series", "--gf", "area", "--order", "6")
        assert (code, out) == (5, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("theorem check failed: MismatchBetweenForms")

    # the continued-fraction depth is set by the order: no series reads one
    @pytest.mark.parametrize("gf", cli.SERIES)
    def test_depth_on_other_series_exit_two(self, capsys, gf):
        code, out, err = run(capsys, "series", "--gf", gf,
                             "--order", "2", "--depth", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --depth" in err

    def test_order_caps_admit_benchmark_orders(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for size in workloads.SIZES.values():
            for gf, order in size["series"].items():
                assert order <= cli.SERIES[gf].cap, (gf, order)

    @pytest.mark.parametrize("gf", cli.SERIES)
    def test_order_over_cap_exit_three(self, capsys, monkeypatch, gf):
        def no_series(*args):
            raise AssertionError("the cap must refuse before any series is built")

        entry = cli.SERIES[gf]
        monkeypatch.setitem(cli.SERIES, gf, entry._replace(build=no_series))
        over = str(entry.cap + 1)
        code, out, err = run(capsys, "series", "--gf", gf, "--order", over)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "cap" in err


# sha256 of the stdout of `series --gf G --order 6`, frozen from the output
# of the Fraction-coefficient engine: how a coefficient is stored must not
# change a byte of what is printed
SERIES_ORDER_6_SHA256 = {
    "full": "2e802a69e43c1876b5c51ea9fb0b1556f328689de76bae7aa392050eac8606b8",
    "columns":
        "46dbf0566d4c5dbff742431e4f3e128ec0386f1515aee598f3bee8053bb0f20a",
    "semiperimeter":
        "37ecd5dc2a39bb2303c9c8e979761317a75e3a3ee14545798d639c8398036163",
    "area": "94248c7377ab7db315e80e79d0dc0399c68e38c9b0c22fe77d65929e33f36edc",
    "cf-a": "fe868b5262ec8893d59aa2f6bcacfc99d6e7e1f36592a2c8394cdd255ac6dce4",
    "cf-specializations":
        "5ca7466cb4cea06268ebc211f8fbf1bef081a28e16d97257d0d6cf778a72f7ea",
    "corollaries":
        "cd95cbd3611fbf96b2fd16e9023f5a0cce6ccb00d8682e1353b15f7647f91414",
}


def test_series_digests_cover_every_choice():
    assert set(SERIES_ORDER_6_SHA256) == set(cli.SERIES)


@pytest.mark.parametrize("gf", cli.SERIES)
def test_series_stdout_bytes_pinned(capsys, gf):
    code, out, _ = run(capsys, "series", "--gf", gf, "--order", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_ORDER_6_SHA256[gf]


# exit code and sha256 of the stdout of `series --gf G --order N` at the
# first-row kernel's edges: its smallest orders (corollaries needs 2, for the
# semiperimeter record) and order 40, frozen before columns and
# semiperimeter were built from one kernel
SERIES_KERNEL_EDGES = {
    ("semiperimeter", "2"): (0, "714a5d3c097403de2dae3e4b57d45ce5"
                                "c28a3bd85e8a064adc164e6c841aea31"),
    ("corollaries", "1"): (2, "e3b0c44298fc1c149afbf4c8996fb924"
                              "27ae41e4649b934ca495991b7852b855"),
    ("corollaries", "2"): (0, "5bccbf46a500aecef97285ab36c8c2a2"
                              "18792cb9d339d59e62b3d22431a1c16f"),
    ("columns", "40"): (0, "8e19f0de48566331222da6ee30d442aa"
                           "7d0cd43cb19a2eb913e773289c367343"),
    ("semiperimeter", "40"): (0, "0bd0095ae2a737e8f934a7ffcd91444b"
                                 "6d38dcc2e11996382621b94b838ffafb"),
}


@pytest.mark.parametrize("gf, order", SERIES_KERNEL_EDGES)
def test_series_kernel_edges_pinned(capsys, gf, order):
    code, out, _ = run(capsys, "series", "--gf", gf, "--order", order)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        SERIES_KERNEL_EDGES[gf, order]


def test_corollaries_build_no_continued_fraction(capsys, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("corollaries print no continued fraction")

    monkeypatch.setattr(cli.catalog, "gf_continued_fractions", no_fraction)
    code, out, _ = run(capsys, "series", "--gf", "corollaries", "--order", "6")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SERIES_ORDER_6_SHA256["corollaries"])


def test_cf_specializations_oracle_reads_the_area_series(capsys):
    code, out, _ = run(capsys, "series", "--gf", "cf-specializations",
                       "--order", "8", "--verify")
    assert code == 0
    assert lines(out)[0]["verified_against_oracle"] is True
    entry = cli.SERIES["cf-specializations"]
    record = entry.build(8)
    assert entry.oracle(8, record) is True
    area = record["area"]
    record = {**record, "area": area + area.ring.monomial(1, z=7)}
    assert entry.oracle(8, record) is False


# sha256 of the stdout of `series --gf G --order N --verify` for the two
# oracles that read the brute-force tallies, frozen while those tallies still
# built a statistics record per object
SERIES_VERIFY_SHA256 = {
    ("full", "5"):
        "4c6ad204a0b7efca9b9aca8e19a03ea4637c438f2a5833fdb941e727f3aeac36",
    ("cf-a", "6"):
        "20956150bbe99465067d4bf1b17aaf76531c5d620239813bca969e036aa7267b",
}


@pytest.mark.parametrize("gf, order", SERIES_VERIFY_SHA256)
def test_tally_oracle_stdout_bytes_pinned(capsys, gf, order):
    code, out, _ = run(capsys, "series", "--gf", gf, "--order", order,
                       "--verify")
    assert code == 0
    assert lines(out)[0]["verified_against_oracle"] is True
    assert (hashlib.sha256(out.encode()).hexdigest()
            == SERIES_VERIFY_SHA256[gf, order])


@pytest.mark.parametrize("gf, order, name, index", [
    ("full", "5", "stanley_fields", 5),
    ("cf-a", "6", "dyck_fields", 4),
])
def test_tally_oracle_reads_the_field_tuples(capsys, monkeypatch, gf, order,
                                             name, index):
    # one field off by one (edgint, sumv) in the tuple the tally reads
    real = getattr(cli.verification.objects, name)

    def off_by_one(raw):
        f = real(raw)
        return f._replace(**{f._fields[index]: f[index] + 1})

    monkeypatch.setattr(cli.verification.objects, name, off_by_one)
    code, out, _ = run(capsys, "series", "--gf", gf, "--order", order,
                       "--verify")
    assert code == 1
    assert lines(out)[0]["verified_against_oracle"] is False


class _Unequal(dict):
    """A restriction that equals no other: a comparison made with it fails."""

    def __eq__(self, other):
        return False


@pytest.mark.parametrize("name, broken, gf, order, suite", [
    ("count_mismatches", lambda *args: ["1"], "area", "8", "area"),
    ("upto", lambda terms, slot, limit: _Unequal(), "full", "5", "thm-full"),
])
def test_suites_and_series_verify_share_one_comparison(
        capsys, monkeypatch, name, broken, gf, order, suite):
    # one broken definition in verification fails both the series oracle
    # and the suite
    monkeypatch.setattr(verification, name, broken)
    code, out, _ = run(capsys, "series", "--gf", gf, "--order", order,
                       "--verify")
    assert code == 1
    assert '"verified_against_oracle":false' in out
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 1
    assert "fail" in {c["status"] for c in lines(out)[0]["checks"]}


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "table1",
                           "--max-size", "6")
        assert code == 0
        report = lines(out)[0]
        assert report["suite"] == "table1"
        assert report["checks"]
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_failing_suite_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "semiperimeter",
                           "--max-size", "8")
        assert code == 1
        statuses = {c["status"] for c in lines(out)[0]["checks"]}
        assert statuses == {"pass", "fail"}

    @pytest.mark.parametrize("name", sorted(verification.SUITES) + ["all"])
    @pytest.mark.parametrize("size", ["1", "-1"])
    def test_size_below_two_exit_two(self, capsys, name, size):
        code, out, err = run(capsys, "verify", "--suite", name,
                             "--max-size", size)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_cf_past_the_cap_exits_three_before_walking(self, capsys,
                                                        monkeypatch):
        # 22,508,258 paths have peak height sum at most 21: the suite
        # refuses from its series before the walk draws a path
        def walk(n):
            raise AssertionError("the walk started")

        monkeypatch.setattr(enumeration, "_gen_dyck_peak_sum", walk)
        code, out, err = run(capsys, "verify", "--suite", "cf",
                             "--max-size", "21")
        assert (code, out) == (3, "")
        assert err == ("error: Dyck paths with peak height sum at most 21 "
                       "exceeded cap of 10000000 objects\n")


# exit code and sha256 of the stdout of `verify --suite NAME --max-size 5`,
# and of `verify --suite NAME` at its default size (bijections aside: at
# size 12 it takes about 13 s), frozen from the output before the check
# helpers were shared; semiperimeter and bijections at size 5 carry the
# known reds
VERIFY_SIZE_5 = {
    "area": (0, "fdb9f5af64d2ce7c837a67f369347b17a02778dacdb843abd80748823da5677b"),
    "bijections":
        (1, "dc9984626adcfd324983c064a5b23c0ee5e8ba9fba173a378735351f1e639786"),
    "cf": (0, "6ef370680c83c87ab63d78d9e8b5e7c7444b835274b3e76774eab132fccfea8f"),
    "columns":
        (0, "baf295492061beb6bf0d86d142097202b4af1863ba112606760134c953135bf2"),
    "corollary-2-13":
        (0, "2c9f7d8d0045a829c904edee495a17b18eb79bbf76b77a1b52f00ecbe9d1beaa"),
    "semiperimeter":
        (1, "19600bda72ce46b709bf5ed04431dbad5fa5d2276502b5060da52d2c8c277373"),
    "table1": (0, "d540203c69d41fc57bcf217b16dc88ed366439d7bdb758454d5fb9cde3e7bf1b"),
    "thm-full":
        (0, "104ac050ce819d63cd82fd3710919885fbf3261654f380968dfb7130de97afd5"),
}
VERIFY_DEFAULT_SIZE = {
    "area": (0, "90a1f43bfbba6d0eb8b60c6e48d1955cb62cbdcd6dcb4c224362219fd62b5232"),
    "cf": (0, "1ada869f6986ed11d9200c34a0bc62334c517f7700b055bb50c0c9f0aac90b23"),
    "columns":
        (0, "5316af945d6c51b515f08c438fba5a9575274175d2535e58133634bb0384b497"),
    "corollary-2-13":
        (0, "16078c3f09ac932686217edfb860a50eb3165c58e2b1ad5eb272b5e1b4fb9e44"),
    "semiperimeter":
        (1, "4ad7f39b99d6a81c274440af471030a422c23e3f3968a3bf5bd14d64cdb00814"),
    "table1": (0, "ad5c75a77ead5602b91264711330c5adaba1cc078f59e7b5189e96da6a1db4e6"),
    "thm-full":
        (0, "f2d7bbeeca312b3a4913e4513133c933698708d4f43d296142207e5a035af8f2"),
}


# `verify --suite all --max-size 5`: every suite's checks in one report
VERIFY_ALL_SIZE_5 = (
    1, "e9ad17488c83c6afd55e80bb2c22f931727d2127dc361eaef5e659535286d836")


def test_verify_all_is_every_suite_in_order(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-size", "5")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VERIFY_ALL_SIZE_5
    merged = {"suite": "all", "checks": [
        {**c, "name": f"{name}: {c['name']}"} for name in verification.SUITES
        for c in verification.run_suite(name, 5)["checks"]]}
    assert lines(out) == [json.loads(json.dumps(merged))]


def test_unknown_suite_refused():
    with pytest.raises(OutOfRange, match="^unknown suite 'nope'$"):
        verification.run_suite("nope")


@pytest.mark.parametrize("suite, builder, name", [
    ("thm-full", "gf_full",
     "closed and iterated forms agree with no stray negative exponents"),
    ("cf", "gf_continued_fractions", "continued fraction record"),
], ids=["thm-full", "cf"])
def test_a_failed_build_is_one_failed_check(capsys, monkeypatch, suite,
                                            builder, name):
    def broken(order):
        raise MismatchBetweenForms("the two forms disagree")

    monkeypatch.setattr(verification.catalog, builder, broken)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-size", "4")
    assert code == 1
    assert lines(out)[0]["checks"] == [{
        "name": name, "status": "fail", "expected": ANY,
        "actual": "MismatchBetweenForms: the two forms disagree"}]


def test_verify_digests_cover_every_suite():
    assert set(VERIFY_SIZE_5) == set(verification.SUITES)
    assert set(VERIFY_DEFAULT_SIZE) == set(verification.SUITES) - {"bijections"}


@pytest.mark.parametrize("name, size, pinned", [
    *((name, ["--max-size", "5"], pin) for name, pin in VERIFY_SIZE_5.items()),
    *((name, [], pin) for name, pin in VERIFY_DEFAULT_SIZE.items()),
])
def test_verify_stdout_bytes_pinned(capsys, name, size, pinned):
    code, out, _ = run(capsys, "verify", "--suite", name, *size)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned


# sha256 of the stdout of each deterministic benchmark command, read from
# the benchmark's own table, which these tests never write
BENCHMARK_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(BENCHMARK_DIGESTS))
def test_benchmark_commands_stdout_pinned(capsys, command):
    _, out, _ = run(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == \
        BENCHMARK_DIGESTS[command]


# exit code and sha256 of the stdout of `verify --suite bijections
# --max-size 12` and of `verify --suite all`, printed from the reports that
# tests/test_acceptance.py builds (every suite at its default size), so no
# suite runs twice
VERIFY_BIJECTIONS_SIZE_12 = (
    1, "9fb5950a722bf14b53f578268703a65d16589c5c2a31595e25ddf1ccf15356e6")
VERIFY_ALL_DEFAULT_SIZE = (
    1, "c54f40ad8b9390d6819af9d8baebd950fa4d6f9837aa6a114607be38d1a8438f")


def printed(capsys, report: dict) -> tuple[int, str]:
    """The exit code and stdout sha256 of `verify` on this report."""
    cli._emit(report)
    out = capsys.readouterr().out
    return (int(verification.report_failed(report)),
            hashlib.sha256(out.encode()).hexdigest())


def test_bijections_at_size_12_pinned(capsys):
    assert printed(capsys, acceptance_suite("bijections", 12)) == \
        VERIFY_BIJECTIONS_SIZE_12


def test_verify_all_at_default_sizes_pinned(capsys):
    merged = {"suite": "all", "checks": [
        {**c, "name": f"{name}: {c['name']}"} for name in verification.SUITES
        for c in acceptance_suite(
            name, verification.SUITE_DEFAULT_SIZE[name])["checks"]]}
    assert printed(capsys, merged) == VERIFY_ALL_DEFAULT_SIZE


SRC = Path(cli.__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, pinned", [
    *(pytest.param(["series", "--gf", gf, "--order", "6"], (0, pin), id=gf)
      for gf, pin in SERIES_ORDER_6_SHA256.items()),
    pytest.param(["verify", "--suite", "table1"], VERIFY_DEFAULT_SIZE["table1"],
                 id="table1"),
])
def test_stdout_bytes_pinned_without_asserts(argv, pinned):
    # python -O strips every assert statement: no output may rest on one
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "stanlab", *argv],
                          capture_output=True, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == pinned


# -- map and enumerate output lines ------------------------------------------
# Lines are compact JSON with keys in record field order.  The expected
# lines are literals, so a change of any byte fails here.

STANLEY_STATS = ('"col":4,"row":2,"sper":6,"area":5,"point":0,"edgint":0,'
                 '"adja":1,"first":2,"firstD":2')
MAP_LINES = {
    "phi": ('{"rows":[[0,2],[1,3]]}',
            '{"in":{"rows":[[0,2],[1,3]]},"out":{"word":"UDUUDD"},'
            '"stats_in":{' + STANLEY_STATS + '},'
            '"stats_out":{"semilength":3,"nbp":2,"sump":3,"nbv":1,"sumv":0,'
            '"hills":1,"oneValleys":0,"sumOneValleys":0,"firstPeakHeight":1,'
            '"avoids3":true}}'),
    "phi-inv": ('{"word":"UUDUDD"}',
                '{"in":{"word":"UUDUDD"},"out":{"rows":[[0,3],[1,3]]},'
                '"stats_in":{"semilength":3,"nbp":2,"sump":4,"nbv":1,'
                '"sumv":1,"hills":0,"oneValleys":1,"sumOneValleys":1,'
                '"firstPeakHeight":2,"avoids3":true},'
                '"stats_out":{"col":4,"row":2,"sper":6,"area":6,"point":1,'
                '"edgint":0,"adja":2,"first":3,"firstD":2}}'),
    "chi": ('{"word":"UFUFDD"}',
            '{"in":{"word":"UFUFDD"},"out":{"rows":[[0,2],[1,3],[3,2]]},'
            '"stats_in":{"steps":6,"peakless":true},'
            '"stats_out":{"col":5,"row":3,"sper":8,"area":7,"point":0,'
            '"edgint":0,"adja":2,"first":2,"firstD":2}}'),
    "chi-inv": ('{"rows":[[0,2],[1,3],[3,2]]}',
                '{"in":{"rows":[[0,2],[1,3],[3,2]]},"out":{"word":"UFUFDD"},'
                '"stats_in":{"col":5,"row":3,"sper":8,"area":7,"point":0,'
                '"edgint":0,"adja":2,"first":2,"firstD":2},'
                '"stats_out":{"steps":6,"peakless":true}}'),
    "chi-prime": ('{"word":"UUDUDD"}',
                  '{"in":{"word":"UUDUDD"},"out":{"rows":[[0,2],[1,3]]},'
                  '"stats_in":{"semilength":3,"nbp":2,"sump":4,"nbv":1,'
                  '"sumv":1,"hills":0,"oneValleys":1,"sumOneValleys":1,'
                  '"firstPeakHeight":2,"avoids3":true},'
                  '"stats_out":{' + STANLEY_STATS + '}}'),
    "f": ('{"diagonals":[2,3,2,1]}',
          '{"in":{"diagonals":[2,3,2,1]},"out":{"rows":[[0,4],[2,3]]},'
          '"stats_in":{"e":5,"o":3,"m":4,"firstDiag":2},'
          '"stats_out":{"col":5,"row":2,"sper":7,"area":7,"point":1,'
          '"edgint":0,"adja":2,"first":4,"firstD":1}}'),
    "f-inv": ('{"rows":[[0,2],[1,3]]}',
              '{"in":{"rows":[[0,2],[1,3]]},"out":{"diagonals":[1,2,1]},'
              '"stats_in":{' + STANLEY_STATS + '},'
              '"stats_out":{"e":3,"o":1,"m":3,"firstDiag":1}}'),
    "h": ('{"columns":[[0,2],[1,2],[1,3]]}',
          '{"in":{"columns":[[0,2],[1,2],[1,3]]},"out":{"word":"UUDDUUDUUDDD"},'
          '"stats_in":{"area":7,"colCount":3,"overlaps":[1,2]},'
          '"stats_out":{"semilength":6,"nbp":3,"sump":7,"nbv":2,"sumv":1,'
          '"hills":0,"oneValleys":1,"sumOneValleys":1,"firstPeakHeight":2,'
          '"avoids3":false}}'),
    "h-inv": ('{"word":"UUDDUUDUUDDD"}',
              '{"in":{"word":"UUDDUUDUUDDD"},"out":{"columns":[[0,2],[1,2],[1,3]]},'
              '"stats_in":{"semilength":6,"nbp":3,"sump":7,"nbv":2,"sumv":1,'
              '"hills":0,"oneValleys":1,"sumOneValleys":1,"firstPeakHeight":2,'
              '"avoids3":false},'
              '"stats_out":{"area":7,"colCount":3,"overlaps":[1,2]}}'),
    "psi": ('{"columns":[[0,2],[1,2],[1,3]]}',
            '{"in":{"columns":[[0,2],[1,2],[1,3]]},'
            '"out":{"diagonals":[2,1,3,2,2,1]},'
            '"stats_in":{"area":7,"colCount":3,"overlaps":[1,2]},'
            '"stats_out":{"e":7,"o":4,"m":6,"firstDiag":2}}'),
    "psi-inv": ('{"diagonals":[2,1,3,2,2,1]}',
                '{"in":{"diagonals":[2,1,3,2,2,1]},'
                '"out":{"columns":[[0,2],[1,2],[1,3]]},'
                '"stats_in":{"e":7,"o":4,"m":6,"firstDiag":2},'
                '"stats_out":{"area":7,"colCount":3,"overlaps":[1,2]}}'),
}
ENUMERATE_COLUMNS_4 = (
    '{"object":{"rows":[[0,2],[1,2],[2,2]]},"stats":{"col":4,"row":3,'
    '"sper":7,"area":6,"point":0,"edgint":0,"adja":2,"first":2,"firstD":3}}\n'
    '{"object":{"rows":[[0,2],[1,3]]},"stats":{' + STANLEY_STATS + '}}\n'
    '{"object":{"rows":[[0,3],[1,3]]},"stats":{"col":4,"row":2,"sper":6,'
    '"area":6,"point":1,"edgint":0,"adja":2,"first":3,"firstD":2}}\n'
    '{"object":{"rows":[[0,3],[2,2]]},"stats":{"col":4,"row":2,"sper":6,'
    '"area":5,"point":0,"edgint":0,"adja":1,"first":3,"firstD":1}}\n'
    '{"object":{"rows":[[0,4]]},"stats":{"col":4,"row":1,"sper":5,"area":4,'
    '"point":0,"edgint":0,"adja":0,"first":4,"firstD":1}}\n')


def test_map_lines_cover_every_bijection():
    assert set(MAP_LINES) == set(cli.BIJECTIONS)


@pytest.mark.parametrize("bijection", MAP_LINES)
def test_map_stdout_bytes_pinned(capsys, monkeypatch, bijection):
    line, expected = MAP_LINES[bijection]
    TestMap().feed(monkeypatch, line + "\n")
    assert run(capsys, "map", "--bijection", bijection) == \
        (0, expected + "\n", "")


def test_enumerate_stdout_bytes_pinned(capsys):
    assert run(capsys, "enumerate", "--family", "stanley", "--measure",
               "columns", "--value", "4") == (0, ENUMERATE_COLUMNS_4, "")


def test_emit_writes_the_bytes_of_json_dumps(capsys):
    record = {"t": (1, (2, 3), [4, (5, "six")]), "flags": [True, False, None],
              "big": -(10 ** 99), "text": "façade ∑ \U0001F600 \"q\"\n",
              "nested": {"pairs": ((0, 1), (2, 3)), "empty": ((), [], {})}}
    assert len(str(record["big"])) == 101  # a sign and 100 digits
    cli._emit(record)
    out = capsys.readouterr().out
    assert out == json.dumps(record, separators=(",", ":")) + "\n"
    assert out.isascii()


def test_benchmark_hooks_see_every_line(capsys, monkeypatch):
    # perfbench reads cli.emit.* off calls to cli._emit and objects.stats_json
    # off calls to objects.stats_json; both must stay the calls the CLI makes
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(cli, "_emit", counted("emit", cli._emit))
    monkeypatch.setattr(objects, "stats_json",
                        counted("stats_json", objects.stats_json))
    line = MAP_LINES["psi"][0] + "\n"
    TestMap().feed(monkeypatch, line * 3)
    code, out, _ = run(capsys, "map", "--bijection", "psi")
    assert (code, len(out.splitlines())) == (0, 3)
    assert calls == {"emit": 3, "stats_json": 6}
    calls.clear()
    code, out, _ = run(capsys, "enumerate", "--family", "stanley",
                       "--measure", "columns", "--value", "4")
    assert (code, len(out.splitlines())) == (0, 5)
    assert calls == {"emit": 5, "stats_json": 5}


# -- one parser serves every call in a process -------------------------------

def test_reused_parser_prints_what_a_fresh_one_does(capsys, monkeypatch):
    calls = [("enumerate", "--family", "stanley", "--value", "x"),
             ("enumerate", "--family", "stanley", "--measure", "columns",
              "--value", "4")]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert fresh[0][:2] == (2, "") and "invalid int value" in fresh[0][2]
    assert fresh[1] == (0, ENUMERATE_COLUMNS_4, "")
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(capsys, *argv) for argv in calls] == fresh


def test_help_then_group_by_prints_the_pinned_bytes(capsys, monkeypatch):
    # the order of perfbench's child: --help at set-up, then the commands
    monkeypatch.setattr(cli, "_parser", None)
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: stanlab")
    assert run(capsys, "enumerate", "--family", "stanley", "--measure",
               "area", "--value", "6", "--group-by", "row") == \
        (0, '{"1":1,"2":4,"3":1}\n', "")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build = cli._build_parser
    builds = []

    def counted():
        builds.append(build())
        return builds[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "series", "--gf", "nope", "--order", "1")[0] == 2
    # an entry rebound after the parser is built still reaches main
    monkeypatch.setitem(cli.SERIES, "area", cli.SERIES["area"]._replace(cap=0))
    code, _, err = run(capsys, "series", "--gf", "area", "--order", "1")
    assert code == 3 and "cap of 0" in err
    assert len(builds) == 1


# -- README stays in step with the code --------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_list(label: str) -> set[str]:
    """The backquoted names of README's sentence "label: `a`, `b`, ... ."."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    start = text.index(f" {label}: `") + len(label) + 3
    return set(re.findall(r"`([^`]+)`", text[start:text.index(".", start)]))


def test_readme_lists_match_the_code():
    assert _readme_list("Bijections") == set(cli.BIJECTIONS)
    assert _readme_list("Series") == set(cli.SERIES)
    assert _readme_list("Suites") == set(verification.SUITES) | {"all"}


def test_readme_cap_table_matches_the_code():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| `--gf` | largest `--order` |"):]
    caps = {}
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        names, cap = row.strip("|").split("|")
        caps.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), int(cap)))
    assert caps == {gf: entry.cap for gf, entry in cli.SERIES.items()}


def test_readme_group_by_table_matches_the_code():
    # each row lists the integer fields of the family's record, in order,
    # and those are the family's objects.STATISTICS keys
    records = {"stanley": objects.StanleyStats, "dyck": objects.DyckStats,
               "peaklessMotzkin": objects.MotzkinStats,
               "fountain": objects.FountainStats,
               "parallelogram": objects.ParallelogramStats}
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| family | groupable statistics |"):]
    rows = {}
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        family, names = row.strip("|").split("|")
        rows[family.strip(" `")] = re.findall(r"`([^`]+)`", names)
    assert rows.keys() == records.keys() == objects.FAMILIES.keys()
    for family, names in rows.items():
        types = typing.get_type_hints(records[family])
        assert names == [f for f, t in types.items() if t is int], family
        assert names == [name for fam, name in objects.STATISTICS
                         if fam == family], family


def test_readme_options_match_the_parser():
    # README names every option of every subcommand and no other; the pip
    # flag of the install lines is the one exception
    parser = cli._build_parser()
    subparsers, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {o for sub in subparsers.choices.values() for a in sub._actions
               if not isinstance(a, argparse._HelpAction)
               for o in a.option_strings}
    named = set(re.findall(r"--[a-z][a-z-]*", README.read_text(encoding="utf-8")))
    assert named - {"--no-build-isolation"} == options
