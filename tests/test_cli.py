"""End-to-end command-line behaviour: output shapes and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import re
import typing
from pathlib import Path

import pytest

import stanlab.cli as cli
from stanlab import objects, verification
from stanlab.errors import CapExceeded, InvariantViolation, MismatchBetweenForms

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

    def test_timestamp_prologue(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "dyck",
                           "--measure", "semilength", "--value", "1",
                           "--timestamps")
        assert code == 0
        rows = lines(out)
        assert set(rows[0]) == {"timestamp"}
        assert len(rows) == 2


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
            raise InvariantViolation("odd reduction emptied the polyomino")

        monkeypatch.setitem(cli.BIJECTIONS, "f-inv", ("stanley", broken))
        self.feed(monkeypatch, '{"rows": [[0, 2]]}\n{"rows": [[0, 3]]}\n')
        code, out, err = run(capsys, "map", "--bijection", "f-inv",
                             *(["--skip-invalid"] if skip else []))
        assert (code, out) == (5, "")
        assert err == ("theorem check failed: InvariantViolation: odd "
                       "reduction emptied the polyomino\n")

    def test_skip_invalid_keeps_going(self, capsys, monkeypatch):
        self.feed(monkeypatch,
                  '{"word": "UD"}\nbroken\n{"word": "UUDD"}\n')
        code, out, err = run(capsys, "map", "--bijection", "phi-inv",
                             "--skip-invalid")
        assert code == 0
        assert len(lines(out)) == 2
        assert "line 2" in err

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
        # one closed form disagrees with enumeration, and the flag says so
        code, out, _ = run(capsys, "series", "--gf", "corollaries",
                           "--order", "6", "--verify")
        assert code == 0
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
    assert code == 0
    assert lines(out)[0]["verified_against_oracle"] is False


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


# exit code and sha256 of the stdout of `verify --suite NAME --max-size 5`,
# and of `verify --suite NAME` at its default size (bijections aside: at
# size 12 it takes over a minute), frozen from the output before the check
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
