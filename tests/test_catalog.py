"""Closed-form series against frozen coefficients and the corollary records."""

from __future__ import annotations

import json

import pytest

from stanlab.catalog import (
    catalan,
    coeff_columns,
    coeff_semiperimeter,
    fibonacci,
    full_order_z,
    gf_area,
    gf_columns,
    gf_columns_corollaries,
    gf_continued_fractions,
    gf_full,
    gf_semiperimeter,
    gf_semiperimeter_corollaries,
    record_json,
)
from stanlab.errors import OutOfRange
from stanlab.verification import full_tally


def series_ints(series, var: str = "x") -> dict[int, int]:
    idx = series.vars.index(var)
    out: dict[int, int] = {}
    for expo, c in series.terms.items():
        out[expo[idx]] = out.get(expo[idx], 0) + int(c)
    return out


class TestNumberSequences:
    def test_fibonacci(self):
        assert [fibonacci(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]

    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


class TestColumnsSeries:
    def test_evaluation_at_one_is_catalan(self):
        _, g1 = gf_columns(9)
        assert series_ints(g1) == {n: catalan(n - 1) for n in range(1, 10)}

    def test_bivariate_matches_closed_form(self):
        g, _ = gf_columns(7)
        for (n, k), c in g.terms.items():
            if n == 1:
                assert (k, int(c)) == (1, 1)
            else:
                assert int(c) == coeff_columns(n, k)

    def test_coefficient_spot_values(self):
        assert coeff_columns(7, 4) == 28
        assert coeff_columns(2, 2) == 1
        assert coeff_columns(2, 1) == 0

    @pytest.mark.parametrize("n", range(2, 10))
    def test_coefficients_sum_to_catalan(self, n: int):
        assert sum(coeff_columns(n, k) for k in range(1, n + 1)) == catalan(n - 1)

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            gf_columns(0)
        with pytest.raises(OutOfRange):
            coeff_columns(1, 1)
        with pytest.raises(OutOfRange):
            coeff_columns(3, 5)

    def test_corollary_record(self):
        rec = gf_columns_corollaries(8)
        assert set(rec) == {"first-row-total", "edgint-free", "point-free"}
        assert rec["first-row-total"]["catalan-identity"] is True
        assert series_ints(rec["first-row-total"]["series"]) == {
            n: catalan(n) for n in range(1, 9)
        }
        assert rec["edgint-free"]["fibonacci-odd-identity"] is True
        assert series_ints(rec["edgint-free"]["series"]) == {
            n: fibonacci(2 * n - 3) if n >= 2 else 1 for n in range(1, 9)
        }
        assert rec["point-free"]["power-of-two-identity"] is True
        assert series_ints(rec["point-free"]["series"]) == {
            n: 2 ** (n - 2) if n >= 2 else 1 for n in range(1, 9)
        }

    def test_average_first_row_ratios(self):
        rec = gf_columns_corollaries(5)
        ratios = rec["first-row-total"]["average-first-row-ratios"]
        assert [r["ratio"] for r in ratios] == ["1", "2", "5/2", "14/5", "3"]


class TestSemiperimeterSeries:
    def test_evaluation_at_one(self):
        _, g1 = gf_semiperimeter(9)
        assert series_ints(g1) == {2: 1, 3: 1, 4: 1, 5: 2, 6: 4, 7: 8, 8: 17, 9: 37}

    def test_coefficient_spot_values(self):
        assert coeff_semiperimeter(7, 4) == 3
        assert coeff_semiperimeter(7, 3) == 2

    @pytest.mark.parametrize("n", range(2, 10))
    def test_coefficients_sum_to_class_count(self, n: int):
        _, g1 = gf_semiperimeter(n)
        total = sum(coeff_semiperimeter(n, k) for k in range(1, n))
        assert total == series_ints(g1)[n]

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            gf_semiperimeter(1)
        with pytest.raises(OutOfRange):
            coeff_semiperimeter(2, 0)

    def test_corollary_record(self):
        rec = gf_semiperimeter_corollaries(8)
        assert set(rec) == {"first-row-total", "edgint-free"}
        assert rec["first-row-total"]["convolution-square-identity"] is True
        assert series_ints(rec["first-row-total"]["series"]) == {
            2: 1, 3: 2, 4: 3, 5: 6, 6: 13, 7: 28, 8: 62,
        }
        # The closed form itself follows the Fibonacci recurrence; whether it
        # counts anything is a separate question settled by enumeration.
        assert rec["edgint-free"]["series-follows-fibonacci"] is True
        assert series_ints(rec["edgint-free"]["series"]) == {
            1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 13,
        }


class TestAreaSeries:
    def test_frozen_coefficients(self):
        g = gf_area(11)
        assert series_ints(g, "z") == {
            n + 1: c
            for n, c in enumerate([1, 1, 1, 2, 3, 6, 10, 19, 34, 63, 115])
        }

    def test_domain_error(self):
        with pytest.raises(OutOfRange):
            gf_area(0)


class TestFullSeries:
    def test_low_order_terms(self):
        g = gf_full(2)
        assert g.vars == ("x", "y", "z", "p", "q")
        assert {k: int(v) for k, v in g.terms.items()} == {
            (1, 1, 1, 0, 0): 1,
            (2, 1, 2, 0, 0): 1,
        }

    def test_three_column_classes(self):
        g = gf_full(3)
        three = {
            k[1:]: int(v) for k, v in g.terms.items() if k[0] == 3
        }
        assert three == {
            (1, 3, 0, 0): 1,
            (2, 4, 0, 0): 1,
        }

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_matches_brute_force_past_the_suite_size(self, n):
        # the column bound is the ring's cap on x: every class through n
        # columns is present and nothing beyond
        assert gf_full(n).terms == full_tally(n)

    def test_area_order_schedule(self):
        assert [full_order_z(n) for n in (6, 7, 8)] == [12, 16, 20]

    def test_domain_error(self):
        with pytest.raises(OutOfRange):
            gf_full(0)


class TestContinuedFractionRecord:
    def test_record_identities(self):
        rec = gf_continued_fractions(8)
        assert rec["fibonacci-identity"] is True
        assert rec["area-identity"] is True
        assert rec["depth"] == 10

    def test_specializations(self):
        rec = gf_continued_fractions(9)
        assert series_ints(rec["a-1q1"], "q") == {
            n + 1: c for n, c in enumerate([1, 2, 4, 9, 20, 46, 105, 242, 557])
        }
        assert series_ints(rec["a-1qq"], "q") == {
            n + 1: c for n, c in enumerate([1, 2, 4, 8, 17, 36, 76, 162, 345])
        }

    def test_pyramid_specialization_counts_compositions(self):
        rec = gf_continued_fractions(6)
        assert series_ints(rec["a-pp0"], "p")[6] == 5

    def test_three_variable_slice(self):
        rec = gf_continued_fractions(4)
        a = rec["a"]
        q4 = {(k[0], k[2]): int(v) for k, v in a.terms.items() if k[1] == 4}
        assert q4 == {(1, 0): 1, (2, 0): 3, (3, 0): 3, (4, 0): 1, (2, 1): 1}

    def test_record_is_json_ready(self):
        rec = record_json(gf_continued_fractions(3))
        dumped = json.loads(json.dumps(rec))
        assert dumped["a"]["vars"] == ["p", "q", "v"]

    def test_domain_error(self):
        with pytest.raises(OutOfRange):
            gf_continued_fractions(0)
