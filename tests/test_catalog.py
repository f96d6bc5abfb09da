"""Closed-form series against frozen coefficients and the corollary records."""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil

import pytest

import stanlab
from stanlab import catalog, cli
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
from stanlab.errors import MismatchBetweenForms, OutOfRange
from stanlab.series import TruncatedSeries, evaluate_at_one
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

    @pytest.mark.parametrize("sequence", [fibonacci, catalan])
    def test_negative_index_refused(self, sequence):
        with pytest.raises(OutOfRange, match=f"^{sequence.__name__} index -1 "
                           "is negative$"):
            sequence(-1)


def fixed_point(phi, w):
    """phi iterated from w until it gives w back, within order + 2 rounds."""
    for _ in range(w.ring.order + 2):
        if (nxt := phi(w)) == w:
            return w
        w = nxt
    raise AssertionError("no fixed point")


def kernel_root(kind: str, r: TruncatedSeries) -> TruncatedSeries:
    """The first-row root in r's ring by the fixed point of
    w = 1 + x w^2 + (1 - t) w, which gains one order of x per round."""
    t_of, _ = catalog._FIRST_ROW[kind]
    x, one = r.ring.var("x"), r.ring.one()
    slack = 1 - t_of(x)
    return fixed_point(lambda w: 1 + x * w * w + slack * w, one)


def newton_divisions(den) -> bool:
    # Newton's denominator t - 2 x r carries no u; G's 1 - u x r does
    return not any(e[1] for e in den.terms)


class TestFirstRowKernel:
    @pytest.mark.parametrize("kind", ["columns", "semiperimeter"])
    def test_newton_root_matches_one_order_per_round(self, kind, monkeypatch):
        orders, real_divide = [], catalog.divide

        def recording(num, den):
            if newton_divisions(den):
                orders.append(den.ring.order)
            return real_divide(num, den)

        monkeypatch.setattr(catalog, "divide", recording)
        for order in range(catalog._FIRST_ROW[kind][1], 61):
            orders.clear()
            r, _, _ = catalog._first_row(kind, order)
            # one Newton step at each power of 2 below the order, one at it
            assert orders == [1 << k for k in range(
                (order - 1).bit_length())] + [order], order
            assert r == kernel_root(kind, r), order

    # at orders on both sides of powers of 2, up to the largest the CLI
    # admits, the root is the kernel's fixed point and G's slices through
    # x^16 are the closed coefficient formulas
    @pytest.mark.parametrize("kind, order", [
        (kind, order) for kind in ("columns", "semiperimeter")
        for order in (2, 3, 8, 31, 64, 65, 150)])
    def test_root_and_slices_at_a_spread_of_orders(self, kind, order):
        r, G, G1 = catalog._first_row(kind, order)
        assert r == kernel_root(kind, r)
        assert G1 == evaluate_at_one(G, "u")
        coeff = coeff_columns if kind == "columns" else coeff_semiperimeter
        low = {(n, k): c for (n, k), c in G.terms.items() if 2 <= n <= 16}
        assert low == {(n, k): coeff(n, k) for n in range(2, min(order, 16) + 1)
                       for k in range(1, n + (kind == "columns"))
                       if coeff(n, k)}

    @pytest.mark.parametrize("kind", ["columns", "semiperimeter"])
    def test_kernel_check_can_fail(self, kind, monkeypatch):
        # skip Newton's last step: the root is right only through order 4
        real = catalog.divide

        def skipping(num, den):
            q = real(num, den)
            if newton_divisions(den) and den.ring.order == 8:
                q = q.ring.zero()
            return q

        monkeypatch.setattr(catalog, "divide", skipping)
        with pytest.raises(MismatchBetweenForms,
                           match=f"^{kind} kernel root fails its equation$"):
            catalog._first_row(kind, 8)

    @pytest.mark.parametrize("kind", ["columns", "semiperimeter"])
    def test_slice_identity_can_fail(self, kind, monkeypatch):
        # G's division, the only one whose denominator carries u, gains
        # x^order (u^2 - u): G(1) is unchanged, one u^2 and one u slice wrong
        real = catalog.divide

        def perturbed(num, den):
            q = real(num, den)
            if any(e[1] for e in den.terms):
                ring = q.ring
                q = q + ring.monomial(1, x=ring.order, u=2) \
                    - ring.monomial(1, x=ring.order, u=1)
            return q

        monkeypatch.setattr(catalog, "divide", perturbed)
        # the G(1) check runs first and passes; the identity fails
        with pytest.raises(MismatchBetweenForms, match="u\\^k slices"):
            catalog._first_row(kind, 8)


@pytest.mark.parametrize("build, message", [
    (gf_columns_corollaries, "edgint-free columns count at x^2"),
    (gf_semiperimeter_corollaries, "Fibonacci series coefficient at x^2"),
    (gf_continued_fractions, "valley-free coefficient at p^2"),
])
def test_one_variable_ratio_checks_can_fail(monkeypatch, build, message):
    # F(1) one off: each ratio's first checked coefficient, at x^2 or p^2,
    # reads it
    real = catalog.fibonacci
    monkeypatch.setattr(catalog, "fibonacci", lambda n: real(n) + (n == 1))
    with pytest.raises(MismatchBetweenForms) as exc:
        build(6)
    assert str(exc.value) == message


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

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
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


# sha256 of the stdout of `series --gf cf-specializations --order 6`, as
# pinned with the other order-6 outputs in test_cli
CF_SPECIALIZATIONS_ORDER_6_SHA256 = (
    "5ca7466cb4cea06268ebc211f8fbf1bef081a28e16d97257d0d6cf778a72f7ea")


class TestStateless:
    def test_mutated_results_reach_no_later_call(self, capsys):
        rec = gf_continued_fractions(6)
        rec["a-1q1"] = None
        rec["a-1qq"].packed.clear()
        cor = gf_columns_corollaries(6)
        cor["first-row-total"]["series"].packed.clear()
        cor["point-free"] = None
        gf_full(4).packed.clear()

        rec = gf_continued_fractions(6)
        assert series_ints(rec["a-1q1"], "q") == {
            n + 1: c for n, c in enumerate([1, 2, 4, 9, 20, 46])}
        assert series_ints(rec["a-1qq"], "q") == {
            n + 1: c for n, c in enumerate([1, 2, 4, 8, 17, 36])}
        cor = gf_columns_corollaries(6)
        assert series_ints(cor["first-row-total"]["series"]) == {
            n: catalan(n) for n in range(1, 7)}
        assert cor["point-free"]["power-of-two-identity"] is True
        assert gf_full(4).terms == full_tally(4)

        argv = ["series", "--gf", "cf-specializations", "--order", "6"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest()
                == CF_SPECIALIZATIONS_ORDER_6_SHA256)

    def test_no_callable_is_memoised(self):
        modules = [importlib.import_module(f"stanlab.{m.name}")
                   for m in pkgutil.iter_modules(stanlab.__path__)
                   if m.name != "__main__"]
        cached = [f"{module.__name__}.{name}"
                  for module in [stanlab, *modules]
                  for name, value in vars(module).items()
                  if callable(value) and hasattr(value, "cache_info")]
        assert len(modules) > 5 and cached == []


def _series_in(value):
    """Every series in a builder's result: a series, a tuple or a record."""
    if isinstance(value, TruncatedSeries):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _series_in(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _series_in(v)


@pytest.mark.parametrize("builder, order, count", [
    (gf_full, 4, 1),
    (gf_columns, 8, 2),
    (gf_semiperimeter, 8, 2),
    (gf_area, 8, 1),
    (gf_continued_fractions, 6, 6),
    (gf_columns_corollaries, 8, 3),
    (gf_semiperimeter_corollaries, 8, 2),
], ids=lambda v: getattr(v, "__name__", None))
def test_every_coefficient_is_an_int(builder, order, count):
    found = list(_series_in(builder(order)))
    assert len(found) == count
    for series in found:
        assert series.terms
        assert all(type(c) is int for c in series.terms.values())
