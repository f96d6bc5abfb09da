"""One test per shipped acceptance criterion, each reporting a PASS/FAIL line.

Two criteria contain clauses that the library deliberately reports as failed:
the no-internal-edge count by semiperimeter does not follow the claimed
Fibonacci closed form, and the triple-run-free Dyck map is not injective.
Those clauses get their own red tests so the summary stays honest; every
other clause of the same criteria is asserted green.  The true sequences
behind both reds are pinned by the tests at the end, the edge-free counts
also as an exact rational series.
"""

from __future__ import annotations

import pytest

from conftest import ACCEPTANCE_LINES

from stanlab.catalog import catalan
from stanlab.enumeration import FamilyBound, count
from stanlab.series import SeriesRing, divide
from stanlab.verification import (
    _fountain_brute_checks,
    edge_free_count,
    preimages,
    run_suite,
)

SPER_RED = "polyominoes with no internal edge by semiperimeter are counted by Fibonacci numbers"
BIJ_REDS = {
    "triple-run-free map is injective at each source size",
    "triple-run-free map image counts match semiperimeter counts",
}

_suite_cache: dict[tuple[str, int], dict] = {}


def suite(name: str, max_size: int) -> dict:
    key = (name, max_size)
    if key not in _suite_cache:
        _suite_cache[key] = run_suite(name, max_size=max_size)
    return _suite_cache[key]


def record(num: int, label: str, ok: bool) -> bool:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d} [{verdict}] {label}")
    return ok


def failures(report: dict) -> list[str]:
    return [c["name"] for c in report["checks"] if c["status"] != "pass"]


def describe(report: dict) -> str:
    bad = failures(report)
    return "; ".join(bad) if bad else "all checks pass"


def test_criterion_1_column_counts_are_catalan():
    ok = all(
        count(FamilyBound("stanley", "columns", n + 1)) == catalan(n)
        for n in range(1, 13)
    )
    assert record(1, "column counts follow the Catalan numbers through 13 columns", ok)


def test_criterion_2_statistic_transport_suite():
    report = suite("table1", 9)
    ok = not failures(report)
    assert record(2, "statistic transport suite at size 9", ok), describe(report)


def test_criterion_3_five_variable_series_suite():
    report = suite("thm-full", 6)
    ok = not failures(report)
    assert record(3, "five-variable series suite at size 6", ok), describe(report)


def test_criterion_4_columns_suite():
    report = suite("columns", 12)
    ok = not failures(report)
    assert record(4, "columns suite at size 12", ok), describe(report)


def test_criterion_5_semiperimeter_suite_green_clauses():
    report = suite("semiperimeter", 12)
    bad = [name for name in failures(report) if name != SPER_RED]
    record(5, "semiperimeter suite at size 12 (one clause is a known red)",
           not failures(report))
    assert not bad, "; ".join(bad)


def test_criterion_5_no_internal_edge_fibonacci_clause():
    report = suite("semiperimeter", 12)
    red = next(c for c in report["checks"] if c["name"] == SPER_RED)
    if red["status"] != "pass":
        pytest.fail(
            "known red: the stated Fibonacci closed form disagrees with "
            f"enumeration (expected {red['expected']}, actual {red['actual']})"
        )


def test_criterion_6_bijection_suite_green_clauses():
    report = suite("bijections", 12)
    bad = [name for name in failures(report) if name not in BIJ_REDS]
    record(6, "bijection suite at size 12 (two clauses are known reds)",
           not failures(report))
    assert not bad, "; ".join(bad)


def test_criterion_6_triple_run_free_injectivity_clauses():
    report = suite("bijections", 12)
    reds = [c for c in report["checks"] if c["name"] in BIJ_REDS]
    assert len(reds) == len(BIJ_REDS)
    if any(c["status"] != "pass" for c in reds):
        detail = "; ".join(f"{c['name']}: {c['actual']}" for c in reds
                           if c["status"] != "pass")
        pytest.fail(
            "known red: the stated recursion merges distinct sources from "
            f"semilength 5 on ({detail})"
        )


def test_criterion_7_area_suite():
    report = suite("area", 14)
    ok = not failures(report)
    assert record(7, "area suite at size 14", ok), describe(report)


def test_criterion_8_continued_fraction_suite():
    report = suite("cf", 10)
    ok = not failures(report)
    assert record(8, "continued-fraction suite at size 10", ok), describe(report)


def test_criterion_9_area_row_triple_match_suite():
    report = suite("corollary-2-13", 12)
    ok = not failures(report)
    assert record(9, "area-by-row triple-family match suite at size 12", ok), \
        describe(report)


def test_criterion_10_fountain_physics_brute_force():
    checks: list[dict] = []
    _fountain_brute_checks(checks)
    ok = bool(checks) and all(c["status"] == "pass" for c in checks)
    assert record(10, "fountain acceptance matches gravity simulation to 18 coins",
                  ok)


# -- the known reds as exact sequences ---------------------------------------

EDGE_FREE_COUNTS = dict(enumerate(
    [1, 1, 1, 2, 4, 7, 14, 26, 50, 95, 181, 345, 657, 1252, 2385, 4544, 8657],
    start=2))

# S(x) = x^2 P / Q, the edge-free polyominoes by semiperimeter, as
# coefficient lists of P and Q from x^0
EDGE_FREE_P = (1, 0, -2, -1, 1)
EDGE_FREE_Q = (1, -1, -2, 0, 1)


def test_edge_free_counts_by_semiperimeter_through_18():
    counts = EDGE_FREE_COUNTS
    assert {n: edge_free_count(n) for n in counts} == counts
    # a(n) = a(n-1) + 2a(n-2) - a(n-4) from semiperimeter 7 on, not at 6
    misses = [n for n in range(6, 19) if counts[n] != counts[n - 1]
              + 2 * counts[n - 2] - counts[n - 4]]
    assert misses == [6]


def edge_free_transfer(order: int):
    """The edge-free polyominoes by semiperimeter x, from the two-state
    transfer system.  Every overlap o is 1 or 2 and less than both rows it
    joins, so a one-cell row stands alone and every other row has length 2
    (state a) or at least 3 (state b); a row of length l' on overlap o adds
    x^(1 + l' - o).  Then a = x^3 + x^2 (a + b) and
    b = x^4/(1-x) + x^3/(1-x) (a + b) + x^2/(1-x) b, solved by Cramer's
    rule, and S = x^2 + a + b."""
    ring = SeriesRing(("x",), grade="x", order=order)
    x, one = ring.var("x"), ring.one()
    start_a, start_b = x ** 3, divide(x ** 4, one - x)
    # (1 - M) (a, b) = (start_a, start_b) for the transfer matrix M
    m_aa = m_ab = x * x
    m_ba = divide(x ** 3, one - x)
    m_bb = m_ba + divide(x * x, one - x)
    det = (one - m_aa) * (one - m_bb) - m_ab * m_ba
    a = divide(start_a * (one - m_bb) + m_ab * start_b, det)
    b = divide((one - m_aa) * start_b + m_ba * start_a, det)
    return x * x + a + b


def edge_free_closed(order: int, p=EDGE_FREE_P, q=EDGE_FREE_Q):
    ring = SeriesRing(("x",), grade="x", order=order)
    x = ring.var("x")

    def poly(cs):
        return sum((c * x ** i for i, c in enumerate(cs)), ring.zero())

    return divide(x * x * poly(p), poly(q))


def test_edge_free_series_is_rational_through_60():
    s = edge_free_transfer(60)
    assert s == edge_free_closed(60)
    assert {n: s.coeff({"x": n}) for n in EDGE_FREE_COUNTS} == EDGE_FREE_COUNTS
    assert s.coeff({"x": 60}) == 4_949_344_043_795_952


@pytest.mark.parametrize("which, i, delta", [
    (which, i, delta) for which in "PQ" for i in range(5) for delta in (-1, 1)
    if (which, i) != ("Q", 0)])  # Q's constant term must stay 1 to divide
def test_edge_free_series_fails_under_a_one_term_change(which, i, delta):
    p, q = list(EDGE_FREE_P), list(EDGE_FREE_Q)
    (p if which == "P" else q)[i] += delta
    assert edge_free_transfer(60) != edge_free_closed(60, p, q)


def test_chi_prime_image_counts_through_semilength_14():
    images, merged = [], []
    for m in range(15):
        groups = preimages(m)
        sources = sum(map(len, groups.values()))
        assert sources == count(FamilyBound("stanley", "semiperimeter", m + 3)), m
        images.append(len(groups))
        merged.append({rows: [d.word for d in ds]
                       for rows, ds in groups.items() if len(ds) > 1})
    assert images == [1, 1, 2, 4, 8, 16, 33, 69, 146, 312, 673, 1463, 3202,
                      7050, 15605]
    assert list(map(len, merged)) == [0, 0, 0, 0, 0, 1, 4, 12, 32, 83, 210,
                                      521, 1273, 3079, 7393]
    # the smallest collision
    assert merged[5] == {((0, 2), (1, 3), (3, 2)): ["UUDUDDUUDD",
                                                    "UUDUUDDUDD"]}
