"""Named check suites tying the closed forms, the bijections, and brute-force
enumeration to one another.

Every suite appends its checks, {"name", "status", "expected", "actual"}
with status "pass" or "fail", to the list it is given, and ``run_suite``
wraps them in a report {"suite": name, "checks": [...]}.  Expected values
that are frozen below (printed expansions, coefficient tables) were
transcribed once and are never recomputed from the code under test, so a
regression in the series engine cannot silently agree with itself.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from operator import attrgetter

from . import bijections, catalog, enumeration, objects
from .enumeration import (
    FamilyBound,
    count,
    count_grouped,
    enumerate_family,
    iter_raw,
)
from .errors import OutOfRange, StanlabError

# Frozen printed expansion of the five-variable series through x^5.
# Exponent order (x, y, z, p, q) = (columns, rows, area, edgint, point).
REFERENCE_FULL: dict[tuple[int, int, int, int, int], int] = {
    (1, 1, 1, 0, 0): 1,
    (2, 1, 2, 0, 0): 1,
    (3, 2, 4, 0, 0): 1,
    (3, 1, 3, 0, 0): 1,
    (4, 1, 4, 0, 0): 1,
    (4, 3, 6, 0, 0): 1,
    (4, 2, 6, 0, 1): 1,
    (4, 2, 5, 0, 0): 2,
    (5, 1, 5, 0, 0): 1,
    (5, 4, 8, 0, 0): 1,
    (5, 3, 9, 0, 2): 1,
    (5, 3, 8, 0, 1): 2,
    (5, 3, 7, 0, 0): 3,
    (5, 2, 8, 1, 2): 1,
    (5, 2, 7, 0, 1): 2,
    (5, 2, 6, 0, 0): 3,
}

# Frozen expansion of the columns series G(u): {(columns, first): count}.
REFERENCE_COLUMNS: dict[tuple[int, int], int] = {
    (1, 1): 1,
    (2, 2): 1,
    (3, 2): 1, (3, 3): 1,
    (4, 2): 2, (4, 3): 2, (4, 4): 1,
    (5, 2): 5, (5, 3): 5, (5, 4): 3, (5, 5): 1,
    (6, 2): 14, (6, 3): 14, (6, 4): 9, (6, 5): 4, (6, 6): 1,
    (7, 2): 42, (7, 3): 42, (7, 4): 28, (7, 5): 14, (7, 6): 5, (7, 7): 1,
}

# Frozen expansion of the semiperimeter series G(u): {(semiperimeter, first): count}.
REFERENCE_SEMIPERIMETER: dict[tuple[int, int], int] = {
    (2, 1): 1,
    (3, 2): 1,
    (4, 3): 1,
    (5, 4): 1, (5, 2): 1,
    (6, 5): 1, (6, 3): 2, (6, 2): 1,
    (7, 6): 1, (7, 4): 3, (7, 3): 2, (7, 2): 2,
    (8, 7): 1, (8, 5): 4, (8, 4): 3, (8, 3): 5, (8, 2): 4,
}

# Frozen area expansion, coefficients of z^1 .. z^11.
REFERENCE_AREA = [1, 1, 1, 2, 3, 6, 10, 19, 34, 63, 115]

# Frozen continued-fraction slices: q-degree -> {(p exponent, v exponent): coeff}.
REFERENCE_CF: dict[int, dict[tuple[int, int], int]] = {
    4: {(1, 0): 1, (2, 0): 3, (3, 0): 3, (4, 0): 1, (2, 1): 1},
    5: {(1, 0): 1, (2, 0): 4, (2, 1): 2, (3, 0): 6, (3, 1): 2,
        (4, 0): 4, (5, 0): 1},
    6: {(1, 0): 1, (2, 0): 5, (2, 1): 3, (2, 2): 1, (3, 0): 10,
        (3, 1): 6, (3, 2): 1, (4, 0): 10, (4, 1): 3, (5, 0): 5, (6, 0): 1},
}

# Frozen nine-term expansions of the two q-collapses, coefficients of q^1 .. q^9.
REFERENCE_A_1Q1 = [1, 2, 4, 9, 20, 46, 105, 242, 557]
REFERENCE_A_1QQ = [1, 2, 4, 8, 17, 36, 76, 162, 345]

SUITE_DEFAULT_SIZE = {
    "table1": 9,
    "bijections": 12,
    "thm-full": 6,
    "columns": 12,
    "semiperimeter": 12,
    "area": 14,
    "cf": 10,
    "corollary-2-13": 12,
}


# Below this size table1 and corollary-2-13 check nothing at all.
MIN_SUITE_SIZE = 2


def _check(checks: list, name: str, expected, actual, ok=None) -> bool:
    """Record one check; it passes when ok, or when ok is None and
    expected == actual."""
    ok = expected == actual if ok is None else ok
    checks.append({
        "name": name,
        "status": "pass" if ok else "fail",
        "expected": expected,
        "actual": actual,
    })
    return ok


def _check_all_equal(checks: list, name: str, bad: list[str],
                     where: str = "off at ") -> bool:
    return _check(checks, name, "all equal",
                  where + ", ".join(bad) if bad else "all equal")


def _try_build(checks: list, name: str, want: str, build):
    """Run build() and return what it built; a StanlabError it raises
    becomes a failed check and None is returned."""
    try:
        return build()
    except StanlabError as exc:
        _check(checks, name, want, f"{type(exc).__name__}: {exc}")
        return None


def _check_built(checks: list, name: str, want: str, build):
    """As _try_build, and record a passing check when build() gives
    something back."""
    built = _try_build(checks, name, want, build)
    if built is not None:
        _check(checks, name, want, want)
    return built


def _dict_delta(expected: dict, actual: dict) -> str:
    """Compact description of where two count dictionaries disagree."""
    limit = 4  # differences shown
    keys = sorted(set(expected) | set(actual), key=repr)
    diffs = [
        f"{k!r}: expected {expected.get(k, 0)}, got {actual.get(k, 0)}"
        for k in keys
        if expected.get(k, 0) != actual.get(k, 0)
    ]
    shown = "; ".join(diffs[:limit])
    if len(diffs) > limit:
        shown += f"; ... {len(diffs) - limit} more"
    return shown or "match"


def _check_dict(checks: list, name: str, expected: dict, actual: dict) -> bool:
    ok = expected == actual
    return _check(checks, name, f"{len(expected)} classes, all equal",
                  "match" if ok else _dict_delta(expected, actual), ok)


# -- brute-force comparisons, shared with `stanlab series --verify` -----------------

def upto(terms: dict, slot: int, limit: int) -> dict:
    """The terms whose exponent in the given slot is at most limit."""
    return {e: c for e, c in terms.items() if e[slot] <= limit}


def count_mismatches(series, family: str, measure: str, sizes,
                     shift: int = 0) -> list[str]:
    """The sizes n, as strings, at which the series' coefficient of grade^n
    differs from the count of family objects of measure n - shift."""
    grade = series.ring.grade
    return [str(n) for n in sizes if series.coeff({grade: n})
            != count(FamilyBound(family, measure, n - shift))]


def _tally(family: str, measure: str, largest: int, fields, key) -> Counter:
    """Objects of sizes 1 .. largest counted by key(fields(raw object))."""
    counted = Counter()
    for n in range(1, largest + 1):
        counted.update(map(key, map(fields, iter_raw(
            FamilyBound(family, measure, n)))))
    return counted


def full_tally(max_columns: int) -> dict[tuple, int]:
    """Polyominoes of 1 .. max_columns columns counted by
    (columns, rows, area, edgint, point), the five-variable series' exponents."""
    return _tally("stanley", "columns", max_columns, objects.stanley_fields,
                  attrgetter("col", "row", "area", "edgint", "point"))


def cf_tally(max_sump: int) -> dict[tuple, int]:
    """Dyck paths with peak height sum at most max_sump counted by
    (peaks, peak height sum, valley height sum).  The walk takes a U from
    height h only while the heights of the peaks already passed plus h + 1
    fit max_sump, since that U promises a peak at least h + 1 high; so every
    prefix it makes closes by D steps into a path it keeps."""
    fields, key = objects.dyck_fields, attrgetter("nbp", "sump", "sumv")
    counted = Counter()
    # node (word, height, heights of the peaks passed, last step is a U)
    stack = [("U", 1, 0, True)] if max_sump > 0 else []
    while stack:
        word, h, passed, up = stack.pop()
        if h:
            stack.append((word + "D", h - 1, passed + h if up else passed,
                          False))
        else:
            counted[key(fields(word))] += 1
        if passed + h < max_sump:
            stack.append((word + "U", h + 1, passed, True))
    return counted


def edge_free_count(semiperimeter: int) -> int:
    """Polyominoes of the given semiperimeter with no internal edge."""
    bound = FamilyBound("stanley", "semiperimeter", semiperimeter)
    return count_grouped(bound, "edgint").get(0, 0)


# -- table of transported statistics ----------------------------------------------

TABLE1_IDENTITIES = (
    ("columns = semilength + 1", "col", lambda d: d.semilength + 1),
    ("rows = number of peaks", "row", lambda d: d.nbp),
    ("semiperimeter = peaks + semilength + 1", "sper",
     lambda d: d.nbp + d.semilength + 1),
    ("first row = first peak height + 1", "first",
     lambda d: d.firstPeakHeight + 1),
    ("area = peak height sum + peaks", "area", lambda d: d.sump + d.nbp),
    ("interior points = valley height sum", "point", lambda d: d.sumv),
    ("adjacencies = valley height sum + valleys", "adja",
     lambda d: d.sumv + d.nbv),
    ("internal edges = raised-valley excess", "edgint",
     lambda d: d.sumOneValleys - d.oneValleys),
)


def suite_table1(checks: list, max_size: int) -> None:
    """Statistic transport along the staircase word map, two columns and up.

    The single-cell polyomino corresponds to the empty word, where the row,
    semiperimeter, and area identities read 0 = 1; it is excluded by design.
    """
    bad = {label: [] for label, _, _ in TABLE1_IDENTITIES}
    total = 0
    for n in range(2, max_size + 1):
        bound = FamilyBound("stanley", "columns", n)
        for p in enumerate_family(bound):
            total += 1
            ps = objects.stanley_stats(p)
            ds = objects.dyck_stats(bijections.phi(p))
            for label, attr, rhs in TABLE1_IDENTITIES:
                if getattr(ps, attr) != rhs(ds):
                    bad[label].append(p.rows)
    for label, _, _ in TABLE1_IDENTITIES:
        _check(checks, label,
               f"0 mismatches over {total} polyominoes",
               f"{len(bad[label])} mismatches over {total} polyominoes")


# -- bijections --------------------------------------------------------------------

def _sweep(sources, sizes, there, ok, key=None) -> tuple[int, list]:
    """Run each object x of sources(n), for each n in sizes, through there.
    Returns how many x fail ok(n, x, there(x)) and, per size, the number of
    objects swept with the set of key(image), or None when key is None."""
    bad, swept = 0, []
    for n in sizes:
        total, images = 0, set() if key else None
        for x in sources(n):
            y = there(x)
            total += 1
            if not ok(n, x, y):
                bad += 1
            if key:
                images.add(key(y))
        swept.append((total, images))
    return bad, swept


def _family(family: str, measure: str):
    """The sources of a sweep over the family's objects of measure n."""
    return lambda n: enumerate_family(FamilyBound(family, measure, n))


def _round_trips(checks: list, name: str, family: str, measure: str, sizes,
                 there, back) -> None:
    """Check that back(there(x)) gives back each object x of the sizes."""
    bad, swept = _sweep(_family(family, measure), sizes, there,
                        lambda n, x, y: back(y) == x)
    total = sum(t for t, _ in swept)
    _check(checks, name, f"{total} round-trips", f"{total - bad} round-trips")


def _phi_checks(checks: list, max_size: int) -> None:
    bad, swept = _sweep(
        _family("stanley", "columns"), range(1, max_size + 1), bijections.phi,
        lambda n, p, d: (len(d.word) == 2 * (n - 1)
                         and bijections.phi_inv(d).rows == p.rows),
        attrgetter("word"))
    total = sum(t for t, _ in swept)
    _check(checks, "staircase word map round-trips from polyominoes",
           f"{total} round-trips", f"{total - bad} round-trips")
    _check(checks, "staircase word map is injective on polyominoes",
           total, len(set().union(*(words for _, words in swept))))
    _round_trips(checks, "staircase word map round-trips from words", "dyck",
                 "semilength", range(max_size), bijections.phi_inv,
                 bijections.phi)


def _steps_on_axis(word: str) -> int:
    h = 0
    n = 0
    for c in word:
        h += (c == "U") - (c == "D")
        if h == 0:
            n += 1
    return n


def chi_prime_sources(size: int):
    """chi-prime's sources, the triple-run-free Dyck words of the given
    semilength.  The walk emits valid words only, so they are wrapped
    unvalidated."""
    return map(objects.DyckPath, enumeration._capped(
        enumeration._gen_dyck(size, 2),
        f"triple-free Dyck words of semilength {size}"))


def preimages(size: int) -> dict[tuple, list]:
    """Every chi-prime source of the given semilength, grouped by the rows of
    its image: chi-prime is the one map with no inverse."""
    groups: dict[tuple, list] = {}
    for d in chi_prime_sources(size):
        groups.setdefault(bijections.chi_prime(d).rows, []).append(d)
    return groups


def _scan_sizes(forward, sources, offset: int, max_size: int,
                first_row) -> tuple[int, list]:
    """Run sources(m), for each m = 0 .. max_size, through forward, whose
    images should have semiperimeter m + offset.  Returns how many images
    miss that semiperimeter or first_row(word), and per size (sources,
    distinct images, polyominoes of that semiperimeter)."""
    sper = objects.STATISTICS[("stanley", "sper")]
    first = objects.STATISTICS[("stanley", "first")]
    bad, swept = _sweep(
        sources, range(max_size + 1), forward,
        lambda m, s, p: (sper(p.rows) == m + offset
                         and first(p.rows) == first_row(s.word)),
        attrgetter("rows"))
    return bad, [(total, len(images),
                  count(FamilyBound("stanley", "semiperimeter", m + offset)))
                 for m, (total, images) in enumerate(swept)]


def _chi_checks(checks: list, max_size: int) -> None:
    bad, sizes = _scan_sizes(
        bijections.chi, _family("peaklessMotzkin", "steps"), 2, max_size,
        lambda w: _steps_on_axis(w) + 1)
    _check(checks, "flat-step map carries steps to semiperimeter and "
           "axis landings to the first row",
           "0 mismatches", f"{bad} mismatches")
    _check(checks, "flat-step map is bijective at each size",
           "distinct images, counts equal", next(
               (f"steps {m}: {total} paths, {images} images, "
                f"{want} polyominoes"
                for m, (total, images, want) in enumerate(sizes)
                if images != total or total != want),
               "distinct images, counts equal"))


def _chi_prime_checks(checks: list, max_size: int) -> None:
    hills = objects.STATISTICS[("dyck", "hills")]
    bad, sizes = _scan_sizes(bijections.chi_prime, chi_prime_sources, 3,
                             max_size, lambda w: hills(w) + 2)
    _check(checks, "triple-run-free map carries semilength to semiperimeter "
           "and hills to the first row",
           "0 mismatches", f"{bad} mismatches")
    # The recursion folds u B UDD G to (BG, hills(G)); hill-free return blocks
    # of G leave no trace, so distinct splits can collide from semilength 5 on.
    _check(checks, "triple-run-free map is injective at each source size",
           "distinct images at every size", next(
               (f"semilength {m}: {total} words, {images} distinct images"
                for m, (total, images, _) in enumerate(sizes)
                if images != total),
               "distinct images at every size"))
    _check(checks, "triple-run-free map image counts match semiperimeter "
           "counts", "image counts equal at every size", next(
               (f"semilength {m}: {images} images, {want} polyominoes"
                for m, (_, images, want) in enumerate(sizes)
                if images != want),
               "image counts equal at every size"))


def _f_checks(checks: list, max_size: int) -> None:
    col = objects.STATISTICS[("stanley", "col")]
    area = objects.STATISTICS[("stanley", "area")]
    coins_e = objects.STATISTICS[("fountain", "e")]
    coins_o = objects.STATISTICS[("fountain", "o")]
    bad, swept = _sweep(
        _family("fountain", "diagonals"), range(1, max_size + 1),
        bijections.f_map, lambda m, c, p: (
            col(p.rows) == m + 1
            and area(p.rows) == 2 * coins_e(c.diagonals) - coins_o(c.diagonals)
            and bijections.f_inv(p).diagonals == c.diagonals))
    total = sum(t for t, _ in swept)
    _check(checks, "coin diagonal map round-trips with the stated column "
           "and area marks", f"{total} clean round-trips",
           f"{total - bad} clean round-trips")
    _round_trips(checks, "coin diagonal map round-trips from polyominoes",
                 "stanley", "columns", range(2, max_size + 2), bijections.f_inv,
                 bijections.f_map)


def _h_psi_checks(checks: list, max_size: int) -> None:
    areas = range(1, max_size + 1)
    sump_nbp, e_o = attrgetter("sump", "nbp"), attrgetter("e", "o")
    bad_h, swept_h = _sweep(
        _family("parallelogram", "area"), areas, bijections.h_map,
        lambda n, q, d: sump_nbp(objects.dyck_stats(d)) == (n, len(q.columns)),
        attrgetter("word"))
    bad_psi, swept_psi = _sweep(
        _family("parallelogram", "area"), areas, bijections.psi,
        lambda n, q, c: (e_o(objects.fountain_stats(c))
                         == (n, n - len(q.columns))), attrgetter("diagonals"))
    coins_o = objects.STATISTICS[("fountain", "o")]
    classes = [count_grouped(FamilyBound("fountain", "evenCoins", n), "o")
               for n in areas]
    _check(checks, "boundary word map sends area to peak height sum and "
           "columns to peaks", "0 mismatches", f"{bad_h} mismatches")
    _check(checks, "boundary word map is injective per area", True,
           all(len(words) == total for total, words in swept_h))
    _check(checks, "composed fountain map lands on the stated coin counts",
           "0 mismatches", f"{bad_psi} mismatches")
    # once the images are distinct, their coin classes are every image's
    _check(checks, "composed fountain map is bijective onto coin-count "
           "classes", "classes match at every area", next(
               (f"area {n}: class counts differ"
                for n, (total, images), want in zip(areas, swept_psi, classes)
                if len(images) != total
                or Counter(map(coins_o, images)) != want),
               "classes match at every area"))


def _fountain_brute_checks(checks: list) -> None:
    # independent physics check: every coin above the base rests on two
    # adjacent coins, tested on each diagonal composition with <= 18 coins as
    # a depth-first walk makes it; an accepted fountain must also give back
    # its diagonals and the levels the walk carried.  comp + (h,) has the
    # levels of comp + (h - 1,) plus the new diagonal's bit on level h - 1 (a
    # new top level past the height), so a node's list is updated in place.
    # Compositions are tuples of positive ints, so the walk asks only the
    # diagonal inequalities, which return a fault as a plain record: the
    # 247,073 rejected compositions cost no error object and no message.
    # make_fountain applies the full rule to the 15,070 they accept.
    limit = 18
    fault, make = objects.diagonal_fault, objects.make_fountain
    support_ok = objects.levels_support_ok
    diagonals, levels_of = objects.diagonals_from_levels, objects.fountain_levels
    bad = total = 0
    stack = [((), 0, [])]
    while stack:
        comp, coins, levels = stack.pop()
        bit = 1 << len(comp) + 1
        for h in range(1, limit - coins + 1):
            if h > len(levels):
                levels.append(bit)
            else:
                levels[h - 1] |= bit
            child = comp + (h,)
            total += 1
            physical = support_ok(levels)
            if fault(child) is not None:
                bad += physical
            else:
                fountain = make(child)
                if (not physical or diagonals(levels) != child
                        or levels_of(fountain) != levels):
                    bad += 1
            if coins + h < limit:
                stack.append((child, coins + h, levels[:]))
    _check(checks, "diagonal inequalities agree with coin-stacking physics "
           f"on all compositions of at most {limit}",
           f"0 disagreements over {total} compositions",
           f"{bad} disagreements over {total} compositions")


def suite_bijections(checks: list, max_size: int) -> None:
    _phi_checks(checks, max_size)
    _chi_checks(checks, max_size)
    _chi_prime_checks(checks, max_size)
    _f_checks(checks, max_size)
    _h_psi_checks(checks, max_size)
    _fountain_brute_checks(checks)


# -- five-variable series ------------------------------------------------------------

def suite_thm_full(checks: list, max_size: int) -> None:
    series = _check_built(checks, "closed and iterated forms agree with no "
                          "stray negative exponents", "agreement",
                          lambda: catalog.gf_full(max_size))
    if series is None:
        return

    _check_dict(checks, "series terms equal brute-force statistics "
                f"through {max_size} columns", full_tally(max_size),
                series.terms)

    ref_limit = min(5, max_size)
    _check_dict(checks, f"printed expansion through {ref_limit} columns",
                upto(REFERENCE_FULL, 0, ref_limit),
                upto(series.terms, 0, ref_limit))


# -- columns -----------------------------------------------------------------------

def suite_columns(checks: list, max_size: int) -> None:
    series, _ = catalog.gf_columns(max_size)

    ref_limit = min(7, max_size)
    _check_dict(checks, f"printed expansion through {ref_limit} columns",
                upto(REFERENCE_COLUMNS, 0, ref_limit),
                upto(series.terms, 0, ref_limit))

    formula_bad: list[str] = []
    enum_bad: list[str] = []
    catalan_bad: list[str] = []
    edg_bad: list[str] = []
    pt_bad: list[str] = []
    fields = objects.stanley_fields
    for n in range(1, max_size + 1):
        by_first: dict[int, int] = defaultdict(int)
        edg_free = 0
        pt_free = 0
        for rows in iter_raw(FamilyBound("stanley", "columns", n)):
            s = fields(rows)
            by_first[s.first] += 1
            edg_free += s.edgint == 0
            pt_free += s.point == 0
        for k in range(1, n + 1):
            enum_c = by_first.get(k, 0)
            if series.coeff({"x": n, "u": k}) != enum_c:
                enum_bad.append(f"({n},{k})")
            if n >= 2:
                if catalog.coeff_columns(n, k) != enum_c:
                    formula_bad.append(f"({n},{k})")
        if sum(k * c for k, c in by_first.items()) != catalog.catalan(n):
            catalan_bad.append(str(n))
        if n >= 2 and edg_free != catalog.fibonacci(2 * n - 3):
            edg_bad.append(str(n))
        if n >= 2 and pt_free != 2 ** (n - 2):
            pt_bad.append(str(n))
    _check_all_equal(checks, "series coefficients equal first-row counts "
                     f"through {max_size} columns", enum_bad)
    _check_all_equal(checks, "closed coefficient formula equals first-row "
                     "counts", formula_bad)
    _check_all_equal(checks, "total first-row cells by columns are the "
                     "Catalan numbers", catalan_bad, "off at n = ")
    _check_all_equal(checks, "polyominoes with no internal edge are counted "
                     "by odd-indexed Fibonacci numbers", edg_bad, "off at n = ")
    _check_all_equal(checks, "polyominoes with no interior point are counted "
                     "by powers of two", pt_bad, "off at n = ")
    _check_built(checks, "corollary record identities", "consistent",
                 lambda: catalog.gf_columns_corollaries(max_size))


# -- semiperimeter -----------------------------------------------------------------

def suite_semiperimeter(checks: list, max_size: int) -> None:
    order = max_size + 2
    series, g1 = catalog.gf_semiperimeter(order)

    _check_all_equal(checks, "semiperimeter counts equal flat-step path "
                     f"counts through {order}", count_mismatches(
                         g1, "peaklessMotzkin", "steps", range(2, order + 1),
                         2), "off at n = ")

    ref_limit = min(8, order)
    _check_dict(checks, f"printed expansion through semiperimeter {ref_limit}",
                upto(REFERENCE_SEMIPERIMETER, 0, ref_limit),
                upto(series.terms, 0, ref_limit))

    formula_bad: list[str] = []
    for n in range(2, order + 1):
        for k in range(1, n):
            if catalog.coeff_semiperimeter(n, k) != series.coeff(
                    {"x": n, "u": k}):
                formula_bad.append(f"({n},{k})")
    _check_all_equal(checks, "double-sum coefficient formula matches the "
                     "series", formula_bad)

    enum_bad: list[str] = []
    edg_expected: list[int] = []
    edg_actual: list[int] = []
    for n in range(2, max_size + 1):
        by_first = count_grouped(FamilyBound("stanley", "semiperimeter", n),
                                 "first")
        for k in range(1, n):
            if by_first.get(k, 0) != catalog.coeff_semiperimeter(n, k):
                enum_bad.append(f"({n},{k})")
        edg_expected.append(catalog.fibonacci(n - 1))
        edg_actual.append(edge_free_count(n))
    _check_all_equal(checks, "coefficient formula equals first-row counts by "
                     f"semiperimeter through {max_size}", enum_bad)
    # The claimed Fibonacci count for polyominoes with no internal edge does
    # not hold: the matching statistic-free count by semiperimeter starts
    # 1, 1, 1, 2, 4, 7, 14, 26 while the series insists on 1, 1, 2, 3, 5, ...
    _check(checks, "polyominoes with no internal edge by semiperimeter "
           "are counted by Fibonacci numbers", edg_expected, edg_actual)

    _check_built(checks, "first-row total is the square of the count series",
                 "consistent",
                 lambda: catalog.gf_semiperimeter_corollaries(order))


# -- area --------------------------------------------------------------------------

def suite_area(checks: list, max_size: int) -> None:
    series = catalog.gf_area(max_size)

    _check_all_equal(checks, "area series equals brute-force counts through "
                     f"{max_size}", count_mismatches(
                         series, "stanley", "area", range(1, max_size + 1)),
                     "off at n = ")

    ref_limit = min(11, max_size)
    _check(checks, f"printed expansion through area {ref_limit}",
           REFERENCE_AREA[:ref_limit],
           [series.coeff({"z": n}) for n in range(1, ref_limit + 1)])

    _check_built(checks, "alternating-sum ratio agrees with the collapsed "
                 "continued fraction", "agreement",
                 lambda: catalog.gf_continued_fractions(max_size))


# -- continued fraction --------------------------------------------------------------

def suite_cf(checks: list, max_size: int) -> None:
    rec = _try_build(checks, "continued fraction record", "built",
                     lambda: catalog.gf_continued_fractions(max_size))
    if rec is None:
        return
    a = rec["a"]

    # full trivariate slice vs brute force
    counted = cf_tally(max_size)
    full_limit = min(6, max_size)
    _check_dict(checks, "three-statistic terms equal brute-force counts "
                f"through peak sum {full_limit}", upto(counted, 1, full_limit),
                upto(a.terms, 1, full_limit))

    for deg in sorted(REFERENCE_CF):
        if deg > max_size:
            continue
        got_deg = {(e[0], e[2]): c for e, c in a.terms.items() if e[1] == deg}
        _check_dict(checks, f"printed slice at peak sum {deg}",
                    REFERENCE_CF[deg], got_deg)

    by_sump: dict[int, int] = defaultdict(int)
    for (_, sump, _), c in counted.items():
        by_sump[sump] += c
    _check(checks, f"peak-sum counts match the collapse through {max_size}",
           {n: by_sump.get(n, 0) for n in range(1, max_size + 1)},
           {n: rec["a-1q1"].coeff({"q": n}) for n in range(1, max_size + 1)})

    nine = min(9, max_size)
    _check(checks, "printed peak-sum expansion", REFERENCE_A_1Q1[:nine],
           [rec["a-1q1"].coeff({"q": n}) for n in range(1, nine + 1)])
    _check(checks, "printed peak-and-valley-sum expansion",
           REFERENCE_A_1QQ[:nine],
           [rec["a-1qq"].coeff({"q": n}) for n in range(1, nine + 1)])

    _check(checks, "valley-free slice follows the Fibonacci numbers",
           True, bool(rec["fibonacci-identity"]))
    if max_size >= 6:
        _check(checks, "valley-free slice sixth coefficient", 5,
               rec["a-pp0"].coeff({"p": 6}))

    class_limit = min(6, max_size)
    class_counts: dict[int, int] = defaultdict(int)
    for n in range(1, 2 * class_limit + 1):
        # every polyomino in the stream has area n
        for row, c in count_grouped(FamilyBound("stanley", "area", n),
                                    "row").items():
            if 1 <= n - row <= class_limit:
                class_counts[n - row] += c
    _check(checks, "peak-sum collapse counts polyominoes by cells above "
           f"the row count through {class_limit}",
           {m: rec["a-1q1"].coeff({"q": m}) for m in range(1, class_limit + 1)},
           dict(sorted(class_counts.items())))


# -- area-and-rows refinement ----------------------------------------------------------

def suite_corollary_2_13(checks: list, max_size: int) -> None:
    """Triple count identity: polyominoes by area and rows, staircase
    parallelograms by area and columns, fountains by even and odd coins.

    The single-cell case (area 1, one row) has no counterpart with zero
    cells on the other side, so rows enter only where area exceeds rows.
    """
    bad: list[str] = []
    triples = 0
    # the other two sides only ever need sizes 1 .. max_size - 1
    para_by_area = {
        a: count_grouped(FamilyBound("parallelogram", "area", a), "colCount")
        for a in range(1, max_size)}
    fountain_by_evens = {
        a: count_grouped(FamilyBound("fountain", "evenCoins", a), "o")
        for a in range(1, max_size)}
    for n in range(2, max_size + 1):
        stanley = count_grouped(FamilyBound("stanley", "area", n), "row")
        for r in range(1, n):
            para = para_by_area[n - r].get(r, 0)
            fountain = fountain_by_evens[n - r].get(n - 2 * r, 0)
            triples += 1
            if not (stanley.get(r, 0) == para == fountain):
                bad.append(f"(area {n}, rows {r}): "
                           f"{stanley.get(r, 0)}/{para}/{fountain}")
    _check(checks, f"triple counts agree on {triples} (area, rows) classes",
           "all equal",
           "all equal" if not bad else "; ".join(bad[:5]))


# -- dispatch ----------------------------------------------------------------------

SUITES = {
    "table1": suite_table1,
    "bijections": suite_bijections,
    "thm-full": suite_thm_full,
    "columns": suite_columns,
    "semiperimeter": suite_semiperimeter,
    "area": suite_area,
    "cf": suite_cf,
    "corollary-2-13": suite_corollary_2_13,
}


def run_suite(name: str, max_size: int | None = None) -> dict:
    """Run one suite, or every suite for "all", at max_size or else at each
    suite's default size."""
    if name != "all" and name not in SUITES:
        raise OutOfRange(f"unknown suite {name!r}")
    if max_size is not None and max_size < MIN_SUITE_SIZE:
        raise OutOfRange(
            f"suites need a size >= {MIN_SUITE_SIZE}, got {max_size}")

    def run(sub: str) -> list:
        checks: list = []
        SUITES[sub](checks, SUITE_DEFAULT_SIZE[sub] if max_size is None
                    else max_size)
        return checks

    if name != "all":
        return {"suite": name, "checks": run(name)}
    return {"suite": "all", "checks": [
        {**c, "name": f"{sub}: {c['name']}"}
        for sub in SUITES for c in run(sub)]}


def report_failed(report: dict) -> bool:
    return any(c["status"] != "pass" for c in report["checks"])
