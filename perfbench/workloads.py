"""The four benchmark workloads: their CLI commands and their inputs.

A workload is a list of commands.  Each command is an argv for
``stanlab.cli.main`` plus, for ``map``, the JSON lines it reads.  Only
``map-stream`` depends on the seed; the other three run fixed commands, so
their stdout bytes can be compared with digests frozen in ``digests.json``.

``SIZES`` holds two scales: ``full`` is what the benchmark measures and
``tiny`` is what ``smoke.py`` runs to check the benchmark itself.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache

WORKLOADS = ("count-grouped", "verify-suites", "series-build", "map-stream")

# (family, measure, statistic) for every supported pair; the statistic is
# one the family's stats record carries as an integer.
GROUPED_PAIRS = (
    ("stanley", "columns", "row"),
    ("stanley", "semiperimeter", "row"),
    ("stanley", "area", "row"),
    ("dyck", "semilength", "nbp"),
    ("peaklessMotzkin", "steps", "steps"),
    ("fountain", "diagonals", "o"),
    ("fountain", "evenCoins", "o"),
    ("parallelogram", "area", "colCount"),
)

SUITES = ("table1", "bijections", "thm-full", "columns", "semiperimeter",
          "area", "cf", "corollary-2-13")

GFS = ("full", "columns", "semiperimeter", "area", "cf-a")

# Each map bijection with the family it reads.
MAP_BIJECTIONS = (
    ("phi", "stanley"),
    ("phi-inv", "dyck"),
    ("chi", "peaklessMotzkin"),
    ("chi-prime", "dyckTripleFree"),
    ("f", "fountain"),
    ("f-inv", "stanley"),
    ("h", "parallelogram"),
    ("psi", "parallelogram"),
)

SIZES = {
    "full": {
        # Each bound takes roughly 0.3-0.8 s on a 2-vCPU box; evenCoins 14
        # builds its whole stream in memory, which sets peak_rss_mb.
        "count": {
            "stanley/columns": 11,
            "stanley/semiperimeter": 16,
            "stanley/area": 19,
            "dyck/semilength": 10,
            "peaklessMotzkin/steps": 16,
            "fountain/diagonals": 10,
            "fountain/evenCoins": 14,
            "parallelogram/area": 13,
        },
        # None keeps the suite's default size; bijections at its default 12
        # takes minutes, so it runs smaller.
        "verify": {"bijections": 8},
        "series": {"full": 8, "columns": 50, "semiperimeter": 50,
                   "area": 40, "cf-a": 20},
        "map_objects": 500,
        "map_enumerate": ("stanley", "columns", 10),
        "stanley_columns": (30, 60),
        "dyck_semilength": (30, 60),
        "motzkin_steps": (40, 80),
        "fountain_diagonals": (30, 50),
        "parallelogram_columns": (20, 40),
    },
    "tiny": {
        "count": {f"{f}/{m}": 5 for f, m, _ in GROUPED_PAIRS},
        "verify": {name: 5 for name in SUITES},
        "series": {"full": 3, "columns": 6, "semiperimeter": 6, "area": 6,
                   "cf-a": 5},
        "map_objects": 3,
        "map_enumerate": ("stanley", "columns", 4),
        "stanley_columns": (4, 8),
        "dyck_semilength": (4, 8),
        "motzkin_steps": (4, 8),
        "fountain_diagonals": (4, 8),
        "parallelogram_columns": (3, 6),
    },
}


def commands(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The workload's commands in order: {"argv": [...], "input": [lines]}."""
    size = SIZES[scale]
    if workload == "count-grouped":
        return [{"argv": ["enumerate", "--family", f, "--measure", m,
                          "--value", str(size["count"][f"{f}/{m}"]),
                          "--group-by", stat]}
                for f, m, stat in GROUPED_PAIRS]
    if workload == "verify-suites":
        out = []
        for name in SUITES:
            argv = ["verify", "--suite", name]
            if size["verify"].get(name) is not None:
                argv += ["--max-size", str(size["verify"][name])]
            out.append({"argv": argv})
        return out
    if workload == "series-build":
        return [{"argv": ["series", "--gf", gf, "--order",
                          str(size["series"][gf])]} for gf in GFS]
    if workload == "map-stream":
        rng = random.Random(seed)
        out = []
        for bijection, family in MAP_BIJECTIONS:
            objs = [_random_object(family, rng, size)
                    for _ in range(size["map_objects"])]
            out.append({"argv": ["map", "--bijection", bijection],
                        "input": [json.dumps(o, separators=(",", ":"))
                                  for o in objs]})
        f, m, v = size["map_enumerate"]
        out.append({"argv": ["enumerate", "--family", f, "--measure", m,
                             "--value", str(v)]})
        return out
    raise ValueError(f"unknown workload {workload!r}")


# -- random valid objects ---------------------------------------------------------
# Paths are drawn uniformly among all words of the drawn length by weighting
# each step with the number of ways to finish; polyominoes and fountains are
# grown step by step with random but always legal choices.

def _random_object(family: str, rng: random.Random, size: dict) -> dict:
    if family == "stanley":
        return {"rows": _random_stanley(rng, rng.randint(*size["stanley_columns"]))}
    if family == "dyck":
        # half of the Dyck inputs avoid UUU and DDD, as chi-prime needs
        triple_free = rng.random() < 0.5
        n = rng.randint(*size["dyck_semilength"])
        return {"word": _random_path(rng, 2 * n, "UD", 2 if triple_free else 0)}
    if family == "dyckTripleFree":
        n = rng.randint(*size["dyck_semilength"])
        return {"word": _random_path(rng, 2 * n, "UD", 2)}
    if family == "peaklessMotzkin":
        n = rng.randint(*size["motzkin_steps"])
        return {"word": _random_path(rng, n, "UFD", 0)}
    if family == "fountain":
        return {"diagonals": _random_fountain(
            rng, rng.randint(*size["fountain_diagonals"]))}
    if family == "parallelogram":
        return {"columns": _random_parallelogram(
            rng, rng.randint(*size["parallelogram_columns"]))}
    raise ValueError(f"unknown family {family!r}")


def _random_stanley(rng: random.Random, n: int) -> list[list[int]]:
    # rows start strictly right and end strictly right of the row below and
    # share a column with it; a row of two or more cells can always be
    # followed, so only the last row may be a single cell
    first = rng.randint(2, min(n, 6)) if n >= 2 else 1
    rows = [[0, first]]
    s, e = 0, first
    while e < n:
        s2 = rng.randint(s + 1, e - 1)
        e2 = rng.randint(e + 1, min(n, e + 6))
        rows.append([s2, e2 - s2])
        s, e = s2, e2
    return rows


def _random_fountain(rng: random.Random, m: int) -> list[int]:
    # d_m = 1 and d_j <= d_{j+1} + 1, built right to left
    d = [1]
    for _ in range(m - 1):
        d.append(rng.randint(1, d[-1] + 1))
    return d[::-1]


def _random_parallelogram(rng: random.Random, c: int) -> list[list[int]]:
    b, h = 0, rng.randint(1, 5)
    cols = [[b, h]]
    for _ in range(c - 1):
        b2 = rng.randint(b, b + h - 1)
        least = b + h - b2  # the top may not go down
        h2 = rng.randint(least, least + 3)
        cols.append([b2, h2])
        b, h = b2, h2
    return cols


def _random_path(rng: random.Random, length: int, alphabet: str,
                 max_run: int) -> str:
    """Uniform word of the given length that stays at or above the axis and
    returns to it.  alphabet "UD" gives Dyck words and max_run 2 excludes
    UUU and DDD; alphabet "UFD" gives Motzkin words with no UD factor."""
    word: list[str] = []
    h = 0
    last, run = "", 0
    for pos in range(length):
        choices = []
        for c in alphabet:
            nxt = _step(c, h, last, run, alphabet, max_run)
            if nxt is None:
                continue
            w = _completions(length - pos - 1, *nxt, alphabet, max_run)
            if w:
                choices.append((c, nxt, w))
        pick = rng.randrange(sum(w for _, _, w in choices))
        for c, nxt, w in choices:
            if pick < w:
                word.append(c)
                h, last, run = nxt
                break
            pick -= w
    return "".join(word)


def _step(c: str, h: int, last: str, run: int, alphabet: str, max_run: int):
    if c == "D" and (h == 0 or (alphabet == "UFD" and last == "U")):
        return None
    run = run + 1 if c == last else 1
    if max_run and run > max_run:
        return None
    return (h + (c == "U") - (c == "D"), c, run)


@lru_cache(maxsize=None)
def _completions(rest: int, h: int, last: str, run: int, alphabet: str,
                 max_run: int) -> int:
    if h > rest:
        return 0
    if rest == 0:
        return 1
    total = 0
    for c in alphabet:
        nxt = _step(c, h, last, run, alphabet, max_run)
        if nxt is not None:
            total += _completions(rest - 1, *nxt, alphabet, max_run)
    return total
