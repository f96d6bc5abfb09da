"""Exact enumeration, bijections, and generating functions for Stanley
polyominoes and the lattice paths, parallelogram polyominoes, and coin
fountains they correspond to.
"""

from .errors import StanlabError
from .objects import (
    CoinFountain,
    DyckPath,
    MotzkinPath,
    ParallelogramPolyomino,
    StanleyPolyomino,
    dyck_stats,
    fountain_stats,
    make_dyck,
    make_fountain,
    make_motzkin,
    make_parallelogram,
    make_stanley,
    parallelogram_stats,
    stanley_stats,
)
from .bijections import (
    chi,
    chi_prime,
    f_inv,
    f_map,
    h_map,
    phi,
    phi_inv,
    preimages,
    psi,
    table_inverse,
)
from .enumeration import FamilyBound, count_grouped, enumerate_family
from .catalog import (
    coeff_columns,
    coeff_semiperimeter,
    gf_area,
    gf_columns,
    gf_continued_fractions,
    gf_full,
    gf_semiperimeter,
)
from .verification import run_suite

__version__ = "0.1.0"

__all__ = [
    "StanlabError",
    "StanleyPolyomino", "DyckPath", "MotzkinPath", "CoinFountain",
    "ParallelogramPolyomino",
    "make_stanley", "make_dyck", "make_motzkin", "make_fountain",
    "make_parallelogram",
    "stanley_stats", "dyck_stats", "fountain_stats", "parallelogram_stats",
    "phi", "phi_inv", "chi", "chi_prime", "f_map", "f_inv", "h_map", "psi",
    "preimages", "table_inverse",
    "FamilyBound", "enumerate_family", "count_grouped",
    "gf_columns", "gf_semiperimeter", "gf_area", "gf_full",
    "gf_continued_fractions", "coeff_columns", "coeff_semiperimeter",
    "run_suite",
    "__version__",
]
