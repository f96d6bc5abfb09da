"""Search the triple-run-free Dyck map for collisions, size by size.

The map sends Dyck words avoiding UUU and DDD with semilength m to
polyominoes of semiperimeter m + 3.  Source and target classes are
equinumerous, so the map is bijective exactly when it is injective.
This script counts distinct images per size and prints the first few
colliding pairs, which start appearing at semilength 5.
"""

from __future__ import annotations

import argparse
import sys

from stanlab.bijections import preimages


def scan(max_semilength: int, pairs_to_show: int) -> int:
    total_collisions = 0
    for m in range(max_semilength + 1):
        images = preimages("chi_prime", m)
        sources = sum(len(ds) for ds in images.values())
        merged = [(rows, [d.word for d in ds])
                  for rows, ds in images.items() if len(ds) > 1]
        total_collisions += len(merged)
        print(f"semilength {m}: {sources} sources, {len(images)} images, "
              f"{len(merged)} merged targets")
        for rows, ws in sorted(merged)[:pairs_to_show]:
            print(f"    {list(rows)} <- {', '.join(sorted(ws))}")
    return total_collisions


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-semilength", type=_count, default=8)
    parser.add_argument("--pairs", type=_count, default=3,
                        help="colliding pairs to print per size")
    args = parser.parse_args(argv)
    collisions = scan(args.max_semilength, args.pairs)
    print("map is injective on the scanned range" if collisions == 0
          else f"{collisions} merged targets in total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
