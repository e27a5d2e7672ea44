"""Check GrayEngine against the lazy tree walker on the long families.

Every m in {1,2,3}^7 and every m in {1,2}^n for n = 9 and 10, each with
every k: the families the test suite is too short to sweep.  Run from
the repository root:

    PYTHONPATH=src python tests/sweep_engine.py

It prints the number of specs checked and exits 0, or names the first
spec whose order differs (or whose run raises, with the traceback) and
exits 1.
"""

import sys
from itertools import product

from msetgray import MultisetSpec

from test_engine_property import engine_matches_walker

FAMILIES = [((1, 2, 3), 7), ((1, 2), 9), ((1, 2), 10)]


def main() -> int:
    specs = 0
    for values, n in FAMILIES:
        for m in product(values, repeat=n):
            for k in range(sum(m) + 1):
                spec = MultisetSpec(m=m, k=k)
                try:
                    same = engine_matches_walker(spec)
                except Exception:
                    # The traceback follows; exit status 1.
                    print(f"m={m} k={k}: the engine raised")
                    raise
                if not same:
                    print(f"m={m} k={k}: the engine's order differs from the walker's")
                    return 1
                specs += 1
    print(f"{specs} specs: the engine matches the walker on each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
