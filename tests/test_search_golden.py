"""Search goldens: the orderly search's exact output for orders 17 to 31.

The CLI caps enumeration at order 16, so the cache-file goldens stop there.
`tests/golden/search/n=<n>.json` holds the list of canonical tables that
`_search_groups(n)` returns, in the order it returns them, one table per
line.  The class counts are checked against OEIS A000001 as well.

Re-record only after a deliberate change to the search's output:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import json
from pathlib import Path

import pytest

from ordersum import pool
from ordersum.enumeration import A000001, _search_groups

GOLDEN = Path(__file__).resolve().parent / "golden" / "search"
# OEIS A000001, the number of groups of order n.
CLASS_COUNTS = {17: 1, 18: 5, 19: 1, 20: 5, 21: 2, 22: 2, 23: 1, 24: 15,
                25: 2, 26: 2, 27: 5, 28: 4, 29: 1, 30: 4, 31: 1}


def _dump(tables) -> str:
    return "[\n" + ",\n".join(json.dumps([list(r) for r in t]) for t in tables) + "\n]\n"


@pytest.fixture(scope="module")
def searched() -> dict:
    """Each order's tables, searched once for the module on every CPU."""
    orders = sorted(CLASS_COUNTS)
    return dict(zip(orders, pool.run(orders, _search_groups, orders)))


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_search_matches_golden(searched, n):
    tables = searched[n]
    assert len(tables) == CLASS_COUNTS[n] == A000001[n]
    assert _dump(tables) == (GOLDEN / f"n={n}.json").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for n in CLASS_COUNTS:
        (GOLDEN / f"n={n}.json").write_text(_dump(_search_groups(n)))
