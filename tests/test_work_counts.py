"""Work counts of three anchor commands, pinned.

Wall time on a shared machine swings by tens of percent between runs; the
number of times each layer's functions run does not.  Each anchor runs
in-process through ``cli.main``, with these functions wrapped from outside
at every place they are looked up (``closures`` imports the ideal
arithmetic under its own names, ``cli`` imports ``classify_shape``):
``rref``, ``in_rowspace``, ``_contains``, ``product``, ``ideal_sum``,
``intersect``, ``_close_under_shifts`` and ``classify_shape``, and the
window probes ``IdealSetDomain.contains`` and ``IdealSetDomain.product_in``.
A search anchor also pins ``stats["nodes"]``.

The anchors are the first members of the benchmark's ``search-tables`` and
``search-branching`` families and the ``verify`` member of its
``lattice-verify`` family.  A change that moves any count moves it on
purpose and says old -> new.
"""

from collections import Counter

import pytest

from semiprime_lab import cli, closures, ideals, linalg, search
from semiprime_lab.ideals import Ring
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

# (module or class, attribute looked up there, counter)
WRAPPED = [
    (linalg, "rref", "rref"),
    (ideals, "rref", "rref"),
    (ideals, "in_rowspace", "in_rowspace"),
    (ideals, "_contains", "_contains"),
    (ideals, "product", "product"),
    (closures, "ideal_product", "product"),
    (ideals, "ideal_sum", "ideal_sum"),
    (closures, "ideal_sum", "ideal_sum"),
    (ideals, "intersect", "intersect"),
    (closures, "ideal_intersect", "intersect"),
    (ideals, "_close_under_shifts", "_close_under_shifts"),
    (ideals, "classify_shape", "classify_shape"),
    (cli, "classify_shape", "classify_shape"),
    (closures.IdealSetDomain, "contains", "contains"),
    (closures.IdealSetDomain, "product_in", "product_in"),
]

ANCHORS = {
    "search_2_7": (
        "search --gens 2,7 --p 2 --max-order 12 --margin 4", 0,
        {"rref": 120, "in_rowspace": 552, "_contains": 325, "product": 353, "ideal_sum": 0,
         "intersect": 0, "_close_under_shifts": 0, "classify_shape": 0, "contains": 0,
         "product_in": 0, "nodes": 188},
    ),
    "search_3_4_5": (
        "search --gens 3,4,5 --p 3 --max-order 7 --margin 2", 0,
        {"rref": 571, "in_rowspace": 862, "_contains": 816, "product": 1040, "ideal_sum": 0,
         "intersect": 0, "_close_under_shifts": 65, "classify_shape": 65, "contains": 0,
         "product_in": 0, "nodes": 48755},
    ),
    "verify_integral_closure": (
        "verify --op integral_closure --gens 2,7 --p 2 --max-order 12", 0,
        {"rref": 1764, "in_rowspace": 7043, "_contains": 2501, "product": 1296,
         "ideal_sum": 2173, "intersect": 479, "_close_under_shifts": 1368,
         "classify_shape": 123, "contains": 43992, "product_in": 0},
    ),
}


def counting(counts, name, real):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("anchor", list(ANCHORS))
def test_anchor_work_counts(monkeypatch, capsys, anchor):
    argv, code, expected = ANCHORS[anchor]
    counts = Counter({name: 0 for _, _, name in WRAPPED})
    for module, attr, name in WRAPPED:
        monkeypatch.setattr(module, attr, counting(counts, name, getattr(module, attr)))
    # a maximal ideal cached by an earlier test would hide its construction
    monkeypatch.setattr(ideals, "_MAXIMAL_CACHE", {})
    results = []
    real_search = cli.search_prime

    def recording_search(*args, **kwargs):
        results.append(real_search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "search_prime", recording_search)
    assert cli.main(argv.split()) == code
    capsys.readouterr()
    if results:
        counts["nodes"] = results[0].stats["nodes"]
    assert dict(counts) == expected


def test_table_recheck_reads_the_window_tables(monkeypatch):
    """Re-checking the 96 tables of ``<3,4>/F_2`` at order 7, margin 0 probes
    no window pair and runs no ``check`` of axioms 1-5: the tables are read
    as ids against the window's containment rows and product table."""
    counts = Counter()
    rechecking = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += len(rechecking)
            return real(*args, **kwargs)
        return wrapper

    for attr in ("contains", "product_in"):
        real = getattr(closures.IdealSetDomain, attr)
        monkeypatch.setattr(closures.IdealSetDomain, attr, counted(attr, real))
    for ax in range(1, 6):
        spec = closures.AXIOMS[ax]
        monkeypatch.setitem(closures.AXIOMS, ax,
                            spec._replace(check=counted(f"check {ax}", spec.check)))
    real_check = search.check_axioms

    def recheck(*args):
        counts["tables"] += 1
        rechecking.append(True)
        try:
            return real_check(*args)
        finally:
            rechecking.pop()

    monkeypatch.setattr(search, "check_axioms", recheck)
    R34 = Ring(from_generators([3, 4]), PrimeField(2))
    assert len(search.search_prime(R34, 7, margin=0).operations) == 96
    assert dict(counts) == {"tables": 96}
