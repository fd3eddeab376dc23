"""The paper's two search claims on a corpus of numerical semigroup rings.

Prime search over F_2 at order c + 1 (c the conductor), margin 2, driven
through the CLI.  The paper claims:

* on rings whose ideals need at most two generators, the identity is the
  only prime operation: ``<2,3>``, ``<2,5>`` and ``<2,7>`` (13, 136 and
  11,227 nodes);
* ``K[[t^3,t^4,t^5]]`` has a prime operation other than the identity.

Each ring is pinned by its operation count and the SHA-256 of its
``operations`` JSON.  ``<3,4>`` gives 8 operations (1,247 nodes) and
``<3,4,5>`` 320 (42,535 nodes).  These count the tables on the window that
extend to the window enlarged by the margin; a window this small still
holds boundary artifacts, so they are not counts of prime operations on
the ring.

The other six rings with Frobenius number at most 5 are left out, each
with its outcome at a 200,000-node budget:

* ``<4,5,6,7>``: budget exhausted after 22 s;
* ``<3,5,7>``: budget exhausted after 5 s;
* ``<5,6,7,8,9>``: budget exhausted after 117 s;
* ``<3,7,8>``: budget exhausted after 22 s;
* ``<4,6,7,9>``: budget exhausted after 61 s;
* ``<6,7,8,9,10,11>``: its window at order 7 holds 4,904 elements and
  12,027,060 pairs, more than the budget, so the search refuses it at once
  with ``BudgetExceeded`` before it builds any table.

The margin sweep below pins the window counts of ``<2,5>``, ``<3,4>`` and
``<3,4,5>`` at margins 2 to 6, next to each ring's multiplicity.

On the DVR ``<1>`` the semiprime search at order N returns exactly the
restrictions of the collapse maps f_m and g_m, 0 <= m <= N: 2N + 2 tables,
f_N being the identity on the window.
"""

import hashlib
import json

import pytest

from semiprime_lab.cli import main
from semiprime_lab.closures import builtin, ideal_window
from semiprime_lab.ideals import Ring
from semiprime_lab.search import SEMIPRIME, search_prime
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

IDENTITY_DIGEST = "e24103c2dc1edec1c2cbe06af0de1a2eeae20bce76df8304b9b326fbd7db52db"

CORPUS = [
    ((2, 3), 1, IDENTITY_DIGEST),
    ((2, 5), 1, IDENTITY_DIGEST),
    ((2, 7), 1, IDENTITY_DIGEST),
    ((3, 4), 8, "d0b333d2869ac1f6340d1e8fbcab629b02155b18545114c048608728f4338fdf"),
    ((3, 4, 5), 320, "a217ea6e6a9431503d13f90bb69937a5c4bde3e926db144c50a434918ca7c113"),
]


@pytest.mark.parametrize("gens, count, digest", CORPUS,
                         ids=["_".join(map(str, gens)) for gens, _, _ in CORPUS])
def test_prime_search_at_order_c_plus_1(capsys, gens, count, digest):
    order = from_generators(list(gens)).conductor + 1
    code = main(["search", "--gens", ",".join(map(str, gens)), "--p", "2",
                 "--max-order", str(order), "--margin", "2", "--json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    payload = json.loads(out)
    operations = payload["operations"]
    assert payload["operation_count"] == len(operations) == count
    assert hashlib.sha256(json.dumps(operations, sort_keys=True).encode()).hexdigest() == digest
    assert [op["is_identity"] for op in operations].count(True) == 1


# (generators, multiplicity, order, operation count at margins 2 to 6)
MARGIN_SWEEP = [
    ((2, 5), 2, 5, [1, 1, 1, 1, 1]),
    ((3, 4), 3, 7, [8, 1, 1, 1, 1]),
    ((3, 4, 5), 3, 4, [320, 3, 3, 3, 3]),
]


@pytest.mark.parametrize("gens, multiplicity, order, counts", MARGIN_SWEEP,
                         ids=["_".join(map(str, gens)) for gens, _, _, _ in MARGIN_SWEEP])
def test_window_counts_never_rise_with_the_margin(gens, multiplicity, order, counts):
    # A table that extends to a larger window also extends to a smaller one,
    # so the count at margin M + 1 is at most the count at margin M.  These
    # are window counts, not counts of prime operations on the ring.
    ring = Ring(from_generators(list(gens)), PrimeField(2))
    assert ring.semigroup.multiplicity == multiplicity
    got = [len(search_prime(ring, order, margin=margin).operations) for margin in range(2, 7)]
    assert got == counts
    assert all(a >= b for a, b in zip(got, got[1:]))


# (order N, search nodes); the node count is the same at every margin
DVR_SEMIPRIME = [(3, 31), (4, 51), (5, 78), (6, 113), (7, 157)]


@pytest.mark.parametrize("order, nodes", DVR_SEMIPRIME, ids=[f"N{n}" for n, _ in DVR_SEMIPRIME])
@pytest.mark.parametrize("margin", [0, 2, 4])
def test_dvr_semiprime_operations_are_the_collapse_maps(order, nodes, margin):
    ring = Ring(from_generators([1]), PrimeField(2))
    elements = ideal_window(ring, order).elements
    expected = {tuple(builtin(name, ring, m)(I) for I in elements)
                for name in ("dvr_f_m", "dvr_g_m") for m in range(order + 1)}
    result = search_prime(ring, order, mode=SEMIPRIME, margin=margin)
    got = [tuple(op.table[I] for I in elements) for op in result.operations]
    assert len(got) == len(set(got)) == len(expected) == 2 * order + 2
    assert set(got) == expected
    assert result.stats["nodes"] == nodes
