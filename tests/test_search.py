import random
import sys
import tracemalloc
from itertools import product as iproduct

import pytest

from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    IdealSetDomain,
    builtin,
    check_axioms,
    ideal_window,
)
from semiprime_lab.errors import BudgetExceeded
from semiprime_lab.ideals import (
    Ring,
    _proper,
    enumerate_ideals,
    ideal_from_generators,
    unit_ideal,
    zero_ideal,
)
from semiprime_lab.linalg import rref
from semiprime_lab.search import (
    DEFAULT_BUDGET,
    PRIME,
    SEMIPRIME,
    _as_table,
    _Searcher,
    explain_pruning,
    search_fractional_chain,
    search_prime,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

from oracles import (
    chain_closure_tables_oracle,
    check_axioms_oracle,
    table_key_oracle,
    two_pass_survivors_oracle,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
R23 = Ring(from_generators([2, 3]), F2)
R25 = Ring(from_generators([2, 5]), F2)
R27 = Ring(from_generators([2, 7]), F2)
R345 = Ring(from_generators([3, 4, 5]), F2)
RDVR = Ring(from_generators([1]), F2)


def table_signature(table):
    """(order_in, order_out) pairs with the zero ideal rendered as 'zero'."""

    def k(I):
        return "zero" if I.is_zero() else I.order

    return tuple(sorted((k(a), k(b)) for a, b in table.items()))


def expected_chain_tables(D):
    out = set()
    for m in range(D + 1):
        f = {i: min(i, m) for i in range(D + 1)}
        out.add(tuple(sorted({**f, "zero": "zero"}.items(), key=str)))
        out.add(tuple(sorted({**f, "zero": m}.items(), key=str)))
    return out


def test_semiprime_chain_d4_matches_closed_forms_and_bruteforce():
    res = search_prime(RDVR, 4, SEMIPRIME)
    got = set()
    for op in res.operations:
        flat = {}
        for a, b in op.table.items():
            ka = "zero" if a.is_zero() else a.order
            kb = "zero" if b.is_zero() else b.order
            flat[ka] = kb
        got.add(tuple(sorted(flat.items(), key=str)))
    assert got == expected_chain_tables(4)
    oracle = chain_closure_tables_oracle(4)
    assert len(res.operations) == len(oracle) == 10


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_semiprime_chain_agrees_with_bruteforce(D):
    res = search_prime(RDVR, D, SEMIPRIME)
    assert len(res.operations) == len(chain_closure_tables_oracle(D))


def test_semiprime_chain_d0_like_window():
    # the two-element domain {R, (0)} admits the identity and the collapse of 0 to R
    oracle = chain_closure_tables_oracle(0)
    assert len(oracle) == 2
    res = search_prime(RDVR, 0, SEMIPRIME)
    assert len(res.operations) == 2
    values = sorted(
        "unit" if v.is_unit() else v.kind
        for op in res.operations
        for k, v in op.table.items()
        if k.is_zero()
    )
    assert values == ["unit", "zero"]


def test_prime_mode_on_chain_is_identity_only():
    res = search_prime(RDVR, 8)
    assert [op.name for op in res.operations] == ["identity"]


def test_prime_2_5_identity_only():
    res = search_prime(R25, 8)
    assert res.is_identity_only()


def test_prime_2_5_monotone_growth():
    for mo in (8, 10):
        res = search_prime(R25, mo)
        assert res.is_identity_only(), mo


def test_prime_345_contains_identity_and_fc():
    res = search_prime(R345, 7)
    names = [op.name for op in res.operations]
    assert "identity" in names
    fc = builtin("fc_345", R345)
    assert any(
        all(fc(k) == v for k, v in op.table.items()) for op in res.operations
    ), "fc restriction missing"
    assert len(res.operations) >= 2


def test_search_results_reverify_via_axiom_checker():
    res = search_prime(R345, 7)
    dom = ideal_window(R345, 7)
    for op in res.operations:
        rep = check_axioms(op, dom, (1, 2, 3, 4, 5))
        assert rep.passed(), op.name


def test_search_deterministic():
    a = search_prime(R25, 10)
    b = search_prime(R25, 10)
    assert [op.table for op in a.operations] == [op.table for op in b.operations]
    assert a.stats.get("nodes") == b.stats.get("nodes")
    c = search_prime(RDVR, 4, SEMIPRIME)
    d = search_prime(RDVR, 4, SEMIPRIME)
    assert [op.table for op in c.operations] == [op.table for op in d.operations]


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        search_prime(R345, 7, budget=20)


def test_window_with_more_pairs_than_the_budget_is_refused_before_its_tables():
    chain = ChainDomain(3000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^search window of 6001 elements has 18009001 "
                                                 "pairs, more than the budget of 5000000 nodes$"):
            _Searcher(chain, SEMIPRIME, DEFAULT_BUDGET, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_window_with_as_many_pairs_as_the_budget_is_searched():
    # ChainDomain(1) holds 3 elements and 6 unordered pairs
    tables = _Searcher(ChainDomain(1), SEMIPRIME, 6, {}).run()
    assert tables == _Searcher(ChainDomain(1), SEMIPRIME, DEFAULT_BUDGET, {}).run()
    with pytest.raises(BudgetExceeded, match="3 elements has 6 pairs"):
        _Searcher(ChainDomain(1), SEMIPRIME, 5, {})


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="mode must be prime or semiprime, got closure"):
        search_prime(R25, 4, "closure")


def test_explain_pruning():
    res = search_prime(R25, 6)
    text = explain_pruning(res)
    assert "nodes explored" in text
    assert "prunes by cause" in text or "no assignments were rejected" in text


def test_explain_pruning_trivial_space():
    # all proper ideals of the DVR chain are principal: nothing to assign
    res = search_prime(RDVR, 4)
    text = explain_pruning(res)
    assert "nodes explored" in text


def counting_runs(monkeypatch):
    """The window sizes of the searches run from now on, in order."""
    calls = []
    real = _Searcher.run

    def counting(self):
        calls.append(len(self.domain.elements))
        return real(self)

    monkeypatch.setattr(_Searcher, "run", counting)
    return calls


def test_margin_zero_searches_its_window_once(monkeypatch):
    calls = counting_runs(monkeypatch)
    res = search_prime(R27, 12, margin=0)
    assert len(calls) == 1
    assert res.is_identity_only()
    assert res.stats["nodes"] == 188
    assert res.stats["extension_nodes"] == 0
    assert res.stats["extension_discarded"] == 0


def test_identity_only_window_is_searched_once(monkeypatch):
    # the identity extends to every window, so the margin has nothing to check
    calls = counting_runs(monkeypatch)
    res = search_prime(R27, 12, margin=4)
    assert calls == [len(ideal_window(R27, 12).elements)]
    assert res.is_identity_only()
    assert res.stats["nodes"] == 188
    assert res.stats["window_candidates"] == 1
    assert res.stats["extension_nodes"] == 0
    assert res.stats["extension_discarded"] == 0


def test_window_with_other_candidates_still_searches_the_larger_window(monkeypatch):
    calls = counting_runs(monkeypatch)
    res = search_prime(R345, 7, margin=1)
    assert calls == [len(ideal_window(R345, n).elements) for n in (7, 8)]
    assert res.stats["window_candidates"] == 88
    assert res.stats["extension_nodes"] > 0
    assert res.stats["extension_discarded"] == 85


@pytest.mark.parametrize("margin", [1, 2, 3, 4])
@pytest.mark.parametrize("ring, size, mode, identity_only", [
    (R23, 4, PRIME, False),
    (R23, 6, PRIME, True),
    (Ring(from_generators([2, 3]), F3), 4, PRIME, False),
    (Ring(from_generators([2, 3]), F3), 6, PRIME, True),
    (R25, 5, PRIME, False),
    (R25, 7, PRIME, True),
    (Ring(from_generators([2, 5]), F3), 5, PRIME, False),
    (Ring(from_generators([2, 5]), F3), 7, PRIME, True),
    (R27, 6, PRIME, False),
    (R27, 10, PRIME, True),
    (Ring(from_generators([2, 7]), F3), 2, PRIME, False),
    (RDVR, 6, PRIME, True),
    (RDVR, 6, SEMIPRIME, False),
    (R23, 3, SEMIPRIME, False),
], ids=["2_3_f2_4", "2_3_f2_6", "2_3_f3_4", "2_3_f3_6", "2_5_f2_5", "2_5_f2_7", "2_5_f3_5",
        "2_5_f3_7", "2_7_f2_6", "2_7_f2_10", "2_7_f3_2", "dvr_prime", "dvr_semiprime",
        "2_3_semiprime"])
def test_survivors_match_the_two_pass_search(ring, size, mode, identity_only, margin):
    expected, candidates = two_pass_survivors_oracle(lambda n: ideal_window(ring, n), size,
                                                     margin, mode)
    res = search_prime(ring, size, mode, margin)
    assert {frozenset(op.table.items()) for op in res.operations} == expected
    assert res.stats["window_candidates"] == candidates
    assert (candidates == 1) == identity_only
    assert (res.stats["extension_nodes"] == 0) == identity_only


@pytest.mark.parametrize("margin", [1, 2, 3, 4])
@pytest.mark.parametrize("D", [3, 4, 5, 6])
def test_chain_survivors_match_the_two_pass_search(D, margin):
    expected, candidates = two_pass_survivors_oracle(ChainDomain, D, margin, SEMIPRIME)
    res = search_fractional_chain(D, margin)
    assert {frozenset(op.table.items()) for op in res.operations} == expected
    assert res.is_identity_only() and candidates == 1
    assert res.stats["extension_nodes"] == 0


@pytest.mark.parametrize("ring, size, mode, margin, count", [
    (Ring(from_generators([3, 4]), F2), 7, PRIME, 0, 96),
    (Ring(from_generators([2, 5]), F3), 5, PRIME, 1, 16),
    (RDVR, 6, SEMIPRIME, 2, 14),
    (R25, 4, SEMIPRIME, 0, 184),
], ids=["3_4_f2", "2_5_f3", "dvr_semiprime", "2_5_f2_semiprime"])
def test_survivors_come_in_table_key_order(ring, size, mode, margin, count):
    # the op_NN names are positions in this order; the depth-first search
    # finds the <2,5> semiprime tables in another order
    res = search_prime(ring, size, mode, margin)
    domain = ideal_window(ring, size)
    keys = [table_key_oracle(domain, op.table) for op in res.operations]
    assert len(keys) == count
    assert keys == sorted(keys)
    assert len(set(keys)) == count
    identity = table_key_oracle(domain, {I: I for I in domain.elements})
    assert [op.name for op in res.operations] == [
        "identity" if key == identity else f"op_{i:02d}" for i, key in enumerate(keys)]


def test_anchor_search_peak_memory():
    # the window's 4,624 tables are id tuples, not dicts of ideals: the
    # traced peak is about 6 MiB with them, and was 53 MiB with dicts
    R = Ring(from_generators([3, 4, 5]), F3)
    tracemalloc.start()
    try:
        res = search_prime(R, 7, margin=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.stats["window_candidates"] == 4624
    assert len(res.operations) == 3
    assert peak < 16 * 2**20


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 41 variables to branch on, and only 30 frames to spare above this one:
    # a search that recursed once per level would raise RecursionError
    stats = {}
    searcher = _Searcher(ideal_window(RDVR, 40), SEMIPRIME, 10**6, stats)
    assert len(searcher.variables) == 41
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)
    try:
        tables = searcher.run()
    finally:
        sys.setrecursionlimit(limit)
    assert len(tables) == 82
    assert stats["nodes"] == 13_203


def brute_force_tables(domain, mode):
    """Every extensive table on ``domain`` with no witness against axioms 1-4
    (and 5 in prime mode) under the hand-written oracle."""
    elts = domain.elements
    supersets = [[J for J in elts if domain.contains(J, I)] for I in elts]
    axioms = (1, 2, 3, 4, 5) if mode == PRIME else (1, 2, 3, 4)
    out = set()
    for values in iproduct(*supersets):
        T = dict(zip(elts, values))
        report = check_axioms_oracle(ClosureOperation("t", "table", table=T), domain, axioms)
        if not any(wit for _, _, wit in report.values()):
            out.add(frozenset(T.items()))
    return out


@pytest.mark.parametrize("ring, max_order, seed", [
    (R25, 7, 1), (R345, 6, 2), (R27, 8, 3),
], ids=["2_5_f2", "3_4_5_f2", "2_7_f2"])
def test_searcher_matches_brute_force_on_small_windows(ring, max_order, seed):
    # Windows: the unit, 2-5 random proper ideals, and the zero ideal in half
    # of them.  Prime mode runs only where the window holds a proper principal
    # ideal: without one it seeds the zero ideal, which no axiom forces.
    rng = random.Random(seed)
    proper = [I for I in enumerate_ideals(ring, max_order) if I.is_proper()]
    prime_windows = 0
    for _ in range(8):
        ideals = [unit_ideal(ring), *rng.sample(proper, rng.randint(2, 5))]
        if rng.random() < 0.5:
            ideals.append(zero_ideal(ring))
        dom = IdealSetDomain(ideals)
        modes = (PRIME, SEMIPRIME) if dom.principals() else (SEMIPRIME,)
        prime_windows += PRIME in modes
        for mode in modes:
            found = {frozenset(_as_table(dom.elements, T).items())
                     for T in _Searcher(dom, mode, 10**6, {}).run()}
            assert found == brute_force_tables(dom, mode), (mode, [str(I) for I in dom.elements])
    assert prime_windows >= 4


def test_a_scaling_image_outside_a_sparse_window_is_a_conflict():
    # b = (t^2) and I = (t^4, t^7) lie in the set, and so does bI = (t^6, t^9);
    # f(I) = (t^2) would force f(bI) = b.f(I) = (t^4), which the set lacks
    ideals = [unit_ideal(R25)] + [ideal_from_generators(R25, [R25.parse(g) for g in gens])
                                  for gens in (["t^2"], ["t^4", "t^7"], ["t^6", "t^9"])]
    dom = IdealSetDomain(ideals)
    stats = {}
    found = {frozenset(_as_table(dom.elements, T).items())
             for T in _Searcher(dom, PRIME, 10**6, stats).run()}
    assert found == brute_force_tables(dom, PRIME)
    assert stats["prunes"] == {"monotone": 1, "scaling_conflict": 1}


def scaled(I, lam):
    """The image of I under the ring automorphism t -> lam*t: the coefficient
    at exponent n + j is multiplied by lam^(n + j), and the rows are reduced
    again."""
    if not I.is_proper():
        return I
    p = I.ring.field.p
    rows = [[v * pow(lam, I.order + j, p) % p for j, v in enumerate(row)] for row in I.window]
    return _proper(I.ring, I.order, rref(rows, p)[0])


def test_prime_operations_are_closed_under_scaling_t():
    # t -> lam*t preserves orders, containment, products and principal
    # ideals, so it conjugates the set of operations found into itself.  The
    # counts are pinned too: an empty or shrunken set is closed as well.
    p = 3
    R = Ring(from_generators([2, 5]), PrimeField(p))
    found = {frozenset(op.table.items()) for op in search_prime(R, 5, margin=1).operations}
    orbits = set()
    for T in found:
        orbit = frozenset(frozenset((scaled(I, lam), scaled(v, lam)) for I, v in T)
                          for lam in range(1, p))
        assert orbit <= found
        orbits.add(orbit)
    assert (len(found), len(orbits)) == (16, 12)
