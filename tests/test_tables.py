"""The search's window tables: the product without a closure pass and the
product table of element ids, the sum and the intersection against their
oracles, the containment rows with their value-set prefilter, the index of
in-window product instances, the principal test read off the pivots, and
the re-verification of an exact table."""

import sys
from collections import Counter

import pytest

from semiprime_lab import closures, ideals as ideals_module
from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    IdealSetDomain,
    ideal_window,
)
from semiprime_lab.ideals import (
    IdealCanon,
    Ring,
    _value_set,
    contains,
    containment_rows,
    ideal_from_generators,
    ideal_sum,
    intersect,
    is_principal,
    min_generators,
    product,
    unit_ideal,
    zero_ideal,
)
from semiprime_lab.search import PRIME, SEMIPRIME, _Searcher, search_prime
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

from oracles import (
    intersect_oracle,
    product_oracle,
    sum_oracle,
    value_set_oracle,
)
from test_order_bounded import compare_with_oracle, formed  # noqa: F401 (a fixture)


def ring(gens, p):
    return Ring(from_generators(gens), PrimeField(p))


def window_ids(windows):
    """Test ids ``gens_fp``; a ring and field met again also name the order."""
    ids = []
    for g, p, n in windows:
        i = "_".join(map(str, g)) + f"_f{p}"
        ids.append(f"{i}_n{n}" if i in ids else i)
    return ids


# the last two lie well past the conductor, where many pairs share a window
PRODUCT_WINDOWS = [
    ((3, 4, 5), 3, 6),
    ((2, 5), 7, 5),
    ((4, 5, 6, 7), 2, 6),
    ((2, 7), 2, 10),
    ((2, 5), 3, 8),
    ((3, 5, 7), 2, 7),
    ((3, 4), 2, 9),
    ((1,), 5, 5),
    ((3, 4, 5), 2, 11),
    ((2, 7), 2, 14),
]


@pytest.mark.parametrize("gens, p, max_order", PRODUCT_WINDOWS, ids=window_ids(PRODUCT_WINDOWS))
def test_product_matches_closure_oracle_on_full_window(gens, p, max_order):
    # every pair of the window, the unit and the zero ideal included; the
    # product tables of the window and of two sparse subsets hold the index
    # of the same product, and -1 exactly where it leaves the set.  The
    # subset [1::3] misses elements at orders it still holds, so a product
    # whose window pair was formed for other factors can land on a missing
    # element and must read -1 there.
    full = ideal_window(ring(gens, p), max_order)
    sets = []
    for domain in (full, IdealSetDomain(full.elements[::2]), IdealSetDomain(full.elements[1::3])):
        ids = {I: i for i, I in enumerate(domain.elements)}
        top = max(I.order for I in domain.elements if I.is_proper())
        sets.append((ids, domain.product_table(), top))
    elements = full.elements
    missing = 0
    for i, A in enumerate(elements):
        for B in elements[i:]:
            expected = product_oracle(A, B)
            assert product(A, B) == expected, (A, B)
            assert product(B, A) == expected, (B, A)
            for ids, table, top in sets:
                if A in ids and B in ids:
                    k = ids.get(expected, -1)
                    assert table[ids[A]][ids[B]] == table[ids[B]][ids[A]] == k, (A, B)
                    missing += k < 0 and expected.is_proper() and expected.order <= top
    if max_order >= 2 * min(gens):  # some product of proper ideals stays in the window
        assert missing > 0


def test_product_table_forms_one_product_per_window_pair(monkeypatch):
    """On ``<3,4,5>/F_2`` at order 14 the 134 elements have 11 windows.  The
    table forms one product per unordered pair of windows whose orders can
    sum to at most 14 (all 66 pairs), plus the 2*134 - 1 pairs with the unit
    or the zero ideal; the other proper pairs are looked up."""
    formed = []
    real = closures.ideal_product

    def recording(a, b):
        formed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(closures, "ideal_product", recording)
    domain = ideal_window(ring([3, 4, 5], 2), 14)
    table = domain.product_table()
    elements = domain.elements
    proper = [I for I in elements if I.is_proper()]
    pairs = {frozenset((A.window, B.window)) for A in proper for B in proper
             if A.order + B.order <= 14}
    formed_proper = [frozenset((A.window, B.window)) for A, B in formed
                     if A.is_proper() and B.is_proper()]
    assert len(elements) == 134 and len({I.window for I in proper}) == 11
    assert len(formed_proper) == len(set(formed_proper)) == len(pairs) == 66
    assert set(formed_proper) == pairs
    assert len(formed) == 66 + 2 * 134 - 1
    # the lookups agree with forming every product
    ids = {I: i for i, I in enumerate(elements)}
    for i, A in enumerate(proper, 1):
        for B in proper:
            if A.order + B.order <= 14:
                assert table[i][ids[B]] == ids[real(A, B)], (A, B)


def test_chain_product_table_adds_indices():
    chain = ChainDomain(5)
    elements = chain.elements
    table = chain.product_table()
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            k = elements.index(a + b) if a + b in elements else -1
            assert table[i][j] == k, (a, b)
    assert table[0][0] == -1 and table[-1][-1] == -1


# smaller than PRODUCT_WINDOWS: the intersection oracle tests every frame vector
LATTICE_WINDOWS = [
    ((1,), 5, 5),
    ((2, 5), 7, 4),
    ((2, 5), 3, 7),
    ((3, 4, 5), 3, 5),
    ((4, 5, 6, 7), 2, 4),
    ((2, 7), 2, 8),
    ((3, 5, 7), 2, 6),
    ((3, 4), 2, 7),
]


@pytest.mark.parametrize("gens, p, max_order", LATTICE_WINDOWS,
                         ids=["_".join(map(str, g)) + f"_f{p}" for g, p, _ in LATTICE_WINDOWS])
def test_sum_and_intersection_match_their_oracles_on_full_window(gens, p, max_order):
    # every unordered pair, the unit and the zero ideal included; the sum
    # oracle makes no shift-closure pass, so agreement also shows that the
    # sum of two shift-closed windows needs none
    elements = ideal_window(ring(gens, p), max_order).elements
    for i, A in enumerate(elements):
        for B in elements[i:]:
            assert ideal_sum(A, B) == sum_oracle(A, B), (A, B)
            assert intersect(A, B) == intersect_oracle(A, B), (A, B)


def test_product_never_closes_under_shifts(monkeypatch):
    callers = []
    real = ideals_module._close_under_shifts

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(ideals_module, "_close_under_shifts", recording)
    elements = ideal_window(ring([2, 7], 2), 8).elements
    for A in elements:
        for B in elements:
            product(A, B)
    assert callers == []
    search_prime(ring([2, 7], 2), 8, margin=2)
    assert "product" not in callers
    # an intersection of ideals is an ideal: read on one frame, never closed
    for i, A in enumerate(elements):
        for B in elements[i:]:
            intersect(A, B)
    assert "intersect" not in callers


CONTAINMENT_WINDOWS = [((2, 5), 3, 7), ((3, 4, 5), 2, 7), ((2, 7), 2, 9), ((4, 5, 6, 7), 2, 5), ((1,), 2, 4)]


@pytest.mark.parametrize("gens, p, max_order", CONTAINMENT_WINDOWS,
                         ids=["_".join(map(str, g)) + f"_f{p}" for g, p, _ in CONTAINMENT_WINDOWS])
def test_containment_rows_match_pairwise_contains(gens, p, max_order):
    elements = ideal_window(ring(gens, p), max_order).elements
    assert elements[0].is_unit() and elements[-1].is_zero()
    rows = containment_rows(elements)
    same_order = 0
    for i, A in enumerate(elements):
        for j, B in enumerate(elements):
            expected = i != j and contains(A, B)
            assert (rows[i] >> j & 1 == 1) == expected, (A, B)
            if expected:
                # the prefilter never drops a true containment
                assert not _value_set(B) & ~_value_set(A), (A, B)
                same_order += A.is_proper() and A.order == B.order
    if gens != (1,):
        assert same_order > 0


@pytest.mark.parametrize("gens, p, max_order", [((2, 5), 3, 6), ((3, 4, 5), 2, 6), ((4, 5, 6, 7), 2, 4)])
def test_value_set_is_the_set_of_element_orders(gens, p, max_order):
    R = ring(gens, p)
    top = max_order + 2 * R.conductor + 2
    for I in ideal_window(R, max_order).elements:
        if I.is_proper():
            got = {e for e in range(top) if _value_set(I) >> e & 1}
            assert got == value_set_oracle(I, top), I
    assert _value_set(unit_ideal(R)) == -1
    assert _value_set(zero_ideal(R)) == 0


def test_containment_rows_reject_by_value_set_first(monkeypatch):
    # <2,5> over F_2: (t^2) and (t^2+t^5) have the same value set and neither
    # contains the other, so only row reduction can tell them apart; (t^4)
    # and (t^2, t^5) differ in value sets and never reach row reduction
    R = ring([2, 5], 2)
    t2, t5, t4 = (R.parse(s) for s in ("t^2", "t^2+t^5", "t^4"))
    I, J, K = (ideal_from_generators(R, [f]) for f in (t2, t5, t4))
    M = ideal_from_generators(R, [t2, R.parse("t^5")])
    tested = []
    real = ideals_module._contains

    def recording(A, B, piv=None):
        tested.append((A, B))
        return real(A, B, piv)

    monkeypatch.setattr(ideals_module, "_contains", recording)
    ideal_list = [I, J, K, M]
    rows = containment_rows(ideal_list)
    assert rows == [1 << 2, 1 << 2, 0, 1 << 0 | 1 << 1 | 1 << 2]
    assert (I, J) in tested and (J, I) in tested
    assert (K, M) not in tested and (I, M) not in tested


def test_domain_contains_reads_the_rows(monkeypatch):
    # without rows each pair is tested (once per window triple); once the
    # rows are built, contains on two elements tests nothing
    tested = []
    real = closures.ideal_contains

    def recording(a, b):
        tested.append((a, b))
        return real(a, b)

    monkeypatch.setattr(closures, "ideal_contains", recording)
    dom = ideal_window(ring([3, 4, 5], 2), 6)
    pairs = [(a, b) for a in dom.elements for b in dom.elements]
    before = [dom.contains(a, b) for a, b in pairs]
    assert before == [real(a, b) for a, b in pairs]
    assert tested
    fresh = ideal_window(ring([3, 4, 5], 2), 6)
    fresh.containment()
    tested.clear()
    assert [fresh.contains(a, b) for a, b in pairs] == before
    assert tested == []


TINY_SEARCHES = [
    ((2, 5), 2, 6, 2, PRIME),
    ((2, 7), 2, 6, 2, PRIME),
    ((3, 4, 5), 2, 7, 1, PRIME),
    ((1,), 2, 4, 2, SEMIPRIME),
]


@pytest.mark.parametrize("gens, p, max_order, margin, mode", TINY_SEARCHES,
                         ids=["2_5_f2", "2_7_f2", "3_4_5_f2", "dvr_semiprime"])
def test_each_product_instance_is_listed_once_under_each_element_it_names(
        gens, p, max_order, margin, mode):
    domain = ideal_window(ring(gens, p), max_order)
    stats = {}
    searcher = _Searcher(domain, mode, 10**6, stats)
    elements = domain.elements
    ids = {I: i for i, I in enumerate(elements)}
    expected = [Counter() for _ in elements]
    skipped = 0
    for i, A in enumerate(elements):
        for j in range(i, len(elements)):
            P = product_oracle(A, elements[j])
            if P not in ids:
                skipped += 1
                continue
            instance = (i, j, ids[P])
            for x in range(len(elements)):
                if x in instance:
                    expected[x][instance] += 1
    assert len(searcher.instances) == len(elements)
    for x, X in enumerate(elements):
        assert Counter(searcher.instances[x]) == expected[x], X
    assert stats["skipped_product_instances"] == skipped
    assert any(expected)


@pytest.mark.parametrize("gens, p, max_order", PRODUCT_WINDOWS, ids=window_ids(PRODUCT_WINDOWS))
def test_is_principal_matches_min_generators(gens, p, max_order):
    proper = [I for I in ideal_window(ring(gens, p), max_order).elements if I.is_proper()]
    for I in proper:
        assert is_principal(I) == (min_generators(I) == 1), I
    assert any(is_principal(I) for I in proper)
    if gens != (1,):
        assert not all(is_principal(I) for I in proper)


def test_principals_form_no_product(monkeypatch):
    formed = []
    real = ideals_module.product

    def recording(a, b):
        formed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ideals_module, "product", recording)
    monkeypatch.setattr(closures, "ideal_product", recording)
    domain = ideal_window(ring([2, 7], 2), 10)
    assert len(domain.principals()) == sum(
        1 for I in domain.elements if I.is_proper() and min_generators(I) == 1)
    formed.clear()
    ideal_window(ring([2, 7], 2), 10).principals()
    assert formed == []


def test_product_in_keeps_the_window_instance_in_the_memo():
    # a product, sum or intersection that lies in the set is the set's own
    # instance, also when asked of equal copies of the elements; any other
    # result is built once, so asking again returns the same instance
    domain = ideal_window(ring([2, 5], 3), 8)
    own = {I: I for I in domain.elements}
    copies = [IdealCanon(I.ring, I.kind, I.order, I.window) for I in domain.elements]
    for A in domain.elements:
        for B in domain.elements:
            P = domain.product_in(A, B)
            if P is None:
                assert A.order + B.order > 8
                continue
            assert P is own[P]
            assert domain.product(A, B) is P
            assert domain.product(B, A) is P
            assert P == product(A, B)
    outside = 0
    for name in ("product", "sum", "intersect"):
        op = getattr(domain, name)
        for A, A2 in zip(domain.elements, copies):
            for B, B2 in zip(domain.elements, copies):
                R = op(A, B)
                assert op(B2, A2) is R and op(A2, B) is R, (name, A, B)
                if R in own:
                    assert R is own[R], (name, A, B)
                else:
                    outside += 1
    assert outside > 0


def test_exact_table_reads_no_value_at_an_out_of_window_product(formed):
    """An exact table is re-checked on ids: axioms 4 and 5 skip each
    instance whose product leaves the window, as the oracle does, and no
    product past the window top is formed."""
    domain = ideal_window(ring([2, 7], 2), 9)
    identity = ClosureOperation("identity", "table", table={I: I for I in domain.elements})
    report = compare_with_oracle(identity, domain, formed)
    for ax in (4, 5):
        assert report.results[ax].skipped > 0
    assert formed
    assert [(s, top) for s, top in formed if s > top] == []
