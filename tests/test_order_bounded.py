"""Order-bounded window arithmetic: ``product_in`` and ``contains`` against
the plain ideal operations, and the search and its re-verification forming
no product whose orders already place it outside the window."""

import pytest

from oracles import check_axioms_oracle
from semiprime_lab import closures
from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    IdealSetDomain,
    check_axioms,
    ideal_window,
)
from semiprime_lab.ideals import Ring, contains, ideal_from_generators, product
from semiprime_lab.search import search_prime
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

F2 = PrimeField(2)
R25 = Ring(from_generators([2, 5]), F2)
R27 = Ring(from_generators([2, 7]), F2)


def top_order(domain):
    return max(I.order for I in domain.elements if I.is_proper())


@pytest.fixture
def formed(monkeypatch):
    """Every product of two proper ideals formed through a domain, as
    (order sum, top order of that domain)."""
    log = []
    current = {}
    domain_product = IdealSetDomain.product
    ideal_product = closures.ideal_product

    def windowed(self, a, b):
        current["top"] = top_order(self)
        return domain_product(self, a, b)

    def counted(a, b):
        if a.is_proper() and b.is_proper():
            log.append((a.order + b.order, current["top"]))
        return ideal_product(a, b)

    monkeypatch.setattr(IdealSetDomain, "product", windowed)
    monkeypatch.setattr(closures, "ideal_product", counted)
    return log


def ideal_sets():
    full = ideal_window(R25, 8)
    sparse = IdealSetDomain(full.elements[::2])
    return {"full": full, "sparse": sparse}


@pytest.mark.parametrize("name", ["full", "sparse"])
def test_ideal_product_in_and_contains_match_plain_operations(name):
    domain = ideal_sets()[name]
    members = set(domain.elements)
    top = top_order(domain)
    missed = 0
    for a in domain.elements:
        for b in domain.elements:
            P = product(a, b)
            expected = P if P in members else None
            assert domain.product_in(a, b) == expected, (a, b)
            assert domain.contains(a, b) == contains(a, b), (a, b)
            if expected is None and P.is_proper() and P.order <= top:
                missed += 1
    # the sparse set is not order-complete: membership, not order, decides there
    assert (missed > 0) == (name == "sparse")


def test_chain_product_in_and_contains_at_the_boundary():
    domain = ChainDomain(3)
    for a in domain.elements:
        for b in domain.elements:
            s = domain.product(a, b)
            assert domain.product_in(a, b) == (s if s in domain.elements else None)
            assert domain.contains(a, b) == (a <= b)
    assert domain.product_in(3, 0) == 3 and domain.product_in(-3, 0) == -3
    assert domain.product_in(3, 1) is None and domain.product_in(-3, -1) is None


def test_search_forms_no_product_past_its_window_top(formed):
    result = search_prime(R27, 8)
    assert result.is_identity_only()
    assert formed
    assert [(s, top) for s, top in formed if s > top] == []


def compare_with_oracle(op, domain, formed=None):
    """check_axioms against the oracle.  The oracle forms every product, so
    it runs on a copy of the domain (its own memo), and ``formed`` then
    keeps only the products that check_axioms formed."""
    axioms = (1, 2, 3, 4, 5)
    expected = check_axioms_oracle(op, IdealSetDomain(domain.elements), axioms)
    if formed is not None:
        formed.clear()
    report = check_axioms(op, domain, axioms)
    for ax in axioms:
        res = report.results[ax]
        got = (res.checked, res.skipped,
               [(w.inputs, w.values, w.detail) for w in res.witnesses])
        assert got == expected[ax], ax
    return report


def test_table_reverification_forms_no_out_of_window_product(formed):
    domain = ideal_window(R27, 8)
    identity = ClosureOperation("identity", "table", table={I: I for I in domain.elements})
    report = compare_with_oracle(identity, domain, formed)
    assert report.passed()
    assert report.results[4].skipped > 0
    assert formed
    assert [(s, top) for s, top in formed if s > top] == []


def test_table_with_a_key_outside_the_domain_keeps_the_full_product():
    domain = ideal_window(R27, 8)
    t2, t7 = (ideal_from_generators(R27, [R27.parse(t)]) for t in ("t^2", "t^7"))
    outside = product(t2, t7)  # order 9, past the window
    assert outside not in domain.elements
    identity = {I: I for I in domain.elements}
    op = ClosureOperation("identity_plus", "table", table={**identity, outside: outside})
    report = compare_with_oracle(op, domain)
    # the instance (t^2, t^7) now has its value: it is checked, not skipped
    bare = check_axioms(ClosureOperation("identity", "table", table=identity), domain, (4,))
    assert report.results[4].checked > bare.results[4].checked
