"""The window-keyed arithmetic of ``IdealSetDomain``.

``product``, ``sum``, ``intersect`` and ``contains`` run on every ordered
pair of a full window plus operands outside it, and must equal the
``ideals`` functions and the oracles.  Each memo key (a window pair for
the product, a (window, window, order gap) triple for the rest) is formed
once, and an operand of another ring is refused.  That a result in the set
is the set's own instance is tested in ``test_tables.py``."""

import pytest

from semiprime_lab import closures
from semiprime_lab.closures import ideal_window
from semiprime_lab.errors import RingMismatch
from semiprime_lab.ideals import (
    Ring,
    contains,
    ideal_sum,
    integral_closure_ideal,
    intersect,
    product,
    unit_ideal,
    zero_ideal,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

from oracles import intersect_oracle, product_oracle, sum_oracle


def ring(gens, p):
    return Ring(from_generators(list(gens)), PrimeField(p))


WINDOWS = [
    ((1,), 3, 5),
    ((2, 5), 3, 7),
    ((2, 7), 2, 9),
    ((3, 4, 5), 2, 7),
    ((3, 5, 7), 2, 6),
    ((4, 5, 6, 7), 2, 5),
]
IDS = ["_".join(map(str, g)) + f"_f{p}" for g, p, _ in WINDOWS]


def operands(domain, max_order):
    """The window's elements; one integral-closure value per order, a fresh
    instance equal to an element; and a few ideals past the top order."""
    proper = [I for I in domain.elements if I.is_proper()]
    closed = list({I.order: integral_closure_ideal(I) for I in proper}.values())
    beyond = [I for I in ideal_window(domain.ring, max_order + 2).elements
              if I.is_proper() and I.order > max_order]
    return domain.elements + closed + beyond[::5]


OPS = [
    ("product", product, product_oracle),
    ("sum", ideal_sum, sum_oracle),
    ("intersect", intersect, intersect_oracle),
    ("contains", contains, None),
]


@pytest.mark.parametrize("gens, p, max_order", WINDOWS, ids=IDS)
def test_domain_arithmetic_matches_ideals_and_oracles(gens, p, max_order):
    domain = ideal_window(ring(gens, p), max_order)
    xs = operands(domain, max_order)
    left = {name: 0 for name, _, _ in OPS}  # results outside the window
    for name, plain, oracle in OPS:
        op = getattr(domain, name)
        told = {}  # the oracles are symmetric: one call per unordered pair
        for A in xs:
            for B in xs:
                got = op(A, B)
                assert got == plain(A, B), (name, A, B)
                if oracle is not None:
                    expected = told.get((B, A))
                    if expected is None:
                        expected = told[A, B] = oracle(A, B)
                    assert got == expected, (name, A, B)
                    left[name] += got.is_proper() and got.order > max_order
    assert left["product"] > 0 and left["intersect"] > 0
    assert len(xs) > len(domain.elements)


def key_of(name, A, B, c):
    """The window-level key of a proper pair, or None where no work is
    needed: windows are compared as tuples, not ids."""
    if name == "product":
        return frozenset((A.window, B.window))
    d = B.order - A.order
    if name == "contains":
        return (A.window, B.window, d) if 0 <= d < c else None
    if d < 0:
        A, B, d = B, A, -d
    if d >= c:
        return None
    return frozenset((A.window, B.window)) if d == 0 else (A.window, B.window, d)


@pytest.mark.parametrize("gens, p, max_order", [WINDOWS[2], WINDOWS[3], WINDOWS[5]],
                         ids=[IDS[2], IDS[3], IDS[5]])
def test_each_window_key_is_formed_once(monkeypatch, gens, p, max_order):
    """Over every ordered pair, each operation forms one result per distinct
    key of two proper operands, and none for an order gap d >= c."""
    formed = {"product": [], "sum": [], "intersect": [], "contains": []}
    for name, attr in [("product", "ideal_product"), ("sum", "ideal_sum"),
                       ("intersect", "ideal_intersect"), ("contains", "ideal_contains")]:
        def recording(a, b, name=name, real=getattr(closures, attr)):
            if a.is_proper() and b.is_proper():
                formed[name].append((a, b))
            return real(a, b)
        monkeypatch.setattr(closures, attr, recording)
    domain = ideal_window(ring(gens, p), max_order)
    c = domain.ring.conductor
    xs = operands(domain, max_order)
    for name in formed:
        op = getattr(domain, name)
        keys, work = set(), 0  # distinct keys; proper pairs that need one
        for A in xs:
            for B in xs:
                op(A, B)
                if A.is_proper() and B.is_proper() and key_of(name, A, B, c) is not None:
                    keys.add(key_of(name, A, B, c))
                    work += 1
        made = [key_of(name, A, B, c) for A, B in formed[name]]
        assert None not in made, name
        assert len(made) == len(set(made)) == len(keys), name
        assert len(keys) < work, name


@pytest.mark.parametrize("name", ["product", "sum", "intersect", "contains"])
def test_an_operand_of_another_ring_is_refused(name):
    domain = ideal_window(ring([2, 5], 3), 6)
    mine = domain.elements[3]
    other_ring = ring([2, 5], 2)
    others = [I for I in ideal_window(other_ring, 6).elements if I.is_proper()][:3]
    others += [unit_ideal(other_ring), zero_ideal(other_ring)]
    op = getattr(domain, name)
    for X in others:
        for pair in ((mine, X), (X, mine), (X, X), (domain.elements[0], X)):
            with pytest.raises(RingMismatch):
                op(*pair)
    domain.containment()  # the rows path refuses them too
    if name == "contains":
        with pytest.raises(RingMismatch):
            op(others[0], mine)
