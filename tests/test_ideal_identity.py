"""The identity contract of canonical ideals: equal ideals reached by
different routes are equal, hash alike and act as one dict key; the hash
and the sort key are cached without changing either value."""

import pytest

from semiprime_lab.ideals import (
    IdealCanon,
    Ring,
    canonical_key,
    enumerate_ideals,
    ideal_from_generators,
    ideal_sum,
    intersect,
    product,
    zero_ideal,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

from oracles import canonical_key_oracle

R25 = Ring(from_generators([2, 5]), PrimeField(2))
R345 = Ring(from_generators([3, 4, 5]), PrimeField(3))


def routes(ring):
    """Pairs of one ideal reached by two different computations."""
    def gen(*texts):
        return ideal_from_generators(ring, [ring.parse(t) for t in texts])

    g1, g2 = ring.semigroup.generators[:2]
    m = gen(*(f"t^{g}" for g in ring.semigroup.generators))
    a, b = gen(f"t^{g1}"), gen(f"t^{g2}")
    return [
        (gen(f"t^{g1 + g2}"), product(a, b)),
        (product(m, m), gen(*(f"t^{g + h}" for g in ring.semigroup.generators
                               for h in ring.semigroup.generators))),
        (ideal_sum(a, b), gen(f"t^{g1}", f"t^{g2}")),
        (intersect(m, a), a),
        (intersect(product(a, m), product(b, m)), intersect(product(b, m), product(a, m))),
        (zero_ideal(ring), intersect(zero_ideal(ring), m)),
    ]


@pytest.mark.parametrize("ring", [R25, R345], ids=["2_5_f2", "3_4_5_f3"])
def test_equal_ideals_by_different_routes_are_one_key(ring):
    for I, J in routes(ring):
        assert I is not J
        assert I == J
        assert hash(I) == hash(J)
        assert hash(I) == hash((I.ring, I.kind, I.order, I.window))
        d = {I: "first"}
        d[J] = "second"
        assert len(d) == 1 and d[I] == "second"


def test_repr_does_not_show_the_cached_fields():
    I = ideal_from_generators(R25, [R25.parse("t^2")])
    before = repr(I)
    hash(I)
    canonical_key(I)
    assert repr(I) == before
    assert before == (f"IdealCanon(ring={R25!r}, kind='proper', order=2, "
                      f"window={I.window!r})")


def test_instances_are_slotted_and_immutable():
    I = ideal_from_generators(R25, [R25.parse("t^2")])
    assert not hasattr(I, "__dict__")
    with pytest.raises(AttributeError):
        I.order = 3
    with pytest.raises(AttributeError):
        I.note = "no attribute can be attached"
    assert not hasattr(I, "note")


def test_canonical_key_is_computed_once():
    for I in enumerate_ideals(R345, 4) + [zero_ideal(R345)]:
        assert canonical_key(I) is canonical_key(I)
        assert canonical_key(I) == canonical_key_oracle(I)


@pytest.mark.parametrize("ring, max_order", [(R25, 8), (R345, 5)], ids=["2_5_f2", "3_4_5_f3"])
def test_sorting_by_the_cached_key_matches_the_reference_key(ring, max_order):
    window = enumerate_ideals(ring, max_order) + [zero_ideal(ring)]
    shuffled = window[::-1]
    assert sorted(shuffled, key=canonical_key) == sorted(shuffled, key=canonical_key_oracle)
    assert sorted(shuffled, key=canonical_key) == window
    assert isinstance(window[0], IdealCanon) and window[0].is_unit()
