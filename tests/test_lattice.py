import random
import re
from collections import Counter

import pytest

from semiprime_lab import ideals as ideals_module
from semiprime_lab.errors import RingMismatch
from semiprime_lab.ideals import (
    Ring,
    canonical_key,
    contains,
    enumerate_ideals,
    classify_shape,
    hasse_diagram,
    ideal_from_generators,
    ideal_label,
    ideal_record,
    zero_ideal,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

from oracles import hasse_diagram_oracle

F2 = PrimeField(2)
R25 = Ring(from_generators([2, 5]), F2)
R345 = Ring(from_generators([3, 4, 5]), F2)


def edges_by_label(dot: str):
    labels = dict(re.findall(r'(\w+) \[label="([^"]*)"\];', dot))
    return {
        (labels[a], labels[b])
        for a, b in re.findall(r"(\w+) -> (\w+);", dot)
    }


def test_singleton_diagram():
    I = ideal_from_generators(R25, [R25.parse("t^4")])
    dot = hasse_diagram([I])
    assert dot.count("->") == 0
    assert dot.count("label=") == 1


def test_covering_edges_orders_up_to_5():
    dot = hasse_diagram(enumerate_ideals(R25, 5))
    edges = edges_by_label(dot)
    assert ("R", "(t^2, t^5)") in edges
    assert ("(t^2, t^5)", "(t^4, t^5)") in edges
    assert ("(t^4, t^5)", "(t^5, t^6)") in edges
    # R covers only the maximal ideal
    assert sum(1 for a, _ in edges if a == "R") == 1


def test_covering_is_transitive_reduction():
    dot = hasse_diagram(enumerate_ideals(R25, 5))
    edges = edges_by_label(dot)
    # (t^2,t^5) strictly contains (t^5,t^6) but via (t^4,t^5): no direct edge
    assert ("(t^2, t^5)", "(t^5, t^6)") not in edges


def test_paper_figure_path_through_principal_nodes():
    dot = hasse_diagram(enumerate_ideals(R25, 6))
    edges = edges_by_label(dot)
    for a in ("(t^2)", "(t^2+t^5)"):
        assert ("(t^2, t^5)", a) in edges
        assert (a, "(t^4, t^7)") in edges


def test_345_principal_three_generated_chain():
    ideals = [
        I
        for I in enumerate_ideals(R345, 6)
        if I.is_unit() or len(I.window) in (1, 3)
    ]
    dot = hasse_diagram(ideals)
    edges = edges_by_label(dot)
    assert ("(t^3, t^4, t^5)", "(t^4, t^5, t^6)") in edges
    assert ("(t^4, t^5, t^6)", "(t^5, t^6, t^7)") in edges
    # each principal node sits under the full ideal of its order ...
    assert ("(t^3, t^4, t^5)", "(t^3+t^4)") in edges
    # ... and covers the full ideal three orders down
    assert ("(t^3+t^4)", "(t^6, t^7, t^8)") in edges


def test_deterministic_output():
    a = hasse_diagram(enumerate_ideals(R25, 6))
    b = hasse_diagram(enumerate_ideals(R25, 6))
    assert a == b


def test_mixed_rings_rejected():
    with pytest.raises(RingMismatch):
        hasse_diagram(
            [
                ideal_from_generators(R25, [R25.parse("t^2")]),
                ideal_from_generators(R345, [R345.parse("t^3")]),
            ]
        )


def test_ideal_record_shape():
    I = ideal_from_generators(R25, [R25.parse("t^4+t^5"), R25.parse("t^7")])
    rec = ideal_record(I)
    assert rec["order"] == 4
    assert rec["shape"] == "TWO_GEN_A(4; 1)"
    assert rec["window"] == [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_ideal_record_classifies_each_ideal_once(monkeypatch):
    ring = Ring(from_generators([2, 7]), PrimeField(3))
    window = enumerate_ideals(ring, 10) + [zero_ideal(ring)]
    proper = [I for I in window if I.is_proper()]
    labels = [ideal_label(I) for I in window]
    shapes = [classify_shape(I).code() if I.is_proper() else None for I in window]
    calls = Counter()

    def counting(I):
        calls[I] += 1
        return classify_shape(I)

    monkeypatch.setattr(ideals_module, "classify_shape", counting)
    records = [ideal_record(I) for I in window]
    assert calls == Counter(proper)
    assert [r["label"] for r in records] == labels
    assert [r["shape"] for r in records] == shapes


@pytest.mark.parametrize(
    "gens,p,max_order",
    [
        ((2, 5), 2, 8),
        ((2, 5), 3, 6),
        ((3, 4, 5), 2, 7),
        ((3, 4, 5), 3, 5),
        ((2, 7), 2, 10),
        ((1,), 2, 6),
        ((3, 5, 7), 2, 8),
        ((4, 5, 6, 7), 2, 7),
        ((3, 4), 2, 8),
    ],
    ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_diagram_matches_cubic_scan(gens, p, max_order):
    ring = Ring(from_generators(list(gens)), PrimeField(p))
    whole = enumerate_ideals(ring, max_order) + [zero_ideal(ring)]
    rng = random.Random(max_order)
    thirds = [I for I in whole if rng.random() < 1 / 3]
    for ideals in (whole, whole[::2], thirds):
        assert hasse_diagram(ideals) == hasse_diagram_oracle(ideals)


def test_same_order_container_sorting_after_the_contained_ideal():
    small = ideal_from_generators(R25, [R25.parse("t^6")])
    big = ideal_from_generators(R25, [R25.parse("t^6"), R25.parse("t^7")])
    assert contains(big, small) and big != small
    assert canonical_key(small) < canonical_key(big)
    dot = hasse_diagram([big, small])
    assert edges_by_label(dot) == {("(t^6, t^7)", "(t^6)")}
    assert dot == hasse_diagram_oracle([big, small])
