"""The axiom table against the hand-written loops of ``check_axioms_oracle``."""

import random
from collections import Counter

import pytest

from oracles import check_axioms_oracle
from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    IdealSetDomain,
    _table_ids,
    builtin,
    check_axioms,
    ideal_window,
)
from semiprime_lab.ideals import Ring
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField

ALL = tuple(range(1, 9))


def ideal_domain(gens, p, max_order):
    ring = Ring(from_generators(gens), PrimeField(p))
    return ring, ideal_window(ring, max_order)


def random_tables(domain, rng, count, undefined=0.15, values=None):
    """Seeded table operations with random values, drawn from ``values``
    (the domain by default); about ``undefined`` of the entries are left
    out, so instances that need them are skipped."""
    elts = domain.elements
    values = values or elts
    for n in range(count):
        table = {x: rng.choice(values) for x in elts if rng.random() >= undefined}
        yield ClosureOperation(f"random{n}", "table", table=table)


def cases():
    rng = random.Random(20261018)
    R25, d25 = ideal_domain([2, 5], 2, 5)
    R345, d345 = ideal_domain([3, 4, 5], 2, 5)
    RDVR, ddvr = ideal_domain([1], 3, 4)
    chain = ChainDomain(4)
    for domain in (d25, d345, ddvr, chain):
        for op in random_tables(domain, rng, 40):
            yield op, domain
    for ring, domain in ((R25, d25), (R345, d345), (RDVR, ddvr)):
        yield builtin("identity", ring), domain
        yield builtin("integral_closure", ring), domain
    yield builtin("fc_345", R345), d345
    for m in range(4):
        yield builtin("dvr_f_m", RDVR, m=m), ddvr
        yield builtin("dvr_g_m", RDVR, m=m), ddvr
    yield builtin("identity", R25), chain
    # no unit in the domain: axiom 7 counts one skipped instance
    yield builtin("identity", R25), IdealSetDomain([I for I in d25.elements if not I.is_unit()])
    # a sparse set: products of values leave it, and axioms 4 and 5 form them
    sparse = IdealSetDomain(d345.elements[::2])
    for op in random_tables(sparse, rng, 40):
        yield op, sparse
    for domain in (d25, d345, ddvr, chain, sparse):
        for op in random_tables(domain, rng, 10, undefined=0):
            yield op, domain
    # values outside the domain: these tables are checked through the spec path
    beyond = [I for I in ideal_window(R25, 7).elements if I not in set(d25.elements)]
    for op in random_tables(d25, rng, 10, values=d25.elements + beyond[:3]):
        yield op, d25


def test_axiom_table_matches_oracle():
    seen_witness = {ax: 0 for ax in ALL}
    seen_skip = {ax: 0 for ax in ALL}
    on_ids = Counter()  # tables by path: True on ids, False through the spec
    formed_cited = Counter()  # witnesses of id-path tables citing a formed product
    for op, domain in cases():
        members = set(domain.elements)
        id_path = _table_ids(op, {x: i for i, x in enumerate(domain.elements)}) is not None
        if op.kind == "table":
            on_ids[id_path] += 1
        report = check_axioms(op, domain, ALL)
        expected = check_axioms_oracle(op, domain, ALL)
        assert report.domain_size == len(domain.elements)
        for ax in ALL:
            res = report.results[ax]
            got = (res.checked, res.skipped,
                   [(w.inputs, w.values, w.detail) for w in res.witnesses])
            assert got == expected[ax], (op.name, ax)
            seen_witness[ax] += len(res.witnesses)
            seen_skip[ax] += res.skipped
            for w in res.witnesses:
                assert w.axiom == ax
                assert w.replay(), (op.name, ax, w.inputs)
                if id_path and any(v not in members for v in w.values):
                    formed_cited[ax] += 1
    assert all(seen_witness.values()), seen_witness
    assert all(seen_skip.values()), seen_skip
    assert on_ids[True] and on_ids[False], on_ids
    assert formed_cited[4] and formed_cited[5], formed_cited


def test_unknown_axiom_is_rejected():
    _, domain = ideal_domain([2, 5], 2, 5)
    with pytest.raises(ValueError, match="unknown axiom 9"):
        check_axioms(builtin("identity", domain.ring), domain, (1, 9))


def test_each_rule_value_is_computed_once_per_check():
    ring, domain = ideal_domain([2, 5], 2, 5)
    ic = builtin("integral_closure", ring)
    calls = []
    counted = ClosureOperation("counted", "rule", fn=lambda I: calls.append(I) or ic(I))
    check_axioms(counted, domain, ALL)
    assert len(calls) == len(set(calls))
