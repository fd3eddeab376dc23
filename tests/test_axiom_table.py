"""The axiom table against the hand-written loops of ``check_axioms_oracle``."""

import random

import pytest

from oracles import check_axioms_oracle
from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    IdealSetDomain,
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


def random_tables(domain, rng, count, undefined=0.15):
    """Seeded table operations with random values; about ``undefined`` of
    the entries are left out, so instances that need them are skipped."""
    elts = domain.elements
    for n in range(count):
        table = {x: rng.choice(elts) for x in elts if rng.random() >= undefined}
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


def test_axiom_table_matches_oracle():
    seen_witness = {ax: 0 for ax in ALL}
    seen_skip = {ax: 0 for ax in ALL}
    for op, domain in cases():
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
    assert all(seen_witness.values()), seen_witness
    assert all(seen_skip.values()), seen_skip


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
