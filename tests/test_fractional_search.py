"""The fractional-chain certificate runs on the same pruned search as
``search``, checked against the brute-force chain oracle."""

import pytest

from semiprime_lab.closures import ChainDomain, fractional_violation
from semiprime_lab.errors import BudgetExceeded
from semiprime_lab.search import (
    DEFAULT_BUDGET,
    SEMIPRIME,
    _as_table,
    _Searcher,
    search_fractional_chain,
)

from oracles import fractional_chain_tables_oracle


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_chain_window_tables_match_oracle(D):
    chain = ChainDomain(D)
    found = [_as_table(chain.elements, T)
             for T in _Searcher(chain, SEMIPRIME, DEFAULT_BUDGET, {}).run()]
    expected = fractional_chain_tables_oracle(D)
    assert len(found) == len(expected)
    assert {tuple(sorted(T.items())) for T in found} == {tuple(sorted(T.items())) for T in expected}


def test_identity_certified_at_depth_12():
    D = 12
    out = fractional_violation(ChainDomain(D), {i: i for i in range(-D, D + 1)})
    assert out.kind == "certified_identity_only"
    assert out.verified


def test_chain_search_stops_at_the_node_budget():
    with pytest.raises(BudgetExceeded):
        search_fractional_chain(40, 2, budget=10_000)
