import pytest

from semiprime_lab.closures import (
    ChainDomain,
    ClosureOperation,
    builtin,
    check_axioms,
    fractional_violation,
    ideal_window,
    sakuma_consistency,
)
from semiprime_lab.errors import DomainGap, PreconditionNotMet, WrongRing
from semiprime_lab.ideals import (
    Ring,
    ideal_from_generators,
    ideal_label,
    zero_ideal,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import MAX_EXPONENT, PrimeField

from oracles import series_mul

F2 = PrimeField(2)
R25 = Ring(from_generators([2, 5]), F2)
R345 = Ring(from_generators([3, 4, 5]), F2)
RDVR = Ring(from_generators([1]), F2)


def ideal(ring, *texts):
    return ideal_from_generators(ring, [ring.parse(t) for t in texts])


# ------------------------------------------------------------------- builtins


def test_identity():
    op = builtin("identity", R25)
    I = ideal(R25, "t^4")
    assert op(I) == I


def test_fc_345_examples():
    fc = builtin("fc_345", R345)
    I = ideal(R345, "t^3", "t^4+t^5")
    assert ideal_label(fc(I)) == "(t^3, t^4, t^5)"
    P = ideal(R345, "t^5+t^6+t^7")
    assert fc(P) == P
    assert fc(zero_ideal(R345)).is_zero()


def test_dvr_ops_examples():
    f2 = builtin("dvr_f_m", RDVR, m=2)
    assert f2(ideal(RDVR, "t^5")).order == 2
    P1 = ideal(RDVR, "t")
    assert f2(P1) == P1
    assert f2(zero_ideal(RDVR)).is_zero()
    g2 = builtin("dvr_g_m", RDVR, m=2)
    assert g2(zero_ideal(RDVR)).order == 2
    g0 = builtin("dvr_g_m", RDVR, m=0)
    assert g0(zero_ideal(RDVR)).is_unit()


def test_builtin_validation():
    with pytest.raises(WrongRing):
        builtin("fc_345", R25)
    with pytest.raises(WrongRing):
        builtin("dvr_f_m", R25, m=1)
    with pytest.raises(ValueError):
        builtin("dvr_f_m", RDVR)
    with pytest.raises(ValueError):
        builtin("exceptional", RDVR)


def test_table_domain_gap():
    I = ideal(R25, "t^2")
    op = ClosureOperation("tiny", "table", table={I: I})
    assert op(I) == I
    with pytest.raises(DomainGap):
        op(ideal(R25, "t^4"))


# ------------------------------------------------------------------ check_axioms


def test_identity_passes_everything():
    dom = ideal_window(R345, 6)
    rep = check_axioms(builtin("identity", R345), dom, (1, 2, 3, 4, 5, 6, 7, 8))
    assert rep.passed()
    assert all(r.skipped == 0 for r in rep.results.values())


def test_integral_closure_semiprime_but_not_prime():
    dom = ideal_window(R25, 10)
    ic = builtin("integral_closure", R25)
    rep = check_axioms(ic, dom, (1, 2, 3, 4, 5))
    assert rep.passed((1, 2, 3, 4))
    assert not rep.passed((5,))
    b = ideal(R25, "t^5")
    I = ideal(R25, "t^2")
    hits = [w for w in rep.results[5].witnesses if w.inputs == (b, I)]
    assert hits, "expected witness b=(t^5), I=(t^2)"
    w = hits[0]
    assert w.replay()
    # direct recomputation of both sides: t^8 separates them
    from semiprime_lab.ideals import element_in_ideal, product

    lhs = ic(product(b, I))
    rhs = product(b, ic(I))
    t8 = R25.parse("t^8")
    assert element_in_ideal(t8, lhs) and not element_in_ideal(t8, rhs)
    assert (ideal_label(lhs), ideal_label(rhs)) == ("(t^7, t^8)", "(t^7, t^10)")


def test_all_witnesses_replay():
    dom = ideal_window(R25, 8)
    rep = check_axioms(builtin("integral_closure", R25), dom, (5,))
    assert rep.results[5].witnesses
    for w in rep.results[5].witnesses:
        assert w.replay()


def test_fc_345_prime_axioms_small():
    dom = ideal_window(R345, 7)
    rep = check_axioms(builtin("fc_345", R345), dom, (1, 2, 3, 4, 5))
    assert rep.passed()
    assert rep.results[4].skipped == 0
    assert rep.results[5].skipped == 0


def test_fc_fixes_products_of_principals():
    fc = builtin("fc_345", R345)
    dom = ideal_window(R345, 7, include_zero=False)
    principals = dom.principals()
    from semiprime_lab.ideals import min_generators, product

    for a in principals:
        for b in principals:
            P = product(a, b)
            assert min_generators(P) == 1
            assert fc(P) == P


def test_rule_checks_never_skip_at_any_order():
    # products leave the enumerated window but rule operations stay exact
    dom = ideal_window(R25, 4)
    rep = check_axioms(builtin("integral_closure", R25), dom, (4,))
    assert rep.results[4].skipped == 0
    assert rep.results[4].checked == len(dom.elements) ** 2


def test_table_checks_skip_out_of_domain_products():
    dom = ideal_window(R25, 4)
    table = {I: I for I in dom.elements}
    op = ClosureOperation("id-table", "table", table=table)
    rep = check_axioms(op, dom, (4,))
    assert rep.passed()
    assert rep.results[4].skipped > 0


def test_axiom_report_json():
    dom = ideal_window(R25, 6)
    rep = check_axioms(builtin("integral_closure", R25), dom, (1, 5))
    js = rep.to_json(dom)
    assert js["axioms"]["1"]["verdict"] == "pass"
    assert js["axioms"]["5"]["verdict"] == "fail"
    assert js["axioms"]["5"]["witnesses"][0]["inputs"]


# ---------------------------------------------------------------------- sakuma


def test_sakuma_identity():
    dom = ideal_window(R345, 6)
    rep = sakuma_consistency(builtin("identity", R345), dom)
    assert rep.passed((4, 6, 8))
    assert rep.advisory  # stated for fractional ideals; informational here


def test_sakuma_rejects_integral_closure():
    dom = ideal_window(R25, 8)
    with pytest.raises(PreconditionNotMet):
        sakuma_consistency(builtin("integral_closure", R25), dom)


def test_sakuma_rejects_dvr_f_m_on_ideal_chain():
    dom = ideal_window(RDVR, 4)
    f2 = builtin("dvr_f_m", RDVR, m=2)
    rep5 = check_axioms(f2, dom, (5,))
    b = ideal_from_generators(RDVR, [RDVR.parse("t")])
    I = ideal_from_generators(RDVR, [RDVR.parse("t^3")])
    assert any(w.inputs == (b, I) for w in rep5.results[5].witnesses)
    with pytest.raises(PreconditionNotMet):
        sakuma_consistency(f2, dom)


def test_dvr_f_g_are_semiprime_on_ideal_chain():
    for D in (4, 8, 12):
        dom = ideal_window(RDVR, D)
        for m in range(D + 1):
            for name in ("dvr_f_m", "dvr_g_m"):
                rep = check_axioms(builtin(name, RDVR, m=m), dom, (1, 2, 3, 4))
                assert rep.passed(), (name, m, D)


# ------------------------------------------------------------------ fractional


def test_chain_domain_semantics():
    ch = ChainDomain(3)
    assert ch.product(2, -1) == 1
    assert ch.sum(2, -1) == -1
    assert ch.intersect(2, -1) == 2
    assert ch.contains(-1, 2)  # P^-1 contains P^2


def test_element_chain_indices_match_ideal_products():
    # on the nonnegative part of the chain, s^i.R really is the i-th power
    from semiprime_lab.ideals import contains, product

    s = R25.parse("t^2")
    powers = {0: ideal_from_generators(R25, [R25.parse("1")])}
    f = s
    for i in range(1, 5):
        powers[i] = ideal_from_generators(R25, [f])
        f = series_mul(f, s)
    for i in range(3):
        for j in range(3):
            assert product(powers[i], powers[j]) == powers[i + j]
            assert contains(powers[i], powers[j]) == (i <= j)


def test_fractional_chain_validation():
    ChainDomain(3, R25.parse("t^2"))
    with pytest.raises(ValueError):
        ChainDomain(3, R25.parse("1+t^2"))


def test_chain_half_width_is_bounded_by_the_exponent_limit():
    assert ChainDomain(MAX_EXPONENT).D == MAX_EXPONENT
    for D in (0, MAX_EXPONENT + 1):
        with pytest.raises(ValueError, match=f"^chain half-width must be within 1..{MAX_EXPONENT}, got {D}$"):
            ChainDomain(D)


def test_bounded_candidate_witness_matches_proof_pattern():
    ch = ChainDomain(5)
    out = fractional_violation(ch, {i: min(i, 2) for i in range(-5, 6)})
    assert out.kind == "witness" and out.verified
    w = out.witness
    assert (w["i"], w["j"]) == (3, -1)
    assert (w["lhs"], w["rhs"]) == ("P^1", "P^2")


def test_enlarging_candidate_witnessed_at_R_R():
    ch = ChainDomain(5)
    table = {i: i for i in range(-5, 6)}
    table[0] = -1
    out = fractional_violation(ch, table)
    assert out.kind == "witness" and out.verified
    assert (out.witness["i"], out.witness["j"]) == (0, 0)


def test_identity_certified():
    ch = ChainDomain(5)
    out = fractional_violation(ch, {i: i for i in range(-5, 6)})
    assert out.kind == "certified_identity_only"


def test_element_chain_witness():
    ch = ChainDomain(5, R25.parse("t^2"))
    out = fractional_violation(ch, {i: min(i, 1) for i in range(-5, 6)})
    assert out.kind == "witness" and out.verified
    assert out.witness["j"] < 0
    assert "s^" in out.witness["rhs"] or out.witness["rhs"] == "R"


def test_non_extensive_candidate_flagged():
    ch = ChainDomain(4)
    table = {i: i for i in range(-4, 5)}
    table[2] = 3  # f(P^2) = P^3 does not contain P^2
    out = fractional_violation(ch, table)
    assert out.kind == "witness"
    assert out.witness["axiom"] == 1
