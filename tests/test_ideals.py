import random
import tracemalloc
from collections import Counter
from itertools import product as iproduct

import pytest

from semiprime_lab.errors import (
    InfeasibleEnumeration,
    InsufficientPrecision,
    NotInRing,
    NotProper,
    RingMismatch,
    UnitInput,
    UnsupportedSemigroup,
    ZeroInput,
)
from semiprime_lab import ideals as ideals_module
from semiprime_lab.ideals import (
    Ring,
    canonical_principal_form,
    classify_shape,
    contains,
    element_in_ideal,
    enumerate_ideals,
    gap_coefficient_exponents,
    ideal_from_generators,
    ideal_label,
    ideal_sum,
    integral_closure_ideal,
    intersect,
    min_generators,
    product,
    unit_ideal,
    zero_ideal,
)
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField, TruncatedSeries

from oracles import (
    enumerate_ideals_oracle,
    ideal_windows_oracle,
    principal_coeffs_oracle,
    rref_count_oracle,
    span,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
R25 = Ring(from_generators([2, 5]), F2)
R25_3 = Ring(from_generators([2, 5]), F3)
R27 = Ring(from_generators([2, 7]), F2)
R345 = Ring(from_generators([3, 4, 5]), F2)
RDVR = Ring(from_generators([1]), F2)


def ideal(ring, *texts):
    return ideal_from_generators(ring, [ring.parse(t) for t in texts])


# ---------------------------------------------------------------- generators


def test_from_generators_tail_saturation():
    I = ideal(R25, "t^4+t^5+t^6+t^7")
    assert I.order == 4
    assert I.window == ((1, 1, 0, 0), (0, 0, 1, 1))  # basis {t^4+t^5, t^6+t^7}


def test_from_generators_two_generated_cases():
    # second generator t^6+t^7 is absorbed: the ideal is principal
    J = ideal(R25, "t^4+t^5+t^7", "t^6+t^7")
    assert classify_shape(J).code() == "PRINCIPAL(4; 1, 1)"
    # with t^6 instead the pair really needs two generators
    K = ideal(R25, "t^4+t^5+t^7", "t^6")
    assert classify_shape(K).code() == "TWO_GEN_A(4; 1)"
    assert ideal_label(K) == "(t^4+t^5, t^7)"


def test_from_generators_zero_and_unit():
    assert ideal_from_generators(R25, [TruncatedSeries(F2, (0, 0, 0))]).is_zero()
    assert ideal_from_generators(R25, []).is_zero()
    assert ideal(R25, "1+t^2").is_unit()


def test_generating_set_independence_simple():
    a = ideal(R25, "t^4+t^5", "t^6+t^7")
    b = ideal(R25, "t^4+t^5")
    assert a == b


def test_insufficient_precision():
    f = TruncatedSeries(F2, (0, 0, 0, 0, 1, 1), from_generators([2, 5]))  # bound 6 < 4+4
    with pytest.raises(InsufficientPrecision):
        ideal_from_generators(R25, [f])


def test_not_in_ring():
    with pytest.raises(NotInRing):
        ideal_from_generators(R25, [TruncatedSeries(F2, (0, 0, 0, 1))])


# ------------------------------------------------------------ principal form


def test_canonical_principal_form_unit_multiple():
    tag = canonical_principal_form(R25, R25.parse("t^4+t^6"))
    assert tag.code() == "PRINCIPAL(4; 0, 0)"
    assert tag.ideal_str() == "(t^4)"


def test_canonical_principal_form_paper_reduction():
    tag = canonical_principal_form(R25, R25.parse("t^4+t^5+t^6+t^7"))
    assert tag.code() == "PRINCIPAL(4; 1, 0)"


def test_canonical_principal_form_345():
    tag = canonical_principal_form(
        Ring(from_generators([3, 4, 5]), F3), Ring(from_generators([3, 4, 5]), F3).parse("t^3+2t^4+t^5")
    )
    assert tag.code() == "PRINCIPAL(3; 2, 1)"


def test_canonical_principal_form_errors():
    with pytest.raises(ZeroInput):
        canonical_principal_form(R25, TruncatedSeries(F2, (0, 0)))
    with pytest.raises(UnitInput):
        canonical_principal_form(R25, R25.parse("1+t^2"))
    bad = Ring(from_generators([4, 5, 6, 7]), F2)
    with pytest.raises(UnsupportedSemigroup):
        canonical_principal_form(bad, bad.parse("t^4"))


def _all_principal_inputs(ring, max_order):
    """Every truncated nonunit element shape: order n and all window
    coefficient tuples allowed by the support mask."""
    S = ring.semigroup
    c = S.conductor
    p = ring.field.p
    for n in range(1, max_order + 1):
        if not S.contains(n):
            continue
        offsets = [j for j in range(1, c) if S.contains(n + j)]
        for values in iproduct(range(p), repeat=len(offsets)):
            coeffs = [0] * (n + c + 1)
            coeffs[n] = 1
            a = {}
            for j, v in zip(offsets, values):
                coeffs[n + j] = v
                a[j] = v
            yield n, a, TruncatedSeries(ring.field, tuple(coeffs), S)


@pytest.mark.parametrize("ring", [R25, R25_3, R27, Ring(from_generators([2, 7]), F3)])
def test_principal_form_matches_closed_form_oracle(ring):
    for n, a, f in _all_principal_inputs(ring, 8):
        tag = canonical_principal_form(ring, f)
        oracle = principal_coeffs_oracle(a, ring.field.p)
        exps = gap_coefficient_exponents(ring, n)
        assert len(tag.params) == len(exps)
        for e, got in zip(exps, tag.params):
            assert got == oracle[e - n], (ring, n, a, e)


# ------------------------------------------------------------------- product


def test_product_345_paper_formula():
    f = ideal(R345, "t^3+t^4")
    sq = product(f, f)
    assert classify_shape(sq).code() == "PRINCIPAL(6; 0, 1)"


def test_product_345_formula_all_pairs():
    R = Ring(from_generators([3, 4, 5]), F3)
    pairs = [(a, b) for a in range(3) for b in range(3)]
    for (a, b), (c, d) in iproduct(pairs, pairs):
        f = ideal_from_generators(R, [R.parse(f"t^3+{a}t^4+{b}t^5")])
        g = ideal_from_generators(R, [R.parse(f"t^4+{c}t^5+{d}t^6")])
        tag = classify_shape(product(f, g))
        assert tag.family == "PRINCIPAL"
        assert tag.params == ((a + c) % 3, (a * c + b + d) % 3)


def test_product_unit_zero_laws():
    I = ideal(R25, "t^4+t^5", "t^7")
    assert product(I, unit_ideal(R25)) == I
    assert product(I, zero_ideal(R25)).is_zero()


def test_product_brute_force_span_example():
    m = ideal(R25, "t^2", "t^5")
    sq = product(m, m)
    assert ideal_label(sq) == "(t^4, t^7)"
    # independent check: saturate {t^4, t^7, t^10} directly
    direct = ideal(R25, "t^4", "t^7", "t^10")
    assert sq == direct


def test_product_orders_add_and_commute():
    es = enumerate_ideals(R345, 6)
    proper = [I for I in es if I.is_proper()]
    for I in proper:
        for J in proper:
            P = product(I, J)
            assert P.order == I.order + J.order
            assert P == product(J, I)


def test_product_associative_on_enumerated_set():
    es = enumerate_ideals(R345, 6)
    cache = {}

    def mul(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = product(a, b)
            cache[(b, a)] = cache[key]
        return cache[key]

    for I in es:
        for J in es:
            for K in es:
                assert mul(mul(I, J), K) == mul(I, mul(J, K))


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        product(ideal(R25, "t^2"), ideal(R345, "t^3"))


# ------------------------------------------------------- sum/intersect/contains


def test_sum_absorbs_multiple():
    a = ideal(R25, "t^4+t^5")
    b = ideal(R25, "t^6+t^7")
    assert ideal_sum(a, b) == a


def test_sum_unit_zero():
    a = ideal(R25, "t^4")
    assert ideal_sum(a, unit_ideal(R25)).is_unit()
    assert ideal_sum(a, zero_ideal(R25)) == a


def test_contains_lattice_edge():
    assert contains(ideal(R25, "t^4", "t^5"), ideal(R25, "t^5", "t^6"))
    assert not contains(ideal(R25, "t^5", "t^6"), ideal(R25, "t^4", "t^5"))


def test_contains_and_sum_across_wide_order_gaps():
    # order gap beyond the conductor: the deeper window sits in the tail
    I = ideal(R25, "t^2")
    deep = ideal(R25, "t^7", "t^9", "t^10")
    assert contains(I, deep)
    assert not contains(I, ideal(R25, "t^5"))  # t^5 is not in (t^2)
    assert ideal_sum(I, deep) == I
    assert ideal_sum(ideal(R25, "t^2+t^5"), ideal(R25, "t^9")) == ideal(R25, "t^2+t^5")
    J345 = ideal(R345, "t^3", "t^4", "t^5")
    assert contains(J345, ideal(R345, "t^8+t^9"))


def test_intersect_idempotent_and_frame():
    I = ideal(R25, "t^4", "t^5")
    assert intersect(I, I) == I
    # (t^2+t^5) and (t^2) meet in an order-4 ideal: no common order-2 element
    a = ideal(R25, "t^2+t^5")
    b = ideal(R25, "t^2")
    m = intersect(a, b)
    assert m.order >= 4
    # the meet is the largest ideal inside both
    assert contains(a, m) and contains(b, m)
    es = enumerate_ideals(R25, 8)
    for X in es:
        if X.is_proper() and contains(a, X) and contains(b, X):
            assert contains(m, X)


def test_sum_and_intersect_against_membership():
    a = ideal(R25, "t^4+t^5")
    b = ideal(R25, "t^6")
    s = ideal_sum(a, b)
    assert element_in_ideal(R25.parse("t^4+t^5"), s)
    assert element_in_ideal(R25.parse("t^6"), s)
    assert contains(s, a) and contains(s, b)
    m = intersect(a, b)
    assert contains(a, m) and contains(b, m)


def test_intersect_is_greatest_lower_bound():
    es = enumerate_ideals(R25, 6)
    for I in es:
        for J in es:
            m = intersect(I, J)
            assert contains(I, m) and contains(J, m)
            for X in es:
                if contains(I, X) and contains(J, X):
                    assert contains(m, X)


def test_lattice_absorption_laws():
    es = enumerate_ideals(R345, 5)
    for I in es:
        for J in es:
            assert intersect(I, ideal_sum(I, J)) == I
            assert ideal_sum(I, intersect(I, J)) == I


def test_product_distributes_over_sum():
    es = [X for X in enumerate_ideals(R25, 6) if X.is_proper()]
    import random as _r

    rng = _r.Random(11)
    for _ in range(300):
        I, J, K = (es[rng.randrange(len(es))] for _ in range(3))
        assert product(I, ideal_sum(J, K)) == ideal_sum(product(I, J), product(I, K))


def test_contains_partial_order_on_enumerated_set():
    es = enumerate_ideals(R345, 6)
    rel = {(i, j): contains(I, J) for i, I in enumerate(es) for j, J in enumerate(es)}
    n = len(es)
    for i in range(n):
        assert rel[(i, i)]
        for j in range(n):
            if i != j and rel[(i, j)] and rel[(j, i)]:
                raise AssertionError("antisymmetry violated")
            for k in range(n):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


# ------------------------------------------------------------- min_generators


def test_min_generators_examples():
    assert min_generators(ideal(R25, "t^4", "t^5")) == 2
    assert min_generators(ideal(R345, "t^3", "t^4", "t^5")) == 3
    assert min_generators(ideal(R25, "t^4+t^5+t^7")) == 1
    with pytest.raises(NotProper):
        min_generators(unit_ideal(R25))


def test_min_generators_bounded_by_family():
    for ring, bound in ((R25, 2), (R27, 2), (R345, 3)):
        for I in enumerate_ideals(ring, 9):
            if I.is_proper():
                assert 1 <= min_generators(I) <= bound


# ------------------------------------------------------------ integral closure


def test_integral_closure_examples():
    assert ideal_label(integral_closure_ideal(ideal(R25, "t^5"))) == "(t^5, t^6)"
    three = ideal(R345, "t^4", "t^5", "t^6")
    assert integral_closure_ideal(three) == three
    assert ideal_label(integral_closure_ideal(ideal(R25, "t^2+t^5"))) == "(t^2, t^5)"
    with pytest.raises(NotProper):
        integral_closure_ideal(zero_ideal(R25))


# ----------------------------------------------------------------- enumerate


def test_enumerate_small_window():
    labels = [ideal_label(I) for I in enumerate_ideals(R25, 2)]
    assert labels == ["R", "(t^2)", "(t^2, t^5)", "(t^2+t^5)"]


def test_enumerate_below_multiplicity():
    assert [I.kind for I in enumerate_ideals(R25, 1)] == ["unit"]


@pytest.mark.parametrize(
    "ring,max_order",
    [(R25, 6), (R345, 5), (Ring(from_generators([2, 5]), F3), 5)],
)
def test_enumerate_matches_subspace_oracle(ring, max_order):
    S = ring.semigroup
    c = S.conductor
    p = ring.field.p
    spans = {}
    for I in enumerate_ideals(ring, max_order):
        if I.is_proper():
            spans.setdefault(I.order, []).append(span(I.window, c, p))
    for n in range(1, max_order + 1):
        if not S.contains(n):
            assert n not in spans
            continue
        count, windows = ideal_windows_oracle(S.contains, S.generators, n, c, p)
        assert len(spans[n]) == count, f"order {n}"
        assert set(spans[n]) == set(windows), f"order {n}"


def test_enumerate_matches_subspace_oracle_2_7_spot():
    S = R27.semigroup
    per_order = Counter(I.order for I in enumerate_ideals(R27, 6) if I.is_proper())
    for n in (2, 4, 6):
        count, _ = ideal_windows_oracle(S.contains, S.generators, n, S.conductor, 2)
        assert per_order[n] == count


@pytest.mark.parametrize(
    "gens,p,max_order",
    [
        ((1,), 3, 8),
        ((2, 5), 2, 10),
        ((2, 5), 5, 8),
        ((2, 5), 7, 8),
        ((2, 7), 2, 10),
        ((2, 7), 3, 6),
        ((2, 9), 2, 7),
        ((3, 4, 5), 3, 8),
        ((3, 5, 7), 2, 10),
        ((4, 5, 6, 7), 2, 10),
        ((3, 4), 2, 8),
        ((4, 5, 7), 2, 6),
    ],
    ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_enumerate_matches_brute_force_enumerator(gens, p, max_order):
    ring = Ring(from_generators(list(gens)), PrimeField(p))
    assert enumerate_ideals(ring, max_order) == enumerate_ideals_oracle(ring, max_order)


def test_enumerate_grows_each_allowed_column_set_once(monkeypatch):
    # <2,7> over F_2 at order 12: nine orders in S allow three column sets,
    # {0,2,4,5} at order 2, {0,2,3,4,5} at order 4 and all six from order 6
    grown = []
    real = ideals_module._shift_closed_windows

    def recording(allowed, *args):
        grown.append(tuple(allowed))
        return real(allowed, *args)

    monkeypatch.setattr(ideals_module, "_shift_closed_windows", recording)
    ring = Ring(from_generators([2, 7]), F2)
    ideals = enumerate_ideals(ring, 12)
    assert grown == [(0, 2, 4, 5), (0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)]
    assert len({I.order for I in ideals if I.is_proper()}) == 9
    assert ideals == enumerate_ideals_oracle(ring, 12)


def test_enumerate_forms_few_shift_images(monkeypatch):
    # Forming every RREF matrix whole and testing it afterwards takes
    # 2,118,398 shift images here; growing the rows prunes early.
    formed = 0
    real_shift = ideals_module._shift

    def counting_shift(*args):
        nonlocal formed
        formed += 1
        return real_shift(*args)

    monkeypatch.setattr(ideals_module, "_shift", counting_shift)
    ring = Ring(from_generators([2, 9]), F2)
    assert len(enumerate_ideals(ring, 12)) == 181
    assert formed < 50_000


def test_enumerate_deterministic():
    a = enumerate_ideals(R345, 6)
    b = enumerate_ideals(R345, 6)
    assert a == b
    orders = [I.order for I in a if I.is_proper()]
    assert orders == sorted(orders)


def test_enumerate_budget():
    from semiprime_lab.errors import InfeasibleEnumeration

    with pytest.raises(InfeasibleEnumeration):
        enumerate_ideals(R27, 10, budget=10)
    # the refusal boundary sits exactly at the count of RREF matrices
    R29 = Ring(from_generators([2, 9]), F2)
    with pytest.raises(InfeasibleEnumeration, match="^3521028 candidate matrices exceed budget 3521027$"):
        enumerate_ideals(R29, 16, budget=3_521_027)
    assert len(enumerate_ideals(R29, 16, budget=3_521_028)) == 305
    with pytest.raises(InfeasibleEnumeration, match="^456449996 candidate"):
        enumerate_ideals(Ring(from_generators([2, 5]), PrimeField(97)), 8)


def _matrix_count_per_order(ring, max_order):
    """The guard's total, order by order: the RREF matrices on each order's
    allowed columns (one, the empty matrix, when c = 0)."""
    S, c, p = ring.semigroup, ring.conductor, ring.field.p
    total = 0
    for n in range(1, max_order + 1):
        if S.contains(n):
            allowed = [j for j in range(c) if S.contains(n + j)]
            total += rref_count_oracle(allowed, p) if allowed else 1
    return total


@pytest.mark.parametrize("gens, p", [([1], 2), ([2, 5], 2), ([2, 7], 3), ([3, 4, 5], 2), ([3, 5, 7], 2)])
def test_enumeration_guard_total_in_closed_form_matches_per_order_sum(gens, p):
    ring = Ring(from_generators(gens), PrimeField(p))
    for max_order in range(0, ring.conductor + 4):
        total = _matrix_count_per_order(ring, max_order)
        if total:
            with pytest.raises(InfeasibleEnumeration,
                               match=f"^{total} candidate matrices exceed budget {total - 1}$"):
                enumerate_ideals(ring, max_order, budget=total - 1)
        enumerate_ideals(ring, max_order, budget=total)


@pytest.mark.parametrize("gens, max_order, total", [([2, 5], 10**8, 5_099_999_858), ([1], 3 * 10**6, 3_000_000)])
def test_enumeration_past_the_budget_is_refused_before_any_per_order_list(gens, max_order, total):
    ring = Ring(from_generators(gens), F2)
    tracemalloc.start()
    try:
        with pytest.raises(InfeasibleEnumeration,
                           match=f"^{total} candidate matrices exceed budget 2000000$"):
            enumerate_ideals(ring, max_order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_rref_count_matches_pivot_walk(p):
    cases = [list(range(m)) for m in range(1, 13)] + [[0, 2, 3, 5, 8, 9], [0, 1, 4, 6]]
    for allowed in cases:
        assert ideals_module._rref_count(len(allowed), p) == rref_count_oracle(allowed, p)


# -------------------------------------------------------------------- classify


def test_classify_examples():
    I = ideal(R25, "t^5+t^6", "t^8")
    assert classify_shape(I).code() == "TWO_GEN_A(5; 1)"
    J = ideal(R345, "t^4+t^6", "t^5+t^6")
    tag = classify_shape(J)
    assert tag.code() == "TWO_GEN_B(4; 1, 1)"
    assert tag.ideal_str() == "(t^4+t^6, t^5+t^6)"
    K = ideal(R25, "t^6", "t^7")
    assert classify_shape(K).code() == "TWO_GEN_B(6)"
    assert ideal_label(K) == "(t^6, t^7)"


def test_classify_principal_consistency():
    f = R25.parse("t^6+t^7+t^9")
    assert classify_shape(ideal_from_generators(R25, [f])) == canonical_principal_form(R25, f)


def test_classify_round_trip_everywhere():
    for ring, mo in ((R25, 10), (R27, 10), (R345, 9), (Ring(from_generators([2, 3]), F3), 8)):
        for I in enumerate_ideals(ring, mo):
            if not I.is_proper():
                continue
            tag = classify_shape(I)  # raises UnclassifiedIdeal on round-trip failure
            back = ideal_from_generators(ring, tag.expand(ring))
            assert back == I


def test_classify_unsupported():
    bad = Ring(from_generators([4, 5, 6, 7]), F2)
    with pytest.raises(UnsupportedSemigroup):
        classify_shape(ideal_from_generators(bad, [bad.parse("t^4")]))


def test_classify_needs_proper():
    with pytest.raises(NotProper):
        classify_shape(unit_ideal(R25))


# ------------------------------------------------------------------ DVR ring


def test_dvr_ideals():
    P2 = ideal(RDVR, "t^2")
    P3 = ideal(RDVR, "t^3+t^4")
    assert P3 == ideal(RDVR, "t^3")  # c = 0: order determines the ideal
    assert product(P2, P3).order == 5
    assert contains(P2, P3) and not contains(P3, P2)
    assert ideal_sum(P2, P3) == P2
    assert intersect(P2, P3) == P3
    assert min_generators(P2) == 1
    assert [I.order for I in enumerate_ideals(RDVR, 4)] == [0, 1, 2, 3, 4]
    assert classify_shape(P2).code() == "PRINCIPAL(2)"


@pytest.mark.parametrize("p", [2, 5])
def test_dvr_membership_closure_and_generators_match_closed_forms(p):
    # in K[[t]] the ideal (t^n) holds f iff ord f >= n, every ideal is
    # integrally closed, and every proper ideal needs one generator
    ring = Ring(from_generators([1]), PrimeField(p))
    rng = random.Random(p)
    series = [ring.parse("0")]
    for m in range(9):
        terms = [f"{rng.randrange(1, p)}t^{m}"]
        terms += [f"{rng.randrange(p)}t^{e}" for e in range(m + 1, m + 4)]
        series.append(ring.parse("+".join(terms)))
    ideals = [I for I in enumerate_ideals(ring, 7) if I.is_proper()]
    assert [I.order for I in ideals] == list(range(1, 8))
    for I in ideals:
        assert I == ideal(ring, f"t^{I.order}")
        for f in series:
            assert element_in_ideal(f, I) == (f.is_zero() or f.order() >= I.order)
        assert integral_closure_ideal(I) == I
        assert min_generators(I) == 1


# ------------------------------------------------------ canonicalization fuzz


def test_canonicalization_is_generating_set_independent_fuzz():
    rng = random.Random(20250809)
    pool = []
    for ring in (R25, R345, Ring(from_generators([2, 5]), F3)):
        pool.extend((ring, I) for I in enumerate_ideals(ring, 8) if I.is_proper())
    for _ in range(1000):
        ring, I = pool[rng.randrange(len(pool))]
        p = ring.field.p
        c = ring.semigroup.conductor
        n = I.order
        rows = [list(r) for r in I.window]
        k = len(rows)
        # random invertible change of basis over F_p
        while True:
            M = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
            from semiprime_lab.linalg import rref

            if len(rref(M, p)[0]) == k:
                break
        new_rows = [
            [sum(M[i][j] * rows[j][col] for j in range(k)) % p for col in range(c)]
            for i in range(k)
        ]
        gens = []
        for row in new_rows:
            coeffs = [0] * (n + 2 * c + 1)
            for j, v in enumerate(row):
                coeffs[n + j] = v
            # random tail inside the automatic part t^(n+c)K[[t]] (members of I)
            for e in range(n + c, n + 2 * c):
                if ring.semigroup.contains(e):
                    coeffs[e] = rng.randrange(p)
            gens.append(TruncatedSeries(ring.field, tuple(coeffs), ring.semigroup))
        if rng.random() < 0.3:
            gens.append(ring.monomial(n + c + rng.randrange(c)))
        assert ideal_from_generators(ring, gens) == I
