import random

import pytest
from hypothesis import given, settings, strategies as st

from semiprime_lab.errors import FieldMismatch, NotInRing
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import MAX_EXPONENT, PrimeField, TruncatedSeries, monomial, parse_series

from oracles import NotAUnit, series_invert_unit, series_mul

F2 = PrimeField(2)
F3 = PrimeField(3)


def s(field, text, bound=None):
    return parse_series(field, text, bound)


def test_prime_field_validation():
    PrimeField(97)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(101)


def test_mul_monomial_shift():
    f = s(F2, "t^2+t^5", 8)
    g = s(F2, "t^2", 8)
    assert str(series_mul(f, g)) == "t^4 + t^7"


def test_mul_char2_square():
    f = s(F2, "1+t^2", 6)
    assert str(series_mul(f, f)) == "1 + t^4"


def test_mul_shifts_low_terms():
    f = s(F2, "t^2", 10)
    g = s(F2, "t^4+t^5", 10)
    assert str(series_mul(f, g)) == "t^6 + t^7"


def test_mul_bound_tracking():
    # result trustworthy up to min(bound_f + ord g, bound_g + ord f)
    f = s(F2, "1+t", 4)       # bound 4, order 0
    g = s(F2, "t^2", 7)       # bound 7, order 2
    assert series_mul(f, g).bound == min(4 + 2, 7 + 0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        series_mul(s(F2, "t"), s(F3, "t"))


def test_invert_identity():
    one = s(F2, "1", 5)
    assert str(series_invert_unit(one)) == "1"


def test_invert_one_plus_t_f2():
    u = s(F2, "1+t", 4)
    assert series_invert_unit(u).coeffs == (1, 1, 1, 1)
    assert str(series_mul(u, series_invert_unit(u))) == "1"


def test_invert_f3():
    u = s(F3, "1+t^2", 5)
    assert series_invert_unit(u).coeffs == (1, 0, 2, 0, 1)


def test_invert_requires_unit():
    with pytest.raises(NotAUnit):
        series_invert_unit(s(F2, "t"))
    with pytest.raises(NotAUnit):
        series_invert_unit(TruncatedSeries(F2, (0, 0, 0)))


def test_invert_multiply_back_randomized():
    rng = random.Random(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in (range(340) if p == 5 else range(330)):
            b = rng.randint(2, 12)
            coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(b - 1)]
            u = TruncatedSeries(field, tuple(coeffs))
            prod = series_mul(u, series_invert_unit(u))
            assert prod.coeffs[0] == 1 and not any(prod.coeffs[1:])


def test_ring_constraint_rejects_gap_support():
    S = from_generators([2, 5])
    with pytest.raises(NotInRing):
        TruncatedSeries(F2, (0, 0, 0, 1), S)  # t^3 is a gap
    TruncatedSeries(F2, (0, 0, 1, 0, 0, 1), S)  # t^2 + t^5 is fine


def test_ring_constraint_propagates_through_mul():
    S = from_generators([2, 5])
    f = TruncatedSeries(F2, (0, 0, 1, 0, 1, 0, 0, 0, 0, 0), S)  # t^2 + t^4
    g = TruncatedSeries(F2, (0, 0, 0, 0, 0, 1, 0, 0, 0, 0), S)  # t^5
    h = series_mul(f, g)
    assert h.semigroup == S  # supports stay inside S under products
    plain = TruncatedSeries(F2, (1, 0, 1))
    assert series_mul(f, plain).semigroup is None


def test_parse_and_print():
    assert str(s(F2, "t^5 + 3t^2")) == "t^2 + t^5"
    assert str(s(F3, "2t^3+t")) == "t + 2t^3"
    assert str(s(F3, "4")) == "1"
    assert str(s(F2, "2")) == "0"
    assert str(s(F3, "2*t^2")) == "2t^2"
    with pytest.raises(ValueError):
        parse_series(F2, "t^^2")
    with pytest.raises(ValueError):
        parse_series(F2, "")


def test_parse_refuses_exponents_above_the_limit():
    assert parse_series(F2, f"t^{MAX_EXPONENT}").bound == MAX_EXPONENT + 1
    with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} in .* exceeds the limit"):
        parse_series(F2, f"1+t^{MAX_EXPONENT + 1}")


def test_order_and_zero():
    assert s(F2, "t^3+t^5").order() == 3
    assert TruncatedSeries(F2, (0, 0)).order() is None
    assert monomial(F2, 4).order() == 4


coeff_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=9)


@settings(max_examples=120, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, st.sampled_from([2, 3, 5]))
def test_mul_commutative_associative(a, b, c, p):
    field = PrimeField(p)
    fa = TruncatedSeries(field, tuple(a))
    fb = TruncatedSeries(field, tuple(b))
    fc = TruncatedSeries(field, tuple(c))
    ab = series_mul(fa, fb)
    ba = series_mul(fb, fa)
    assert ab.coeffs == ba.coeffs
    left = series_mul(ab, fc)
    right = series_mul(fa, series_mul(fb, fc))
    common = min(left.bound, right.bound)
    assert left.coeffs[:common] == right.coeffs[:common]
