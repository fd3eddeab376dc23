"""Exact truncated power series over small prime fields.

Every series carries its own validity bound: coefficients are stored for
exponents ``0..bound-1`` and nothing beyond the bound is ever consulted.
Series are the generators and elements that ideals are built from; the
ideal arithmetic itself works on canonical windows (see ``ideals``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NotInRing
from .semigroup import NumericalSemigroup

_PRIMES_TO_97 = frozenset(
    {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
     67, 71, 73, 79, 83, 89, 97}
)


@dataclass(frozen=True)
class PrimeField:
    """Prime field F_p, 2 <= p <= 97; arithmetic is exact mod p."""

    p: int

    def __post_init__(self):
        if self.p not in _PRIMES_TO_97:
            raise ValueError(f"p must be a prime in [2, 97], got {self.p}")


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficient vector on exponents ``0..bound-1`` over a prime field.

    ``semigroup`` is the optional support constraint: when set, every
    nonzero coefficient must sit at an exponent of the semigroup, i.e. the
    series is an element of K[[t^S]] rather than of K[[t]].
    """

    field: PrimeField
    coeffs: tuple[int, ...]
    semigroup: NumericalSemigroup | None = None

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "coeffs", tuple(c % p for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs bound >= 1")
        if self.semigroup is not None:
            for e, c in enumerate(self.coeffs):
                if c and not self.semigroup.contains(e):
                    raise NotInRing(
                        f"coefficient at t^{e}, but {e} is a gap of {self.semigroup}"
                    )

    @property
    def bound(self) -> int:
        return len(self.coeffs)

    def order(self) -> int | None:
        """Least exponent with a nonzero coefficient, None for zero."""
        for e, c in enumerate(self.coeffs):
            if c:
                return e
        return None

    def is_zero(self) -> bool:
        return self.order() is None

    def padded(self, bound: int) -> "TruncatedSeries":
        """Zero-extend to ``bound``; caller asserts the tail is exactly zero."""
        if bound <= self.bound:
            return self
        return TruncatedSeries(
            self.field, self.coeffs + (0,) * (bound - self.bound), self.semigroup
        )

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
                continue
            tp = "t" if e == 1 else f"t^{e}"
            parts.append(tp if c == 1 else f"{c}{tp}")
        return " + ".join(parts) if parts else "0"


# The largest exponent a series text may name.  Its coefficient vector is
# dense, so a larger exponent would allocate memory in proportion to it.
MAX_EXPONENT = 100_000

_TERM_RE = re.compile(r"^([0-9]+)?\*?(t(?:\^([0-9]+))?)?$")


def parse_series(field: PrimeField, text: str, bound: int | None = None,
                 semigroup: NumericalSemigroup | None = None) -> TruncatedSeries:
    """Parse ``c t^e`` terms joined by ``+`` (exponents in any order).

    Accepted terms: ``7``, ``t``, ``t^5``, ``3t^5``, ``3*t^5``.  The default
    bound is one past the largest exponent, i.e. the text is read as an
    exact polynomial.  An exponent above ``MAX_EXPONENT`` is refused.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty series text")
    if s[0] not in "+-":
        s = "+" + s
    terms = re.findall(r"[+-][^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse series {text!r}")
    acc: dict[int, int] = {}
    for t in terms:
        sign, body = t[0], t[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"bad term {t!r} in {text!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            e = 0
        elif m.group(3) is None:
            e = 1
        else:
            e = int(m.group(3))
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} in {text!r} exceeds the limit {MAX_EXPONENT}")
        acc[e] = acc.get(e, 0) + (-c if sign == "-" else c)
    top = max(acc)
    b = bound if bound is not None else top + 1
    if b <= top:
        raise ValueError(f"bound {b} too small for exponent {top}")
    coeffs = [0] * b
    for e, c in acc.items():
        coeffs[e] = c % field.p
    return TruncatedSeries(field, tuple(coeffs), semigroup)


def monomial(field: PrimeField, e: int, bound: int | None = None,
             semigroup: NumericalSemigroup | None = None) -> TruncatedSeries:
    b = bound if bound is not None else e + 1
    coeffs = [0] * b
    coeffs[e] = 1
    return TruncatedSeries(field, tuple(coeffs), semigroup)
