"""Canonical forms, arithmetic, classification and lattices for ideals of K[[t^S]].

A nonzero ideal I whose elements have minimal order n contains every
series of order at least n + c, where c is the conductor of S: an order-n
element factors as t^n * h with h a unit of K[[t]], and for r >= n + c the
cofactor t^(r-n) * h^(-1) has order >= c, hence is supported on S and lies
in the ring.  The ideal is therefore determined exactly by its order n and
by the K-span of its elements' coefficient windows on exponents
[n, n + c).  Everything below works on that window (stored in reduced row
echelon form), so equality of canonical forms is bitwise and no operation
ever loses precision, whatever the order involved.
"""

from __future__ import annotations

from itertools import product as iter_product

from .errors import (
    FieldMismatch,
    InfeasibleEnumeration,
    InsufficientPrecision,
    NotInRing,
    NotProper,
    RingMismatch,
    UnclassifiedIdeal,
    UnitInput,
    UnsupportedSemigroup,
    ZeroInput,
)
from .frozen import Frozen, set_field
from .linalg import in_rowspace, rowspaces_intersect, rref
from .semigroup import NumericalSemigroup
from .series import PrimeField, TruncatedSeries, monomial, parse_series

ZERO = "zero"
UNIT = "unit"
PROPER = "proper"


class Ring(Frozen):
    """The power-series ring K[[t^S]] for a numerical semigroup S."""

    __slots__ = _fields = ("semigroup", "field")

    def __init__(self, semigroup: NumericalSemigroup, field: PrimeField):
        set_field(self, "semigroup", semigroup)
        set_field(self, "field", field)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.semigroup, self.field) == (other.semigroup, other.field)
        return NotImplemented

    def __hash__(self):
        return hash((self.semigroup, self.field))

    @property
    def conductor(self) -> int:
        return self.semigroup.conductor

    def family(self) -> str | None:
        """Classification family the ring belongs to, if supported."""
        g = self.semigroup.generators
        if g == (1,):
            return "dvr"
        if len(g) == 2 and g[0] == 2:
            return "two_gen_odd"
        if g == (3, 4, 5):
            return "embdim3"
        return None

    def monomial(self, e: int) -> TruncatedSeries:
        return monomial(self.field, e, e + 2 * self.conductor + 2, self.semigroup)

    def parse(self, text: str) -> TruncatedSeries:
        raw = parse_series(self.field, text)
        b = raw.bound + 2 * self.conductor + 2
        return TruncatedSeries(self.field, raw.padded(b).coeffs, self.semigroup)

    def __str__(self) -> str:
        return f"F_{self.field.p}[[t^{self.semigroup}]]"


class IdealCanon(Frozen):
    """Canonical form of an ideal: kind, order and RREF coefficient window.

    Instances are memo keys throughout the search, so the hash and the sort
    key (``canonical_key``) are computed once, on first use, and kept in
    slots that take no part in equality or ``repr``.
    """

    _fields = ("ring", "kind", "order", "window")
    __slots__ = _fields + ("_hash", "_key")

    def __init__(self, ring: Ring, kind: str, order: int | None,
                 window: tuple[tuple[int, ...], ...]):
        set_field(self, "ring", ring)
        set_field(self, "kind", kind)
        set_field(self, "order", order)
        set_field(self, "window", window)
        set_field(self, "_hash", None)
        set_field(self, "_key", None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.ring, self.kind, self.order, self.window)
                    == (other.ring, other.kind, other.order, other.window))
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, self.kind, self.order, self.window))
            set_field(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return self.kind == ZERO

    def is_unit(self) -> bool:
        return self.kind == UNIT

    def is_proper(self) -> bool:
        return self.kind == PROPER

    def __str__(self) -> str:
        return ideal_label(self)


def canonical_key(I: IdealCanon):
    """Sort key: UNIT, then proper ideals by (order, window bytes), then ZERO.

    The tuple is built once per instance and shared by every caller."""
    k = I._key
    if k is None:
        if I.kind == UNIT:
            k = (0, 0, ())
        elif I.kind == PROPER:
            k = (1, I.order, I.window)
        else:
            k = (2, 0, ())
        set_field(I, "_key", k)
    return k


def zero_ideal(ring: Ring) -> IdealCanon:
    return IdealCanon(ring, ZERO, None, ())


def unit_ideal(ring: Ring) -> IdealCanon:
    return IdealCanon(ring, UNIT, 0, ())


def _proper(ring: Ring, order: int, window) -> IdealCanon:
    c = ring.conductor
    if c > 0:  # with c = 0 there is no window to check
        if not window or not window[0][0]:
            raise ValueError("window must witness the defining order")
        S = ring.semigroup
        for row in window:
            for j, v in enumerate(row):
                if v and not S.contains(order + j):
                    raise ValueError(f"window column {j} violates the support mask")
    return IdealCanon(ring, PROPER, order, tuple(tuple(r) for r in window))


def _shift(vec, g, c):
    if g >= c:
        return (0,) * c  # the whole row lands in the automatic tail
    return (0,) * g + vec[: c - g]


def _close_under_shifts(ring: Ring, vectors):
    """Close a window span under multiplication by the generator monomials."""
    c = ring.conductor
    p = ring.field.p
    gens = [g for g in ring.semigroup.generators if g < c]
    rows, piv = rref(vectors, p)
    while True:
        new = []
        for r in rows:
            for g in gens:
                s = _shift(r, g, c)
                if any(s) and not in_rowspace(s, rows, piv, p):
                    new.append(s)
        if not new:
            return rows, piv
        rows, piv = rref(list(rows) + new, p)


def ideal_from_generators(ring: Ring, gens) -> IdealCanon:
    """Canonical form of the ideal generated by ``gens``.

    The result is independent of the generating set; a generating set of
    all zeros gives ZERO and a unit generator gives UNIT.  Each generator
    must be ring-constrained and known at least up to ``order + c`` of the
    smallest order present, otherwise InsufficientPrecision is raised.
    """
    gens = list(gens)
    c = ring.conductor
    S = ring.semigroup
    orders = []
    for f in gens:
        if f.field != ring.field:
            raise FieldMismatch(f"generator over F_{f.field.p}, ring over F_{ring.field.p}")
        if f.semigroup != S:
            for e, coeff in enumerate(f.coeffs):
                if coeff and not S.contains(e):
                    raise NotInRing(f"generator has support at gap exponent {e}")
        orders.append(f.order())
    nonzero = [(f, m) for f, m in zip(gens, orders) if m is not None]
    if not nonzero:
        return zero_ideal(ring)
    n = min(m for _, m in nonzero)
    if n == 0:
        return unit_ideal(ring)
    vectors = []
    for f, m in nonzero:
        if m >= n + c:
            continue  # absorbed by the automatic tail
        if f.bound < n + c:
            raise InsufficientPrecision(
                f"generator of order {m} has bound {f.bound} < {n + c} = order + conductor"
            )
        vectors.append(tuple(f.coeffs[n : n + c]))
    rows, _ = _close_under_shifts(ring, vectors)
    return _proper(ring, n, rows)


def _same_ring(I: IdealCanon, J: IdealCanon):
    if I.ring != J.ring:
        raise RingMismatch(f"{I.ring} vs {J.ring}")


def _convolve_window(a, b, c, p):
    out = [0] * c
    for i, ai in enumerate(a):
        if ai:
            top = c - i
            for j, bj in enumerate(b[:top]):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def product(I: IdealCanon, J: IdealCanon) -> IdealCanon:
    """Canonical form of I*J; orders add, ZERO absorbs, UNIT is the identity."""
    _same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    ring = I.ring
    n = I.order + J.order
    c = ring.conductor
    p = ring.field.p
    # I and J are shift-closed, so t^g.ab = (t^g.a)b already lies in the span
    # of the row products: one row reduction, no closure pass.
    rows, _ = rref([_convolve_window(a, b, c, p) for a in I.window for b in J.window], p)
    return _proper(ring, n, rows)


def ideal_sum(I: IdealCanon, J: IdealCanon) -> IdealCanon:
    _same_ring(I, J)
    if I.is_unit() or J.is_unit():
        return unit_ideal(I.ring)
    if I.is_zero():
        return J
    if J.is_zero():
        return I
    ring = I.ring
    c = ring.conductor
    n = min(I.order, J.order)
    vecs = []
    for K in (I, J):
        d = K.order - n
        for r in K.window:
            v = _shift(r, d, c) if d else r
            if any(v):
                vecs.append(v)
    rows, _ = _close_under_shifts(ring, vecs)
    return _proper(ring, n, rows)


def _frame_rows(window, d, c):
    """RREF rows, d exponents on, of an ideal with RREF window ``window``:
    its window rows with pivot >= d, shifted left by d, then the unit rows
    that its tail puts on the last min(d, c) columns (already in RREF)."""
    rows = [r[d:] + (0,) * d for r in window if _pivot(r) >= d]
    return rows + [(0,) * j + (1,) + (0,) * (c - 1 - j) for j in range(max(c - d, 0), c)]


def intersect(I: IdealCanon, J: IdealCanon) -> IdealCanon:
    """I and J both contain W = t^(lo+c)K[[t]], so (I∩J)/W is the
    intersection of their frames on [lo, lo + c).  An intersection of ideals
    is an ideal, so no closure pass follows."""
    _same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    ring = I.ring
    c = ring.conductor
    lo = max(I.order, J.order)
    A = _frame_rows(I.window, lo - I.order, c)
    B = _frame_rows(J.window, lo - J.order, c)
    rows, piv = rowspaces_intersect(A, B, c, ring.field.p)
    off = piv[0] if piv else c  # an empty frame intersection leaves I∩J = W
    return _proper(ring, lo + off, _frame_rows(rows, off, c))


def contains(I: IdealCanon, J: IdealCanon) -> bool:
    """True iff I contains J (both canonical, same ring)."""
    _same_ring(I, J)
    return _contains(I, J)


def _contains(I: IdealCanon, J: IdealCanon, piv=None) -> bool:
    """``contains`` for ideals of one ring; ``piv`` is ``_pivots(I)`` when the
    caller has it already."""
    if J.is_zero() or I.is_unit():
        return True
    if I.is_zero():
        return J.is_zero()
    if J.is_unit():
        return I.is_unit()
    if J.order < I.order:
        return False
    c = I.ring.conductor
    p = I.ring.field.p
    d = J.order - I.order
    if piv is None:
        piv = _pivots(I)
    for r in J.window:
        v = _shift(r, d, c) if d else r
        if not in_rowspace(v, I.window, piv, p):
            return False
    return True


def _pivots(I: IdealCanon):
    return tuple(_pivot(r) for r in I.window)


def _pivot(row):
    for i, v in enumerate(row):
        if v:
            return i
    return None


def element_in_ideal(f: TruncatedSeries, I: IdealCanon) -> bool:
    """Membership test for a series whose window around I.order is known."""
    if f.is_zero():
        return True
    if I.is_unit():
        return True
    if I.is_zero():
        return False
    m = f.order()
    n = I.order
    if m < n:
        return False
    c = I.ring.conductor
    if m >= n + c:
        return True
    if f.bound < n + c:
        raise InsufficientPrecision(f"need coefficients up to t^{n + c - 1}")
    v = tuple(f.coeffs[n : n + c])
    return in_rowspace(v, I.window, _pivots(I), I.ring.field.p)


_MAXIMAL_CACHE: dict[Ring, IdealCanon] = {}


def maximal_ideal(ring: Ring) -> IdealCanon:
    if ring not in _MAXIMAL_CACHE:
        gens = [ring.monomial(g) for g in ring.semigroup.generators]
        _MAXIMAL_CACHE[ring] = ideal_from_generators(ring, gens)
    return _MAXIMAL_CACHE[ring]


def min_generators(I: IdealCanon) -> int:
    """dim_K(I / mI): the size of every minimal generating set."""
    if not I.is_proper():
        raise NotProper(f"min_generators needs a proper ideal, got {I.kind}")
    ring = I.ring
    mI = product(maximal_ideal(ring), I)
    # On the frame [n, n + g1 + c): dim I = rows(I) + g1, dim mI = rows(mI).
    return len(I.window) + ring.semigroup.multiplicity - len(mI.window)


def is_principal(I: IdealCanon) -> bool:
    """``min_generators(I) == 1``, read off the pivots without a product.

    A principal ideal (f) of order n has value set n + S, so its pivots are
    the elements of S below the conductor.  Conversely, pivots equal to
    those give I the value set of (f) for its order-n element f, and an
    ideal containing (f) with the same value set equals it.
    """
    if not I.is_proper():
        raise NotProper(f"is_principal needs a proper ideal, got {I.kind}")
    S = I.ring.semigroup
    return _pivots(I) == tuple(s for s in range(I.ring.conductor) if S.contains(s))


def integral_closure_ideal(I: IdealCanon) -> IdealCanon:
    """The order filter {f in R : order(f) >= order(I)}."""
    if not I.is_proper():
        raise NotProper(f"integral closure needs a proper ideal, got {I.kind}")
    ring = I.ring
    c = ring.conductor
    n = I.order
    rows = []
    for j in range(c):
        if ring.semigroup.contains(n + j):
            v = [0] * c
            v[j] = 1
            rows.append(tuple(v))
    return _proper(ring, n, tuple(rows))


def enumerate_ideals(ring: Ring, max_order: int, budget: int = 2_000_000) -> list[IdealCanon]:
    """All proper ideals of order <= max_order, plus UNIT, in canonical order.

    For each order the RREF window is grown row by row from the last pivot
    up (see ``_shift_closed_windows``), so no candidate matrix is formed
    whole.  The ``InfeasibleEnumeration`` guard counts every RREF matrix on
    the allowed columns, in closed form (``_rref_count``); that overstates
    the work the pruned growth does, but fixes which windows are refused.
    A negative ``max_order`` is refused with ``ValueError``.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    c = ring.conductor
    S = ring.semigroup
    p = ring.field.p

    def allowed(n):
        return [j for j in range(c) if S.contains(n + j)]

    # cost estimate before any per-order list: every order >= c lies in S
    # and allows all c columns, so those orders share one count
    total = sum(_rref_count(len(allowed(n)), p)
                for n in range(1, min(c, max_order + 1)) if S.contains(n))
    total += max(0, max_order + 1 - max(c, 1)) * _rref_count(c, p)
    if total > budget:
        raise InfeasibleEnumeration(f"{total} candidate matrices exceed budget {budget}")
    out = [unit_ideal(ring)]
    orders = [n for n in range(1, max_order + 1) if S.contains(n)]
    shifts = [g for g in S.generators if g < c]
    for n in orders:
        found = [_proper(ring, n, w) for w in _shift_closed_windows(allowed(n), shifts, c, p)]
        found.sort(key=canonical_key)
        out.extend(found)
    return out


def _shift_closed_windows(allowed, shifts, c, p):
    """Every RREF window with pivot 0, support in ``allowed``, whose span is
    closed under the ``shifts``; with c = 0 the one window is ``()``.

    The shift of the row with pivot q vanishes on every pivot column <= q,
    so it lies in the span iff it is the combination of the rows with
    larger pivots that its own pivot-column entries name.  Rows are
    therefore placed from the last pivot up, each checked once against rows
    no later choice can change, and a failing row prunes its whole subtree.
    A shift by g is zero when q + g >= c; otherwise its leading 1 lands on
    column q + g, which must already be a pivot.
    """
    windows = []
    rows: list[tuple[int, ...]] = []  # placed rows, last pivot first
    pivots: list[int] = []

    def grow(top):
        if top == 0:
            windows.append(tuple(reversed(rows)))
            return
        for q in allowed:
            if q >= top:
                break
            live = [g for g in shifts if q + g < c]
            if any(q + g not in pivots for g in live):
                continue
            free = [j for j in allowed if j > q and j not in pivots]
            for values in iter_product(range(p), repeat=len(free)):
                row = [0] * c
                row[q] = 1
                for j, v in zip(free, values):
                    row[j] = v
                row = tuple(row)
                if not all(in_rowspace(_shift(row, g, c), rows, pivots, p) for g in live):
                    continue
                rows.append(row)
                pivots.append(q)
                grow(q)
                rows.pop()
                pivots.pop()

    grow(c)
    return windows


def _rref_count(m: int, p: int) -> int:
    """The number of RREF matrices over F_p on m columns with a pivot in the
    first, i.e. of subspaces of F_p^m not inside the last m - 1 coordinates:
    G(m) - G(m - 1) for the Galois numbers G(0) = 1, G(1) = 2,
    G(k + 1) = 2 G(k) + (p^k - 1) G(k - 1)."""
    prev, cur = 1, 2
    for k in range(1, m):
        prev, cur = cur, 2 * cur + (p ** k - 1) * prev
    return cur - prev


class ShapeTag(Frozen):
    """Symbolic normal form of an ideal: family name, order, parameters and
    the explicit generator term lists ((exponent, coefficient), ...)."""

    __slots__ = _fields = ("family", "order", "params", "gen_terms")

    def __init__(self, family: str, order: int, params: tuple[int, ...],
                 gen_terms: tuple[tuple[tuple[int, int], ...], ...]):
        set_field(self, "family", family)
        set_field(self, "order", order)
        set_field(self, "params", params)
        set_field(self, "gen_terms", gen_terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.family, self.order, self.params, self.gen_terms)
                    == (other.family, other.order, other.params, other.gen_terms))
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.order, self.params, self.gen_terms))

    def code(self) -> str:
        inner = str(self.order)
        if self.params:
            inner += "; " + ", ".join(str(a) for a in self.params)
        return f"{self.family}({inner})"

    def ideal_str(self) -> str:
        def poly(terms):
            parts = []
            for e, coeff in terms:
                if not coeff:
                    continue
                tp = "t" if e == 1 else f"t^{e}"
                parts.append(tp if coeff == 1 else f"{coeff}{tp}")
            return "+".join(parts) if parts else "0"

        return "(" + ", ".join(poly(g) for g in self.gen_terms) + ")"

    def expand(self, ring: Ring) -> list[TruncatedSeries]:
        c = ring.conductor
        out = []
        for terms in self.gen_terms:
            top = max(e for e, _ in terms)
            b = max(top, self.order) + 2 * c + 2
            coeffs = [0] * b
            for e, coeff in terms:
                coeffs[e] = coeff % ring.field.p
            out.append(TruncatedSeries(ring.field, tuple(coeffs), ring.semigroup))
        return out


def gap_coefficient_exponents(ring: Ring, n: int) -> list[int]:
    """Exponents carrying free parameters in the order-n principal normal form:
    e in (n, n+c) with e in S but e - n not in S."""
    S = ring.semigroup
    c = ring.conductor
    return [n + j for j in range(1, c) if S.contains(n + j) and not S.contains(j)]


def classify_shape(I: IdealCanon) -> ShapeTag:
    """Shape tag whose expansion canonicalizes back to I (round-trip checked)."""
    if not I.is_proper():
        raise NotProper(f"classify_shape needs a proper ideal, got {I.kind}")
    fam = I.ring.family()
    if fam is None:
        raise UnsupportedSemigroup(f"no shape classification for {I.ring.semigroup}")
    if fam == "dvr":
        tag = ShapeTag("PRINCIPAL", I.order, (), (((I.order, 1),),))
    elif fam == "two_gen_odd":
        tag = _classify_two_gen_odd(I)
    else:
        tag = _classify_embdim3(I)
    back = ideal_from_generators(I.ring, tag.expand(I.ring))
    if back != I:
        raise UnclassifiedIdeal(f"shape {tag.code()} does not reproduce the window of {I!r}")
    return tag


def _classify_two_gen_odd(I: IdealCanon) -> ShapeTag:
    ring = I.ring
    S = ring.semigroup
    n = I.order
    row0 = I.window[0]
    pivots = _pivots(I)
    gap_exps = gap_coefficient_exponents(ring, n)
    non_s = [j for j in pivots if not S.contains(j)]
    if not non_s:
        params = tuple(row0[e - n] for e in gap_exps)
        terms = ((n, 1),) + tuple((e, a) for e, a in zip(gap_exps, params) if a)
        return ShapeTag("PRINCIPAL", n, params, (terms,))
    b_off = min(non_s)
    if b_off == 1:
        return ShapeTag("TWO_GEN_B", n, (), (((n, 1),), ((n + 1, 1),)))
    kept = [e for e in gap_exps if e - n < b_off]
    params = tuple(row0[e - n] for e in kept)
    terms = ((n, 1),) + tuple((e, a) for e, a in zip(kept, params) if a)
    return ShapeTag("TWO_GEN_A", n, params, (terms, ((n + b_off, 1),)))


def _classify_embdim3(I: IdealCanon) -> ShapeTag:
    n = I.order
    w = I.window
    dim = len(w)
    if dim == 1:
        a, b = w[0][1], w[0][2]
        terms = tuple(t for t in ((n, 1), (n + 1, a), (n + 2, b)) if t[1])
        return ShapeTag("PRINCIPAL", n, (a, b), (terms,))
    if dim == 3:
        return ShapeTag("THREE_GEN", n, (), (((n, 1),), ((n + 1, 1),), ((n + 2, 1),)))
    pivots = _pivots(I)
    if pivots == (0, 2):
        a = w[0][1]
        terms = tuple(t for t in ((n, 1), (n + 1, a)) if t[1])
        return ShapeTag("TWO_GEN_A", n, (a,), (terms, ((n + 2, 1),)))
    if pivots == (0, 1):
        a, b = w[0][2], w[1][2]
        g1 = tuple(t for t in ((n, 1), (n + 2, a)) if t[1])
        g2 = tuple(t for t in ((n + 1, 1), (n + 2, b)) if t[1])
        return ShapeTag("TWO_GEN_B", n, (a, b), (g1, g2))
    raise UnclassifiedIdeal(f"unexpected pivot pattern {pivots} at order {n}")


def canonical_principal_form(ring: Ring, f: TruncatedSeries) -> ShapeTag:
    """Normal form of the principal ideal (f), extracted from its window."""
    if f.is_zero():
        raise ZeroInput("the zero series generates the zero ideal")
    if ring.family() is None:
        raise UnsupportedSemigroup(f"no principal normal form for {ring.semigroup}")
    if f.order() == 0:
        raise UnitInput("a unit generates the whole ring")
    I = ideal_from_generators(ring, [f])
    tag = classify_shape(I)
    if tag.family != "PRINCIPAL":
        raise UnclassifiedIdeal(f"(f) classified as {tag.code()}, expected PRINCIPAL")
    return tag


def ideal_label(I: IdealCanon) -> str:
    if I.kind == UNIT:
        return "R"
    if I.kind == ZERO:
        return "(0)"
    try:
        return classify_shape(I).ideal_str()
    except (UnsupportedSemigroup, UnclassifiedIdeal):
        return f"I(n={I.order}, dim={len(I.window)})"


def ideal_record(I: IdealCanon) -> dict:
    """JSON-friendly record: order, shape and window rows."""
    shape = label = None
    if I.is_proper():
        try:
            tag = classify_shape(I)
            shape, label = tag.code(), tag.ideal_str()
        except (UnsupportedSemigroup, UnclassifiedIdeal):
            pass  # labelled by ideal_label below
    return {
        "kind": I.kind,
        "order": I.order,
        "shape": shape,
        "label": label or ideal_label(I),
        "window": [list(r) for r in I.window],
    }


def _node_id(I: IdealCanon) -> str:
    import hashlib  # only the lattice needs it; most commands never load it

    key = (
        f"{I.ring.semigroup.generators}|{I.ring.field.p}|{I.kind}|{I.order}|{I.window}"
    )
    return "n" + hashlib.sha1(key.encode()).hexdigest()[:10]


def hasse_diagram(ideals) -> str:
    """DOT digraph of the covering relation of containment (edges point from
    the containing ideal to the covered one); deterministic node order.

    ``below[i]`` (see ``containment_rows``) is the bitset of the ideals that
    ideals[i] strictly contains, and ``above[j]`` the bitset of those
    strictly containing ideals[j]; A covers B iff B is below A and
    ``below[A] & above[B]`` is empty.
    """
    ideals = sorted(set(ideals), key=canonical_key)
    if not ideals:
        return "digraph ideal_lattice {\n}\n"
    ring = ideals[0].ring
    for I in ideals:
        if I.ring != ring:
            raise RingMismatch("hasse_diagram needs ideals of a single ring")
    n = len(ideals)
    below = containment_rows(ideals)
    above = [0] * n
    for i in range(n):
        for j in _bits(below[i]):
            above[j] |= 1 << i
    ids = [_node_id(I) for I in ideals]
    lines = ["digraph ideal_lattice {", "  rankdir=LR;", '  node [shape=box];']
    for I, node in zip(ideals, ids):
        label = ideal_label(I).replace('"', '\\"')
        lines.append(f'  {node} [label="{label}"];')
    for i in range(n):
        for j in _bits(below[i]):
            if not below[i] & above[j]:
                lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def containment_rows(ideals):
    """``rows[i]``: the bitset of the j != i with ideals[i] containing
    ideals[j], for distinct ideals of one ring.

    Rows are filled from the end of the list, where the small ideals sit
    in canonical order, and a containment found brings in the whole row of
    the contained ideal, whose pairs then need no test.  No pair is skipped
    by list position: a proper ideal can contain one of its own order that
    sorts before it.  A pair whose value sets (``_value_set``) are not
    nested is rejected without row reduction.
    """
    n = len(ideals)
    values = [_value_set(I) for I in ideals]
    rows = [0] * n
    for i in reversed(range(n)):
        A = ideals[i]
        outside = ~values[i]
        piv = _pivots(A)
        row = 0
        for j, B in enumerate(ideals):
            if (i != j and not row >> j & 1 and not values[j] & outside
                    and _contains(A, B, piv)):
                row |= 1 << j | rows[j]
        rows[i] = row
    return rows


def _value_set(I: IdealCanon) -> int:
    """Bitset of the orders of the nonzero elements of I, with the infinite
    tail of a proper ideal as the sign bits; the unit is -1 (every bit) and
    the zero ideal 0.  I containing J implies that J's value set lies
    inside I's."""
    if I.kind == UNIT:
        return -1
    if I.kind == ZERO:
        return 0
    n = I.order
    mask = -(1 << (n + I.ring.conductor))  # every order >= n + c
    for q in _pivots(I):
        mask |= 1 << (n + q)
    return mask


def _bits(mask):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
