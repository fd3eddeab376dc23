"""Closure operations, the axiom table and its checker, and fractional-chain demos.

An operation is either a RULE (total function on canonical ideal forms)
or a TABLE (finite map on an enumerated ideal set).  Axiom checks are
exhaustive over the supplied domain; any instance that would require a
table lookup outside the domain is counted as skipped, never as a pass.
Rule operations are total and window arithmetic is exact at every order,
so rule checks never skip.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetExceeded, DomainGap, PreconditionNotMet, RingMismatch, WrongRing
from .ideals import (
    PROPER,
    IdealCanon,
    Ring,
    _bits,
    canonical_key,
    contains as ideal_contains,
    containment_rows,
    enumerate_ideals,
    ideal_from_generators,
    ideal_label,
    ideal_sum,
    integral_closure_ideal,
    intersect as ideal_intersect,
    is_principal,
    product as ideal_product,
    unit_ideal,
    zero_ideal,
)
from .series import MAX_EXPONENT, TruncatedSeries

class ClosureOperation:
    """A named closure operation, either rule-backed or table-backed."""

    __slots__ = ("name", "kind", "fn", "table")

    def __init__(self, name: str, kind: str, fn=None, table: dict = None):
        self.name = name
        self.kind = kind  # "rule" | "table"
        self.fn = fn
        self.table = table

    def __call__(self, x):
        if self.kind == "rule":
            return self.fn(x)
        try:
            return self.table[x]
        except KeyError:
            raise DomainGap(f"{self.name} is undefined at {x}") from None

    def defined_at(self, x) -> bool:
        return self.kind == "rule" or x in self.table


class IdealSetDomain:
    """A finite set of canonical ideals of one ring, with cached arithmetic.

    The product, sum, intersection and containment of two proper ideals of
    the ring depend only on their windows and on the gap d between their
    orders, and windows repeat at every order.  So each is computed once
    per unordered window pair (the product) or per (window, window, d)
    triple, the lower-order operand's window first (the rest), and kept as
    the window id of the result; the intersection also keeps its order
    past the higher-order operand.  For d >= c no work is needed: the
    higher-order ideal lies in the lower-order one.  Unit and zero
    operands go through the ``ideals`` functions.  Every ideal result is
    the instance that ``_at`` holds at its order and window: the set's own
    element where the set has it, else one built on first use."""

    def __init__(self, ideals):
        elements = sorted(set(ideals), key=canonical_key)
        if not elements:
            raise ValueError("empty ideal set")
        self.ring = elements[0].ring
        for I in elements:
            if I.ring != self.ring:
                raise ValueError("all ideals must share one ring")
        self.elements = elements
        self._index = {I: i for i, I in enumerate(elements)}
        self._rows = None
        self._table = None
        self._principals = None
        self._labels = {}
        # window ids both ways; the window id of each instance seen, -1 for
        # the unit and zero; the instance at each (order, window id)
        self._window_ids, self._windows, self._wid, self._at = {}, [], {}, {}
        for I in elements:
            self._register(I)
        # window id pair -> product window id; (wid, wid, d) -> sum window
        # id, (order offset, window id) of the intersection, or containment
        self._products, self._sums, self._meets, self._contained = {}, {}, {}, {}

    def _register(self, I):
        """The window id of an ideal first seen here, after checking its
        ring; it becomes the instance at its order and window if none is."""
        if I.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {I.ring}")
        w = -1
        if I.kind == PROPER:
            w = self._window_ids.get(I.window)
            if w is None:
                w = self._window_ids[I.window] = len(self._windows)
                self._windows.append(I.window)
        self._wid[I] = w
        self._at.setdefault((I.order, w), I)
        return w

    def _window_id(self, I):
        """The window id of an ideal of the ring, -1 for the unit and zero,
        looked up by the instance, whose hash is cached."""
        w = self._wid.get(I)
        return self._register(I) if w is None else w

    def _ids(self, a, b):
        """``_window_id`` of two operands, in one call on the hot paths."""
        wid = self._wid
        wa, wb = wid.get(a), wid.get(b)
        if wa is None:
            wa = self._register(a)
        if wb is None:
            wb = self._register(b)
        return wa, wb

    def _instance(self, order, w):
        """The proper ideal of this order with window ``w``, built on first use."""
        I = self._at.get((order, w))
        if I is None:
            I = self._at[order, w] = IdealCanon(self.ring, PROPER, order, self._windows[w])
            self._wid[I] = w
        return I

    def canonical(self, I):
        """The domain's own instance of an ideal of its ring: the element
        itself where the set has I, else the instance its memos hold."""
        return self._at[I.order, self._window_id(I)]

    def product(self, a, b):
        wa, wb = self._ids(a, b)
        if wa < 0 or wb < 0:
            return self.canonical(ideal_product(a, b))
        key = (wa, wb) if wa <= wb else (wb, wa)
        w = self._products.get(key)
        if w is None:
            w = self._products[key] = self._window_id(ideal_product(a, b))
        return self._instance(a.order + b.order, w)

    def product_table(self):
        """``table[i][j]``: the index of elements[i]*elements[j] in the set,
        or -1 where the product leaves it; built on first use from the
        product memo.  Orders add, so a product of proper ideals whose
        orders sum past the top order is never formed."""
        if self._table is None:
            elts, index = self.elements, self._index
            n = len(elts)
            top = max((I.order for I in elts if I.is_proper()), default=0)
            table = [[-1] * n for _ in range(n)]
            for i, A in enumerate(elts):
                for j in range(i, n):
                    B = elts[j]
                    if A.kind == B.kind == PROPER and A.order + B.order > top:
                        continue
                    table[i][j] = table[j][i] = index.get(self.product(A, B), -1)
            self._table = table
        return self._table

    def product_in(self, a, b):
        """a*b if it lies in the set, else None, for two elements of the set:
        read off the product table."""
        k = self.product_table()[self._index[a]][self._index[b]]
        return None if k < 0 else self.elements[k]

    @staticmethod
    def _lower_first(a, wa, b, wb):
        """Two proper ideals and their window ids as (lower-order ideal,
        higher-order ideal, memo key): the key is (window id, window id, d),
        d the gap between their orders, the ids in increasing order at d = 0."""
        d = b.order - a.order
        if d < 0 or d == 0 and wb < wa:
            a, b, wa, wb, d = b, a, wb, wa, -d
        return a, b, (wa, wb, d)

    def sum(self, a, b):
        wa, wb = self._ids(a, b)
        if wa < 0 or wb < 0:
            return self.canonical(ideal_sum(a, b))
        lo, hi, key = self._lower_first(a, wa, b, wb)
        if key[2] >= self.ring.conductor:
            return self._at[lo.order, key[0]]  # hi lies in lo
        w = self._sums.get(key)
        if w is None:
            w = self._sums[key] = self._window_id(ideal_sum(lo, hi))
        return self._instance(lo.order, w)

    def intersect(self, a, b):
        wa, wb = self._ids(a, b)
        if wa < 0 or wb < 0:
            return self.canonical(ideal_intersect(a, b))
        lo, hi, key = self._lower_first(a, wa, b, wb)
        if key[2] >= self.ring.conductor:
            return self._at[hi.order, key[1]]  # hi lies in lo
        r = self._meets.get(key)
        if r is None:
            M = ideal_intersect(lo, hi)
            r = self._meets[key] = (M.order - hi.order, self._window_id(M))
        return self._instance(hi.order + r[0], r[1])

    def containment(self):
        """``rows[i]``: the bitset of the j with elements[i] containing
        elements[j], i itself included; built on first use.  From then on
        ``contains`` on two elements reads these rows."""
        if self._rows is None:
            rows = containment_rows(self.elements)
            self._rows = [row | 1 << i for i, row in enumerate(rows)]
        return self._rows

    def contains(self, a, b) -> bool:
        """True iff a contains b: read off the containment rows once a
        search has built them, else from the (window, window, d) memo."""
        if self._rows is not None:
            i = self._index.get(a)
            j = self._index.get(b)
            if i is not None and j is not None:
                return self._rows[i] >> j & 1 == 1
        wa, wb = self._ids(a, b)
        if wa < 0 or wb < 0:
            return ideal_contains(a, b)
        d = b.order - a.order
        if d < 0:
            return False  # b has an element of order below a's
        if d >= self.ring.conductor:
            return True
        key = (wa, wb, d)
        r = self._contained.get(key)
        if r is None:
            r = self._contained[key] = ideal_contains(a, b)
        return r

    def principals(self):
        """Proper principal ideals of the set: the scaling multipliers."""
        if self._principals is None:
            self._principals = [
                I for I in self.elements if I.is_proper() and is_principal(I)
            ]
        return self._principals

    def unit_element(self):
        """The unit ideal, first in canonical order; None if the set lacks it."""
        return self.elements[0] if self.elements[0].is_unit() else None

    def describe(self, x) -> str:
        """The label of x, made once per ideal."""
        s = self._labels.get(x)
        if s is None:
            s = self._labels[x] = ideal_label(x)
        return s

    key = staticmethod(canonical_key)

    def search_seeds(self, prime: bool):
        """Ideals every searched operation fixes: the unit, and in prime mode
        also the zero and the proper principal ideals."""
        seeds = [I for I in self.elements if I.is_unit() or (prime and I.is_zero())]
        return seeds + self.principals() if prime else seeds

    @staticmethod
    def branch_key(I):
        """Search branching order: larger ideals first, so every proper
        superset of I is decided before I; the zero ideal last."""
        return (I.is_zero(), I.order, -len(I.window), I.window)


def ideal_window(ring: Ring, max_order: int, include_zero: bool = True) -> IdealSetDomain:
    """The ideals of order <= ``max_order`` and the unit, plus the zero ideal
    unless ``include_zero`` is false: the window that searches and axiom
    checks run on."""
    ideals = enumerate_ideals(ring, max_order)
    if include_zero:
        ideals.append(zero_ideal(ring))
    return IdealSetDomain(ideals)


def check_pairs(n: int, budget: int, what: str = "search window", stats=None) -> None:
    """Refuse a set of ``n`` elements whose n(n+1)/2 unordered pairs exceed
    the node budget, before anything with an entry per pair is built: the
    containment rows, a search's tables, or the pair axioms of
    ``check_axioms``."""
    pairs = n * (n + 1) // 2
    if pairs > budget:
        raise BudgetExceeded(f"{what} of {n} elements has {pairs} pairs, "
                             f"more than the budget of {budget} nodes", stats)


class ChainDomain:
    """A totally ordered chain of fractional ideals indexed by integers.

    Index i stands for the i-th power of the chain base: the maximal ideal P
    of a discrete valuation ring (kind "dvr", no ``element``) or a fixed
    nonunit s (kind "element", members s^i.R).  Products add indices and
    containment is index order.  Every member is a principal fractional
    ideal.
    """

    def __init__(self, D: int, element: TruncatedSeries | None = None):
        if not 1 <= D <= MAX_EXPONENT:  # members are powers: a series exponent's limit
            raise ValueError(f"chain half-width must be within 1..{MAX_EXPONENT}, got {D}")
        if element is not None and element.order() in (None, 0):
            raise ValueError("the chain element must be a nonzero nonunit")
        self.D = D
        self.kind = "dvr" if element is None else "element"
        self.elements = list(range(-D, D + 1))

    def product(self, a, b):
        return a + b

    @staticmethod
    def canonical(i):
        return i

    def product_in(self, a, b):
        r = a + b
        return r if -self.D <= r <= self.D else None

    def product_table(self):
        """``table[i][j]``: the index of elements[i] + elements[j], or -1
        past either end of the chain."""
        D, n = self.D, len(self.elements)
        return [[k if 0 <= (k := i + j - D) < n else -1 for j in range(n)] for i in range(n)]

    def sum(self, a, b):
        return min(a, b)

    def intersect(self, a, b):
        return max(a, b)

    def contains(self, a, b) -> bool:
        return a <= b

    def containment(self):
        """``rows[i]``: the bitset of the j with elements[i] <= elements[j]."""
        n = len(self.elements)
        return [(1 << n) - (1 << i) for i in range(n)]

    def principals(self):
        return [i for i in self.elements if i != 0]

    def unit_element(self):
        return 0

    def describe(self, i) -> str:
        if i == 0:
            return "R"
        return f"P^{i}" if self.kind == "dvr" else f"s^{i}R"

    @staticmethod
    def key(i):
        return i

    # ascending index: every f(i) <= i is decided before i is branched on
    branch_key = key

    def search_seeds(self, prime: bool):
        """Indices every searched operation fixes: R, and in prime mode every
        other index too (all chain members are principal)."""
        return [0] + self.principals() if prime else [0]


class Witness:
    """A replayable axiom violation: inputs plus the computed values."""

    __slots__ = ("axiom", "inputs", "values", "detail", "_source")

    def __init__(self, axiom: int, inputs: tuple, values: tuple, detail: str,
                 _source: tuple = None):
        self.axiom = axiom
        self.inputs = inputs
        self.values = values
        self.detail = detail
        self._source = _source  # (op, domain)

    def replay(self) -> bool:
        """Recompute the cited instance through a fresh value reader, not the
        memo of the check; True iff the violation still holds."""
        op, domain = self._source
        holds, _ = AXIOMS[self.axiom].check(_Values(op, domain), domain, *self.inputs)
        return not holds


class AxiomResult:
    __slots__ = ("axiom", "checked", "skipped", "witnesses")

    def __init__(self, axiom: int, checked: int = 0, skipped: int = 0,
                 witnesses: list = None):
        self.axiom = axiom
        self.checked = checked
        self.skipped = skipped
        self.witnesses = [] if witnesses is None else witnesses

    @property
    def verdict(self) -> str:
        return "fail" if self.witnesses else "pass"

    def to_json(self, domain) -> dict:
        return {
            "name": AXIOMS[self.axiom].name,
            "verdict": self.verdict,
            "checked": self.checked,
            "skipped": self.skipped,
            "witnesses": [
                {
                    "inputs": [domain.describe(x) for x in w.inputs],
                    "values": [domain.describe(v) for v in w.values],
                    "detail": w.detail,
                }
                for w in self.witnesses
            ],
        }


class AxiomReport:
    __slots__ = ("op_name", "results", "domain_size", "advisory")

    def __init__(self, op_name: str, results: dict, domain_size: int,
                 advisory: bool = False):
        self.op_name = op_name
        self.results = results
        self.domain_size = domain_size
        self.advisory = advisory

    def passed(self, axioms=None) -> bool:
        axioms = axioms if axioms is not None else self.results.keys()
        return all(not self.results[a].witnesses for a in axioms)

    def to_json(self, domain) -> dict:
        return {
            "op": self.op_name,
            "domain_size": self.domain_size,
            "advisory": self.advisory,
            "passed": self.passed(),
            "axioms": {str(a): r.to_json(domain) for a, r in sorted(self.results.items())},
        }


class _Undefined(Exception):
    """An instance needs an operation value outside the operation's table."""


class _Values:
    """The values of ``op`` for one ``check_axioms`` call, each computed once.

    A value outside a table raises ``_Undefined``.  ``exact``: every key of
    the table lies in the domain, so the table is undefined at any product
    outside it, and ``check_axioms`` skips such an instance before it reads
    a value or forms the product.  Each value is kept as the domain's own
    instance of it (``canonical``), so the domain's memos meet it by
    identity rather than by a deep comparison."""

    def __init__(self, op, domain):
        self.op = op
        self.domain = domain
        self.memo = {}
        self.exact = op.kind == "table" and op.table.keys() <= set(domain.elements)

    def __call__(self, x):
        v = self.memo.get(x)
        if v is None:
            if not self.op.defined_at(x):
                raise _Undefined
            v = self.memo[x] = self.domain.canonical(self.op(x))
        return v


class AxiomSpec(namedtuple("AxiomSpec", "name detail instances check at_product on_ids",
                           defaults=(False, None))):
    """One axiom: ``instances(domain)`` yields input tuples, and
    ``check(f, domain, *inputs)`` returns ``(holds, cited_values)``.
    ``at_product``: the check reads f at the product of its two inputs.
    ``on_ids`` (axioms 1-5) checks the same instances, in the same order,
    on a table read as ids (``_table_ids``): ``on_ids(F, ids, domain, rows,
    products)`` tests bits of the containment rows and reads the product
    table, and returns ``(checked, skipped, [(inputs, values), ...])``."""

    __slots__ = ()


def _singles(domain):
    return ((I,) for I in domain.elements)


def _pairs(domain):
    return ((I, J) for I in domain.elements for J in domain.elements)


def _extensive(f, domain, I):
    fI = f(I)
    return domain.contains(fI, I), (fI,)


def _monotone(f, domain, I, J):
    fI, fJ = f(I), f(J)
    return domain.contains(fJ, fI), (fI, fJ)


def _idempotent(f, domain, I):
    fI = f(I)
    ffI = f(fI)
    return ffI == fI, (fI, ffI)


def _product(f, domain, I, J):
    fI, fJ, fK = f(I), f(J), f(domain.product(I, J))
    lhs = domain.product(fI, fJ)
    return domain.contains(fK, lhs), (lhs, fK)


def _scaling(f, domain, b, I):
    fI, fK = f(I), f(domain.product(b, I))
    rhs = domain.product(b, fI)
    return fK == rhs, (fK, rhs)


def _sum(f, domain, I, J):
    fI, fJ, fK = f(I), f(J), f(domain.sum(I, J))
    lhs = domain.sum(fI, fJ)
    return domain.contains(fK, lhs), (lhs, fK)


def _unit_fixed(f, domain, R):
    if R is None:  # a domain without the unit: one skipped instance
        raise _Undefined
    fR = f(R)
    return fR == R, (fR,)


def _intersection(f, domain, I, J):
    M = domain.intersect(f(I), f(J))
    fM = f(M)
    return fM == M, (M, fM)


def _table_ids(op, ids):
    """``F[i]``: the id of op(elements[i]), -1 where the table is undefined;
    None for a rule, or for a table with a key or a value outside ``ids``."""
    if op.kind != "table":
        return None
    table = op.table
    F = [ids.get(table[x], -2) if x in table else -1 for x in ids]
    return None if -2 in F or len(table) != len(F) - F.count(-1) else F


def _extensive_ids(F, ids, d, rows, P):
    e, skipped = d.elements, F.count(-1)
    bad = [((e[i],), (e[v],)) for i, v in enumerate(F) if v >= 0 and not rows[v] >> i & 1]
    return len(F) - skipped, skipped, bad


def _monotone_ids(F, ids, d, rows, P):
    e, above, checked, skipped, bad = d.elements, [[] for _ in F], 0, 0, []
    for j, row in enumerate(rows):
        for i in _bits(row & ~(1 << j)):
            above[i].append(j)
    for i, v in enumerate(F):
        for j in above[i]:
            w = F[j]
            if v < 0 or w < 0:
                skipped += 1
            else:
                checked += 1
                if not rows[w] >> v & 1:
                    bad.append(((e[i], e[j]), (e[v], e[w])))
    return checked, skipped, bad


def _idempotent_ids(F, ids, d, rows, P):
    e = d.elements
    done = [(i, v, F[v]) for i, v in enumerate(F) if v >= 0 and F[v] >= 0]
    bad = [((e[i],), (e[v], e[w])) for i, v, w in done if w != v]
    return len(done), len(F) - len(done), bad


def _product_ids(F, ids, d, rows, P):
    """An f(I)f(J) outside the set is formed and tested by the domain."""
    e, checked, bad = d.elements, 0, []
    for i, v in enumerate(F):
        if v < 0:
            continue
        Pv = P[v]
        for j, k in enumerate(P[i]):
            if k < 0 or (w := F[j]) < 0 or (x := F[k]) < 0:
                continue
            checked += 1
            q = Pv[w]
            if q < 0 or not rows[x] >> q & 1:
                lhs = e[q] if q >= 0 else d.product(e[v], e[w])
                if q >= 0 or not d.contains(e[x], lhs):
                    bad.append(((e[i], e[j]), (lhs, e[x])))
    return checked, len(F) ** 2 - checked, bad


def _scaling_ids(F, ids, d, rows, P):
    """A b.f(I) outside the set differs from every value; it is formed
    only to be cited."""
    e, principals, checked, bad = d.elements, d.principals(), 0, []
    for b in principals:
        Pb = P[ids[b]]
        for i, k in enumerate(Pb):
            if k < 0 or (v := F[i]) < 0 or (x := F[k]) < 0:
                continue
            checked += 1
            q = Pb[v]
            if q != x:
                bad.append(((b, e[i]), (e[x], e[q] if q >= 0 else d.product(b, e[v]))))
    return checked, len(principals) * len(F) - checked, bad


AXIOMS = {
    1: AxiomSpec("extensive", "f(I) does not contain I", _singles, _extensive,
                 on_ids=_extensive_ids),
    2: AxiomSpec("monotone", "I <= J but f(I) !<= f(J)",
                 lambda d: ((I, J) for I, J in _pairs(d) if I is not J and d.contains(J, I)),
                 _monotone, on_ids=_monotone_ids),
    3: AxiomSpec("idempotent", "f(f(I)) != f(I)", _singles, _idempotent,
                 on_ids=_idempotent_ids),
    4: AxiomSpec("product", "f(I)f(J) !<= f(IJ)", _pairs, _product, True, _product_ids),
    5: AxiomSpec("principal_scaling", "f(bI) != b.f(I)",
                 lambda d: ((b, I) for b in d.principals() for I in d.elements), _scaling,
                 True, _scaling_ids),
    6: AxiomSpec("sum", "f(I)+f(J) !<= f(I+J)", _pairs, _sum),
    7: AxiomSpec("unit_fixed", "f(R) != R", lambda d: [(d.unit_element(),)], _unit_fixed),
    8: AxiomSpec("intersection", "f(I)^f(J) is not closed", _pairs, _intersection),
}


def check_axioms(op: ClosureOperation, domain, axioms) -> AxiomReport:
    """Exhaustively check the requested axioms of ``op`` over ``domain``.

    Each value of ``op`` is computed once per call; an instance that needs
    a value outside a table is counted as skipped.  A table whose keys and
    values all lie in the domain is read once as ids, and axioms 1-5 run
    on it as bit tests over the containment rows and lookups in the product
    table (``AxiomSpec.on_ids``), with the same counts and witnesses as the
    ``check`` path that rules, other tables and axioms 6-8 take."""
    wanted = sorted(set(axioms))
    for ax in wanted:
        if ax not in AXIOMS:
            raise ValueError(f"unknown axiom {ax}")
    f = _Values(op, domain)
    ids = {x: i for i, x in enumerate(domain.elements)}
    F = _table_ids(op, ids)
    if F is not None:
        rows, products = domain.containment(), domain.product_table()
    results = {}
    for ax in wanted:
        spec = AXIOMS[ax]
        res = results[ax] = AxiomResult(ax)
        if F is not None and spec.on_ids:
            res.checked, res.skipped, bad = spec.on_ids(F, ids, domain, rows, products)
            res.witnesses = [Witness(ax, *w, spec.detail, (op, domain)) for w in bad]
            continue
        # an exact table is undefined at every product outside the domain
        outside = f.exact and spec.at_product
        for inputs in spec.instances(domain):
            if outside and domain.product_in(*inputs) is None:
                res.skipped += 1
                continue
            try:
                holds, values = spec.check(f, domain, *inputs)
            except _Undefined:
                res.skipped += 1
                continue
            res.checked += 1
            if not holds:
                res.witnesses.append(Witness(ax, inputs, values, spec.detail, (op, domain)))
    return AxiomReport(op.name, results, len(domain.elements))


def sakuma_consistency(op: ClosureOperation, domain) -> AxiomReport:
    """Check axioms (4), (6), (8) for an operation already passing (1), (2),
    (3), (5), (7); failures on plain ideal sets are informational."""
    pre = check_axioms(op, domain, (1, 2, 3, 5, 7))
    bad = [a for a in (1, 2, 3, 5, 7) if pre.results[a].witnesses]
    if bad:
        raise PreconditionNotMet(
            f"{op.name} fails axiom(s) {bad}; consequence check not applicable"
        )
    rep = check_axioms(op, domain, (4, 6, 8))
    rep.advisory = isinstance(domain, IdealSetDomain)
    return rep


def _chain_ideal(ring: Ring, k: int) -> IdealCanon:
    if k == 0:
        return unit_ideal(ring)
    return ideal_from_generators(ring, [ring.monomial(k)])


def builtin(name: str, ring: Ring, m: int | None = None) -> ClosureOperation:
    """Built-in rule operations: identity, integral_closure, dvr_f_m(m),
    dvr_g_m(m), fc_345."""
    if name == "identity":
        return ClosureOperation("identity", "rule", fn=lambda I: I)
    if name == "integral_closure":
        def ic(I):
            return I if not I.is_proper() else integral_closure_ideal(I)

        return ClosureOperation("integral_closure", "rule", fn=ic)
    if name in ("dvr_f_m", "dvr_g_m"):
        if ring.family() != "dvr":
            raise WrongRing(f"{name} needs the discrete valuation ring <1>")
        if m is None or m < 0:
            raise ValueError(f"{name} needs a parameter m >= 0")
        collapse_zero = name == "dvr_g_m"

        def fm(I, m=m, collapse_zero=collapse_zero):
            if I.is_zero():
                return _chain_ideal(ring, m) if collapse_zero else I
            i = I.order
            return I if i <= m else _chain_ideal(ring, m)

        return ClosureOperation(f"{name}({m})", "rule", fn=fm)
    if name == "fc_345":
        if ring.semigroup.generators != (3, 4, 5):
            raise WrongRing("fc_345 needs the semigroup <3,4,5>")

        def fc(I):
            if not I.is_proper():
                return I
            if len(I.window) == 1:  # principal: windows of (f) have dimension 1 here
                return I
            return integral_closure_ideal(I)

        return ClosureOperation("fc_345", "rule", fn=fc)
    raise ValueError(f"unknown builtin operation {name!r}")


class FractionalOutcome:
    __slots__ = ("kind", "witness", "verified")

    def __init__(self, kind: str, witness: dict | None = None, verified: bool = False):
        self.kind = kind  # "witness" | "certified_identity_only" | "no_violation_found"
        self.witness = witness
        self.verified = verified

    def to_json(self) -> dict:
        return {"outcome": self.kind, "witness": self.witness, "verified": self.verified}


def fractional_violation(chain: ChainDomain, candidate) -> FractionalOutcome:
    """Produce a verified product-axiom witness against a candidate operation
    on the chain, or certify that only the identity survives.

    A candidate that enlarges R is refuted on the (R, R) instance; a bounded
    candidate (constant on a tail of the chain) is refuted with a pair
    (i, j), j < 0, landing in the stabilized tail.
    """
    D = chain.D
    f = dict(candidate)
    for i in chain.elements:
        if i not in f:
            raise DomainGap(f"candidate undefined at chain index {i}")
    lab = chain.describe

    def witness(i, j, detail):
        fi, fj, fij = f[i], f[j], f[i + j]
        verified = fi + fj < fij  # index sum above the window top is a strict blow-up
        return FractionalOutcome(
            "witness",
            {
                "axiom": 4,
                "i": i,
                "j": j,
                "f_i": fi,
                "f_j": fj,
                "f_i_plus_j": fij,
                "lhs": lab(fi + fj),
                "rhs": lab(fij),
                "detail": detail,
            },
            verified,
        )

    for i in chain.elements:
        if f[i] > i:
            return FractionalOutcome(
                "witness",
                {"axiom": 1, "i": i, "f_i": f[i],
                 "detail": f"f({lab(i)}) = {lab(f[i])} does not contain {lab(i)}"},
                True,
            )
    if f[0] < 0:
        return witness(0, 0, "f(R)f(R) strictly contains f(R.R): the candidate enlarges R")
    # bounded: constant value M on the tail [n0, D] with n0 < D
    M = f[D]
    n0 = D
    while n0 > -D and f[n0 - 1] == M:
        n0 -= 1
    if n0 < D:
        return witness(n0 + 1, -1, "bounded tail: product with a negative power escapes the constant value")
    if all(f[i] == i for i in chain.elements):
        # the identity passes every product instance, and the search checks them all
        from .search import search_fractional_chain  # search imports this module

        if search_fractional_chain(D, margin=2).is_identity_only():
            return FractionalOutcome("certified_identity_only", None, True)
    else:
        for i in chain.elements:
            for j in chain.elements:
                if -D <= i + j <= D and f[i] + f[j] < f[i + j]:
                    return witness(i, j, "product axiom fails")
    return FractionalOutcome("no_violation_found", None, False)

