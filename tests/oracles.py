"""Independent oracles used by the tests.

Everything here is deliberately brute force and shares no code with the
package internals it checks: subspace enumeration by span closure,
semigroup membership by breadth-first reachability, closed-form principal
coefficients, full table enumeration on valuation chains, the eight
closure-operation axioms checked by separate hand-written loops, reference
series arithmetic (product and unit inversion in K[[t]]), the
three-branch ideal sort key, the enumerator that forms every RREF matrix
whole, the ideal product that closes the row products under the
generator shifts until nothing new appears, the ideal sum reduced on one
common frame, the intersection by brute-force membership of every frame
vector, and the cubic covering scan for Hasse diagrams.  The last one uses
the package's ``contains`` and node labels, so it checks the covering
logic and the DOT text, not containment itself.  Likewise the two-pass
extension search runs the package's own searcher on both windows, so it
checks when the second search may be skipped, not the searcher.
"""

from functools import cache
from itertools import combinations, product as iproduct

from semiprime_lab.errors import FieldMismatch, RingMismatch, SemigroupRingError
from semiprime_lab.ideals import IdealCanon, _node_id, contains, ideal_label
from semiprime_lab.series import TruncatedSeries

# Bound of a series product when one factor is exactly zero (order +infinity).
MAX_BOUND = 1 << 14


class NotAUnit(SemigroupRingError):
    """``series_invert_unit`` was given a series of positive order."""


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c, v, p):
    return tuple((c * a) % p for a in v)


def span(vectors, width, p):
    """The full set of vectors in the span, as a frozenset."""
    out = {(0,) * width}
    for v in vectors:
        extra = set()
        for u in out:
            for c in range(1, p):
                extra.add(vec_add(u, vec_scale(c, v, p), p))
        out |= extra
    # one closure pass is not enough for >1 new vector; iterate to fixpoint
    changed = True
    while changed:
        changed = False
        snapshot = list(out)
        for u in snapshot:
            for v in snapshot:
                w = vec_add(u, v, p)
                if w not in out:
                    out.add(w)
                    changed = True
    return frozenset(out)


@cache
def all_subspaces(width, p):
    """Every linear subspace of F_p^width, each as a frozenset of vectors.

    Cached: the spot checks ask for the same (width, p) at every order."""
    zero = (0,) * width
    vectors = list(iproduct(range(p), repeat=width))
    done = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        nxt = []
        for sp in frontier:
            for v in vectors:
                if v in sp:
                    continue
                bigger = set(sp)
                for u in sp:
                    for c in range(1, p):
                        bigger.add(vec_add(u, vec_scale(c, v, p), p))
                bigger = frozenset(bigger)
                if bigger not in done:
                    done.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return frozenset(done)


def shift_vec(v, g, width):
    return (0,) * g + v[: width - g]


def ideal_windows_oracle(semigroup_contains, gens, order, width, p):
    """All order-``order`` ideal windows by brute force over all subspaces.

    A subspace qualifies iff it has a vector with nonzero first coordinate,
    respects the support mask, and is closed under every generator shift.
    """
    count = 0
    windows = []
    mask = [not semigroup_contains(order + j) for j in range(width)]
    for sp in all_subspaces(width, p):
        if not any(v[0] for v in sp):
            continue
        if any(v[j] for v in sp for j in range(width) if mask[j]):
            continue
        ok = True
        for v in sp:
            for g in gens:
                if g >= width:
                    continue
                if shift_vec(v, g, width) not in sp:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
            windows.append(sp)
    return count, windows


def semigroup_member_oracle(gens, bound):
    """Reachable sums of generators up to ``bound`` (BFS)."""
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = e + g
                if s <= bound and s not in reach:
                    reach.add(s)
                    nxt.append(s)
        frontier = nxt
    return reach


def principal_coeffs_oracle(a, p):
    """Closed-form canonical coefficients of (t^n(1 + a1 t + a2 t^2 + ...))
    in K[[t^2, t^(2r+1)]]: b1 = a1, b3 = a3 - a1 a2,
    b5 = a5 - a4 a1 - a2 a3 + a1 a2^2 (indices missing from ``a`` are 0)."""
    def g(i):
        return a.get(i, 0)

    b1 = g(1) % p
    b3 = (g(3) - g(1) * g(2)) % p
    b5 = (g(5) - g(4) * g(1) - g(2) * g(3) + g(1) * g(2) ** 2) % p
    return {1: b1, 3: b3, 5: b5}


def chain_closure_tables_oracle(D):
    """All extensive-monotone-idempotent tables on {R=P^0, ..., P^D, zero}.

    Indices 0..D stand for the powers of the maximal ideal; the zero ideal
    is the extra key ``"zero"`` whose value is either ``"zero"`` or an index.
    Returned tables have already been filtered by the product axiom
    f(I)f(J) <= f(IJ) on every in-window instance (including zero).
    """
    out = []
    idx = list(range(D + 1))
    for values in iproduct(*[range(i + 1) for i in idx]):
        f = dict(zip(idx, values))
        if any(f[f[i]] != f[i] for i in idx):
            continue
        if any(f[i] > f[j] for i in idx for j in idx if i < j):
            continue
        ok = True
        for i in idx:
            for j in idx:
                if i + j <= D and f[i] + f[j] < f[i + j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # zero value: "zero" always works; P^k needs monotone + idempotent
        zero_options = ["zero"]
        for k in idx:
            if f[k] == k and all(k >= f[i] for i in idx):
                zero_options.append(k)
        for z in zero_options:
            g = dict(f)
            g["zero"] = z
            out.append(g)
    return out


def fractional_chain_tables_oracle(D):
    """All product-consistent closure tables on the fractional chain [-D, D].

    Index i stands for P^i, so containment is reversed index order.  A
    closure table on a finite chain is the retraction onto its fixed-point
    set F (which must contain -D): f(i) = max(x in F, x <= i).  Every one of
    the 2^(2D) such sets is tried and the product axiom f(i) + f(j) >=
    f(i + j) is checked on every in-window instance.
    """
    idx = list(range(-D, D + 1))
    rest = idx[1:]
    out = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            F = [-D, *extra]
            f = {i: max(x for x in F if x <= i) for i in idx}
            if all(f[i] + f[j] >= f[i + j] for i in idx for j in idx if -D <= i + j <= D):
                out.append(f)
    return out


def check_axioms_oracle(op, domain, axioms):
    """The eight axiom checks as independent hand-written loops.

    Returns ``{axiom: (checked, skipped, [(inputs, values, detail), ...])}``.
    An instance that needs a value of ``op`` outside its table is skipped;
    a domain without a unit counts one skipped instance of axiom 7.
    """
    skip = object()

    def apply(x):
        return op(x) if op.defined_at(x) else skip

    elts = list(domain.elements)
    out = {}
    for ax in sorted(set(axioms)):
        checked = skipped = 0
        wit = []
        if ax == 1:
            for I in elts:
                fI = apply(I)
                if fI is skip:
                    skipped += 1
                    continue
                checked += 1
                if not domain.contains(fI, I):
                    wit.append(((I,), (fI,), "f(I) does not contain I"))
        elif ax == 2:
            for I in elts:
                for J in elts:
                    if I is J or not domain.contains(J, I):
                        continue
                    fI, fJ = apply(I), apply(J)
                    if fI is skip or fJ is skip:
                        skipped += 1
                        continue
                    checked += 1
                    if not domain.contains(fJ, fI):
                        wit.append(((I, J), (fI, fJ), "I <= J but f(I) !<= f(J)"))
        elif ax == 3:
            for I in elts:
                fI = apply(I)
                ffI = skip if fI is skip else apply(fI)
                if ffI is skip:
                    skipped += 1
                    continue
                checked += 1
                if ffI != fI:
                    wit.append(((I,), (fI, ffI), "f(f(I)) != f(I)"))
        elif ax in (4, 6):
            op2 = domain.product if ax == 4 else domain.sum
            detail = "f(I)f(J) !<= f(IJ)" if ax == 4 else "f(I)+f(J) !<= f(I+J)"
            for I in elts:
                for J in elts:
                    fI, fJ, fK = apply(I), apply(J), apply(op2(I, J))
                    if skip in (fI, fJ, fK):
                        skipped += 1
                        continue
                    checked += 1
                    lhs = op2(fI, fJ)
                    if not domain.contains(fK, lhs):
                        wit.append(((I, J), (lhs, fK), detail))
        elif ax == 5:
            for b in domain.principals():
                for I in elts:
                    fI, fK = apply(I), apply(domain.product(b, I))
                    if skip in (fI, fK):
                        skipped += 1
                        continue
                    checked += 1
                    rhs = domain.product(b, fI)
                    if fK != rhs:
                        wit.append(((b, I), (fK, rhs), "f(bI) != b.f(I)"))
        elif ax == 7:
            R = domain.unit_element()
            fR = skip if R is None else apply(R)
            if fR is skip:
                skipped += 1
            else:
                checked += 1
                if fR != R:
                    wit.append(((R,), (fR,), "f(R) != R"))
        elif ax == 8:
            for I in elts:
                for J in elts:
                    fI, fJ = apply(I), apply(J)
                    if skip in (fI, fJ):
                        skipped += 1
                        continue
                    M = domain.intersect(fI, fJ)
                    fM = apply(M)
                    if fM is skip:
                        skipped += 1
                        continue
                    checked += 1
                    if fM != M:
                        wit.append(((I, J), (M, fM), "f(I)^f(J) is not closed"))
        else:
            raise ValueError(f"unknown axiom {ax}")
        out[ax] = (checked, skipped, wit)
    return out


def series_mul(f, g):
    """Exact convolution of two truncated series, trustworthy up to
    min(bound_f + ord g, bound_g + ord f).  The product stays
    ring-constrained when both factors carry the same semigroup."""
    if f.field != g.field:
        raise FieldMismatch(f"F_{f.field.p} vs F_{g.field.p}")
    p = f.field.p
    of, og = f.order(), g.order()
    ef = of if of is not None else MAX_BOUND
    eg = og if og is not None else MAX_BOUND
    bound = min(f.bound + eg, g.bound + ef, MAX_BOUND)
    out = [0] * bound
    for i in range(min(f.bound, bound)):
        if f.coeffs[i]:
            for j in range(min(g.bound, bound - i)):
                out[i + j] = (out[i + j] + f.coeffs[i] * g.coeffs[j]) % p
    sg = f.semigroup if f.semigroup is not None and f.semigroup == g.semigroup else None
    return TruncatedSeries(f.field, tuple(out), sg)


def series_invert_unit(u):
    """Inverse of a unit of K[[t]] to the same bound, by the recurrence
    b_n = -a_0^(-1) * sum_{k=1..n} a_k b_(n-k); not ring-constrained."""
    if u.order() != 0:
        raise NotAUnit("series must have nonzero constant term")
    p = u.field.p
    a = u.coeffs
    inv0 = pow(a[0], -1, p)
    b = [inv0] + [0] * (u.bound - 1)
    for n in range(1, u.bound):
        b[n] = (-inv0 * sum(a[k] * b[n - k] for k in range(1, n + 1))) % p
    return TruncatedSeries(u.field, tuple(b))


def canonical_key_oracle(I):
    """Sort key of an ideal: the unit, then proper ideals by (order, window),
    then the zero ideal."""
    if I.kind == "unit":
        return (0, 0, ())
    if I.kind == "proper":
        return (1, I.order, I.window)
    return (2, 0, ())


def _reduce(vec, rows, pivots, p):
    v = list(vec)
    for r, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, r)]
    return v


def enumerate_ideals_oracle(ring, max_order):
    """All proper ideals of order <= max_order, plus the unit ideal, sorted by
    ``canonical_key_oracle``.  Every RREF matrix on the support mask (pivot
    pattern x free entries) is formed whole and kept iff its row space is
    closed under the generator shifts."""
    S = ring.semigroup
    c = S.conductor
    p = ring.field.p
    out = [IdealCanon(ring, "unit", 0, ())]
    orders = [n for n in range(1, max_order + 1) if S.contains(n)]
    if c == 0:
        return out + [IdealCanon(ring, "proper", n, ()) for n in orders]
    shifts = [g for g in S.generators if g < c]
    for n in orders:
        allowed = [j for j in range(c) if S.contains(n + j)]
        rest = allowed[1:]
        found = []
        for mask in range(1 << len(rest)):
            pivots = (0,) + tuple(j for b, j in enumerate(rest) if mask >> b & 1)
            free = [
                (ri, col)
                for ri, pc in enumerate(pivots)
                for col in allowed
                if col > pc and col not in pivots
            ]
            for values in iproduct(range(p), repeat=len(free)):
                rows = [[0] * c for _ in pivots]
                for ri, pc in enumerate(pivots):
                    rows[ri][pc] = 1
                for (ri, col), v in zip(free, values):
                    rows[ri][col] = v
                rows = tuple(tuple(r) for r in rows)
                if all(
                    not any(_reduce(shift_vec(r, g, c), rows, pivots, p))
                    for r in rows
                    for g in shifts
                ):
                    found.append(IdealCanon(ring, "proper", n, rows))
        out.extend(sorted(found, key=canonical_key_oracle))
    return out


def rref_oracle(vectors, width, p):
    """Reduced row echelon basis of the span, by Gauss-Jordan elimination."""
    mat = [[x % p for x in v] for v in vectors]
    r = 0
    for col in range(width):
        k = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def product_oracle(I, J):
    """Canonical form of I*J: every product of a row of I with a row of J,
    truncated to the conductor window, then closed under the generator
    shifts until no new vector appears."""
    ring = I.ring
    if I.kind == "zero" or J.kind == "zero":
        return IdealCanon(ring, "zero", None, ())
    if I.kind == "unit":
        return J
    if J.kind == "unit":
        return I
    c = ring.conductor
    p = ring.field.p
    n = I.order + J.order
    if c == 0:
        return IdealCanon(ring, "proper", n, ())
    vectors = [
        tuple(sum(a[i] * b[k - i] for i in range(k + 1)) % p for k in range(c))
        for a in I.window
        for b in J.window
    ]
    shifts = [g for g in ring.semigroup.generators if g < c]
    rows = rref_oracle(vectors, c, p)
    while True:
        closed = rref_oracle(list(rows) + [shift_vec(r, g, c) for r in rows for g in shifts], c, p)
        if closed == rows:
            return IdealCanon(ring, "proper", n, rows)
        rows = closed


def sum_oracle(I, J):
    """Canonical form of I + J on the common frame [n, n + c), n the smaller
    order: every window row of either ideal moved onto the frame (its
    exponents kept, the part past the frame cut off), then reduced by
    ``rref_oracle``.  No shift-closure pass is made."""
    ring = I.ring
    if I.kind == "unit" or J.kind == "unit":
        return IdealCanon(ring, "unit", 0, ())
    if I.kind == "zero":
        return J
    if J.kind == "zero":
        return I
    c, p = ring.conductor, ring.field.p
    n = min(I.order, J.order)
    vectors = [((0,) * (K.order - n) + r)[:c] for K in (I, J) for r in K.window]
    return IdealCanon(ring, "proper", n, rref_oracle(vectors, c, p))


@cache
def _window_span(I):
    """Every vector of the span of a proper ideal's window: each F_p
    combination of its rows."""
    c, p = I.ring.conductor, I.ring.field.p
    out = set()
    for coeffs in iproduct(range(p), repeat=len(I.window)):
        out.add(tuple(sum(a * r[j] for a, r in zip(coeffs, I.window)) % p for j in range(c)))
    return frozenset(out)


@cache
def _frame_members(I, lo):
    """The vectors v of F_p^c such that the series with coefficients v on
    [lo, lo + c), and any tail of order >= lo + c, lies in the proper ideal
    I (order <= lo): each vector of F_p^c is tested."""
    c, p = I.ring.conductor, I.ring.field.p
    d = lo - I.order
    return frozenset(v for v in iproduct(range(p), repeat=c)
                     if ((0,) * d + v)[:c] in _window_span(I))


def intersect_oracle(I, J):
    """Canonical form of the intersection of I and J by brute-force
    membership, for small p: every vector of F_p^c on the frame
    [lo, lo + c), lo the larger order, is tested for membership in both
    ideals.  Both contain every series of order >= lo + c, so the common
    members fix the order n and, moved to start at n and completed by the
    unit vectors of the columns past lo + c, the window."""
    ring = I.ring
    if I.kind == "zero" or J.kind == "zero":
        return IdealCanon(ring, "zero", None, ())
    if I.kind == "unit":
        return J
    if J.kind == "unit":
        return I
    c, p = ring.conductor, ring.field.p
    lo = max(I.order, J.order)
    common = [v for v in _frame_members(I, lo) & _frame_members(J, lo) if any(v)]
    k = min((next(j for j, x in enumerate(v) if x) for v in common), default=c)
    vectors = [v[k:] + (0,) * k for v in common]
    vectors += [tuple(int(j == i) for j in range(c)) for i in range(c - k, c)]
    return IdealCanon(ring, "proper", lo + k, rref_oracle(vectors, c, p))


def value_set_oracle(I, top):
    """Orders below ``top`` of the nonzero elements of a proper ideal, from
    the full span of its window (the tail adds every order >= n + c)."""
    n, c, p = I.order, I.ring.conductor, I.ring.field.p
    out = {e for e in range(n + c, top)}
    for v in span(I.window, c, p):
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None and n + lead < top:
            out.add(n + lead)
    return out


def rref_count_oracle(allowed, p):
    """The number of RREF matrices over F_p with support in the columns
    ``allowed`` and a pivot in the first of them, by walking every pivot
    pattern and counting its free entries."""
    rest = allowed[1:]
    total = 0
    for mask in range(1 << len(rest)):
        pivots = (allowed[0],) + tuple(j for b, j in enumerate(rest) if mask >> b & 1)
        free = [
            (ri, col)
            for ri, pc in enumerate(pivots)
            for col in allowed
            if col > pc and col not in pivots
        ]
        total += p ** len(free)
    return total


def hasse_diagram_oracle(ideals):
    """DOT text of the covering relation of containment by the cubic scan:
    A covers B iff A contains B and no third ideal lies strictly between."""
    ideals = sorted(set(ideals), key=canonical_key_oracle)
    if not ideals:
        return "digraph ideal_lattice {\n}\n"
    ring = ideals[0].ring
    if any(I.ring != ring for I in ideals):
        raise RingMismatch("hasse_diagram needs ideals of a single ring")
    n = len(ideals)
    gt = [[i != j and contains(A, B) for j, B in enumerate(ideals)] for i, A in enumerate(ideals)]
    lines = ["digraph ideal_lattice {", "  rankdir=LR;", "  node [shape=box];"]
    for I in ideals:
        label = ideal_label(I).replace('"', '\\"')
        lines.append(f'  {_node_id(I)} [label="{label}"];')
    for i, A in enumerate(ideals):
        for j, B in enumerate(ideals):
            if gt[i][j] and not any(gt[i][k] and gt[k][j] for k in range(n)):
                lines.append(f"  {_node_id(A)} -> {_node_id(B)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def two_pass_survivors_oracle(window, size, margin, mode, budget=10**6):
    """The tables on ``window(size)`` that are restrictions of tables on
    ``window(size + margin)``, found by searching both windows every time,
    even when the smaller one holds only the identity: the survivors as a
    set of frozen tables, and the number of tables on the smaller window."""
    from semiprime_lab.search import _as_table, _Searcher

    def tables(domain):
        return [_as_table(domain.elements, T) for T in _Searcher(domain, mode, budget, {}).run()]

    small = window(size)
    small_tables = tables(small)
    keep = set(small.elements)
    restrictions = set()
    for T in tables(window(size + margin)):
        R = frozenset((k, v) for k, v in T.items() if k in keep)
        if all(v in keep for _, v in R):
            restrictions.add(R)
    return {frozenset(T.items()) for T in small_tables} & restrictions, len(small_tables)


def table_key_oracle(domain, table):
    """The sort key of a table on ``domain``: its entries as (key of input,
    key of value) pairs, sorted.  Searches list their survivors in this
    order, which fixes the ``op_NN`` names."""
    return tuple(sorted((domain.key(k), domain.key(v)) for k, v in table.items()))
