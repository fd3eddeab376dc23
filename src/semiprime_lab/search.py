"""Exhaustive, pruned search for prime and semiprime operations on a finite
window: an ideal window (``IdealSetDomain``) or a fractional chain
(``ChainDomain``).

The domain names the seeds every operation fixes (the unit; in prime mode
also the zero and the principal ideals) and the order in which the other
elements are branched on.  Prime mode then propagates the scaling law
f(b.I) = b.f(I) through a trail-based constraint queue, over a list, made
once, of each I's scalings b.I that stay in the window; they are read off
the product table, which forms one product per pair of ideal windows
(``IdealSetDomain.product_table``).  A candidate value for f(I) is always
an already-fixed superset of I (or I itself), so idempotence is built into
the branching.  Product instances are checked as soon as both factors and
the product are assigned; instances whose product leaves the window are
counted as skipped.  Survivors must additionally
extend to the window enlarged by the margin, which removes boundary
artifacts; the identity always does, so a window with no other table is
searched once.  Only the survivors become dict tables, and a full axiom
check re-verifies each of them; it reads each table back as ids against
the window's containment rows and product table, never the search's own
assignment or instance lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .closures import ChainDomain, ClosureOperation, check_axioms, check_pairs, ideal_window
from .ideals import Ring, _bits

DEFAULT_BUDGET = 5_000_000

PRIME = "prime"
SEMIPRIME = "semiprime"


@dataclass
class SearchResult:
    operations: list
    stats: dict

    def is_identity_only(self) -> bool:
        return len(self.operations) == 1 and self.operations[0].name == "identity"


class _Searcher:
    """Depth-first search for every table on ``domain`` that passes the
    incremental axiom checks of ``mode``.

    The search runs on element ids, the indices into ``domain.elements``,
    over the domain's containment rows and product table: a table is the
    tuple whose entry i is the id of f(elements[i])."""

    def __init__(self, domain, mode: str, budget: int, stats: dict):
        elts = domain.elements
        n = len(elts)
        check_pairs(n, budget, stats=stats)
        self.domain = domain
        self.budget = budget
        self.stats = stats
        ids = {x: i for i, x in enumerate(elts)}
        seeds = [ids[x] for x in domain.search_seeds(mode == PRIME)]
        fixed = set(seeds)
        self.variables = sorted((i for i in range(n) if i not in fixed),
                                key=lambda i: domain.branch_key(elts[i]))
        self.assign = [-1] * n
        self.trail: list = []
        self.found: list[tuple] = []
        self.prunes = stats.setdefault("prunes", {})
        self.eliminations = stats.setdefault("eliminations", {})
        # rows[i] >> j & 1: elements[i] contains elements[j]; products[i][j]:
        # the id of the product, -1 outside the window
        self.rows = rows = domain.containment()
        self.products = products = domain.product_table()
        # supersets and subsets in id order, each id's own included (it is
        # unassigned whenever they are read), and the in-window product
        # instances (a, b, a*b), each listed once under every id it names
        self.subsets = [list(_bits(row)) for row in rows]
        self.supersets = [[] for _ in range(n)]
        for j, below in enumerate(self.subsets):
            for i in below:
                self.supersets[i].append(j)
        self.instances: list = [[] for _ in range(n)]
        skipped = 0
        for a in range(n):
            row = products[a]
            for b in range(a, n):
                p = row[b]
                if p < 0:
                    skipped += 1
                    continue
                for x in {a, b, p}:
                    self.instances[x].append((a, b, p))
        stats["skipped_product_instances"] = stats.get("skipped_product_instances", 0) + skipped
        # the scalings (b, b.a) of each a by a principal b with b.a in the window
        principal_ids = [ids[b] for b in domain.principals()] if mode == PRIME else []
        self.scalings = [[(b, products[b][a]) for b in principal_ids if products[b][a] >= 0]
                         for a in range(n)]
        for x in seeds:
            if not self._propagate(x, x):
                raise AssertionError("inconsistent seeds")

    def _tick(self):
        self.stats["nodes"] = self.stats.get("nodes", 0) + 1
        if self.stats["nodes"] > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes", self.stats)

    def _prune(self, cause: str, var: int, val: int):
        """Count a prune; ids follow the domain's key order, so the id pair
        sorts the eliminations as the element keys would."""
        self.prunes[cause] = self.prunes.get(cause, 0) + 1
        key = (var, val)
        if key not in self.eliminations:
            elts = self.domain.elements
            self.eliminations[key] = (elts[var], elts[val], cause)

    def _holds_product(self, fA: int, fB: int, fP: int) -> bool:
        """f(A)f(B) lies in f(A*B); a product outside the window is formed
        and tested by the domain."""
        q = self.products[fA][fB]
        if q >= 0:
            return self.rows[fP] >> q & 1 == 1
        domain, elts = self.domain, self.domain.elements
        return domain.contains(elts[fP], domain.product(elts[fA], elts[fB]))

    def _propagate(self, x: int, v: int) -> bool:
        """Assign f(x) = v plus everything it forces; False on conflict."""
        assign, rows, products = self.assign, self.rows, self.products
        queue = [(x, v)]
        while queue:
            a, w = queue.pop()
            cur = assign[a]
            if cur >= 0:
                if cur != w:
                    self._prune("scaling_conflict", a, w)
                    return False
                continue
            self._tick()
            if w != a:
                fw = assign[w]
                if fw < 0:
                    queue.append((w, w))  # idempotence: the value must be fixed
                elif fw != w:
                    self._prune("idempotence", a, w)
                    return False
            # monotonicity against everything already assigned
            for K in self.supersets[a]:
                fK = assign[K]
                if fK >= 0 and not rows[fK] >> w & 1:
                    self._prune("monotone", a, w)
                    return False
            row = rows[w]
            for K in self.subsets[a]:
                fK = assign[K]
                if fK >= 0 and not row >> fK & 1:
                    self._prune("monotone", a, w)
                    return False
            # product instances that became fully assigned
            for (A, B, P) in self.instances[a]:
                fA = w if A == a else assign[A]
                if fA < 0:
                    continue
                fB = w if B == a else assign[B]
                if fB < 0:
                    continue
                fP = w if P == a else assign[P]
                if fP >= 0 and not self._holds_product(fA, fB, fP):
                    self._prune("product", a, w)
                    return False
            assign[a] = w
            self.trail.append(a)
            for b, q in self.scalings[a]:
                bw = products[b][w]
                if bw < 0:  # f(bI) = b.f(I) would leave the window
                    self._prune("scaling_conflict", a, w)
                    return False
                queue.append((q, bw))
        return True

    def _undo(self, mark: int):
        while len(self.trail) > mark:
            self.assign[self.trail.pop()] = -1

    def _candidates(self, X: int):
        assign = self.assign
        return [J for J in self.supersets[X] if J == X or assign[J] == J]

    def run(self):
        """Depth-first over the variables in order.  The search keeps its own
        stack of frames (variable, index after it, untried candidates, trail
        mark), so the depth of a window is not bounded by Python's recursion
        limit."""
        variables, n = self.variables, len(self.variables)
        stack: list = []
        i = 0
        while i is not None:
            while i < n and self.assign[variables[i]] >= 0:
                i += 1
            if i == n:
                self._emit()
            else:
                X = variables[i]
                stack.append((X, i + 1, iter(self._candidates(X)), len(self.trail)))
            i = self._advance(stack)
        return self.found

    def _advance(self, stack):
        """Assign the next candidate of the innermost frame that propagates,
        popping exhausted frames; the variable index to go on from, or None
        when the search is over."""
        while stack:
            X, i, candidates, mark = stack[-1]
            for J in candidates:
                self._undo(mark)
                if self._propagate(X, J):
                    return i
            self._undo(mark)
            stack.pop()
        return None

    def _emit(self):
        self.found.append(tuple(self.assign))


def _as_table(elements, ids: tuple) -> dict:
    """The dict table of an id tuple on ``elements``."""
    return {x: elements[v] for x, v in zip(elements, ids)}


def _extension_search(window, size: int, margin: int, mode: str, budget: int) -> SearchResult:
    """The tables on ``window(size)`` that are restrictions of tables on
    ``window(size + margin)``, each re-verified by ``check_axioms``.

    ``window(n)`` builds a window.  The larger one is built only after the
    first search has finished, so a run stopped by the budget there never
    pays for enumerating it.  With margin 0 the larger window is the same
    window, and when the only table is the identity it extends to every
    window; in both cases every table survives and no second search is run.
    Ids follow the domain's key order, so the sorted id tuples are the
    tables in the order of their sorted (key, value-key) entries.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    stats: dict = {}
    small_domain = window(size)
    small = small_domain.elements
    small_tables = sorted(_Searcher(small_domain, mode, budget, stats).run())
    stats["window_candidates"] = len(small_tables)
    identity = tuple(range(len(small)))
    survivors = small_tables
    big_stats: dict = {}
    # the identity passes every axiom on every window, so the larger search
    # would find it and keep it: with no other candidate there is no search
    if margin and any(T != identity for T in small_tables):
        big_domain = window(size + margin)
        big_tables = _Searcher(big_domain, mode, budget, big_stats).run()
        # the small window's ids among the larger window's, -1 for the rest;
        # both follow key order, so the kept ids run in small-id order
        small_id = {x: i for i, x in enumerate(small)}
        to_small = [small_id.get(x, -1) for x in big_domain.elements]
        kept = [b for b, i in enumerate(to_small) if i >= 0]
        restrictions = set()
        for T in big_tables:
            R = tuple(to_small[T[b]] for b in kept)
            if -1 not in R:
                restrictions.add(R)
        survivors = [T for T in small_tables if T in restrictions]
    stats["extension_nodes"] = big_stats.get("nodes", 0)
    stats["extension_discarded"] = len(small_tables) - len(survivors)
    ops = []
    axioms = (1, 2, 3, 4, 5) if mode == PRIME else (1, 2, 3, 4)
    for idx, T in enumerate(survivors):
        name = "identity" if T == identity else f"op_{idx:02d}"
        op = ClosureOperation(name, "table", table=_as_table(small, T))
        # cross-module re-verification: never trust the search's own bookkeeping
        if not check_axioms(op, small_domain, axioms).passed():
            raise AssertionError(f"search produced an inconsistent table {name}")
        ops.append(op)
    return SearchResult(ops, stats)


def search_prime(ring: Ring, max_order: int, mode: str = PRIME, margin: int = 2,
                 budget: int = DEFAULT_BUDGET) -> SearchResult:
    """All prime operations on ``ideal_window(ring, max_order)``, stable under
    the margin; with ``mode`` SEMIPRIME, all semiprime operations instead."""
    if mode not in (PRIME, SEMIPRIME):
        raise ValueError(f"mode must be prime or semiprime, got {mode}")
    return _extension_search(lambda n: ideal_window(ring, n), max_order, margin, mode, budget)


def search_fractional_chain(D: int, margin: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """All semiprime operations on the fractional chain P^-D, ..., P^D,
    stable under extension of the chain half-width by ``margin``.

    Seeding f(R) = R loses nothing: axiom 4 at (R, R) puts f(R) inside R,
    and axiom 1 puts R inside f(R).
    """
    return _extension_search(ChainDomain, D, margin, SEMIPRIME, budget)


def explain_pruning(result: SearchResult) -> str:
    """Human-readable account of the search statistics and of the first
    constraint that eliminated each rejected assignment."""
    stats = result.stats
    lines = [
        f"nodes explored: {stats.get('nodes', 0)}",
        f"window candidates before extension check: {stats.get('window_candidates', 0)}",
        f"discarded by extension stability: {stats.get('extension_discarded', 0)}",
        f"product instances out of window (skipped): {stats.get('skipped_product_instances', 0)}",
    ]
    prunes = stats.get("prunes", {})
    if prunes:
        lines.append("prunes by cause:")
        for cause in sorted(prunes):
            lines.append(f"  {cause}: {prunes[cause]}")
    elim = stats.get("eliminations", {})
    if elim:
        lines.append("first elimination per rejected assignment:")
        for key in sorted(elim):
            var, val, cause = elim[key]
            lines.append(f"  f({var}) = {val} rejected by {cause}")
    if not prunes and not elim:
        lines.append("no assignments were rejected")
    return "\n".join(lines) + "\n"
