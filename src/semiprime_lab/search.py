"""Exhaustive, pruned search for prime and semiprime operations on a finite
window: an ideal window (``IdealSetDomain``) or a fractional chain
(``ChainDomain``).

The domain names the seeds every operation fixes (the unit; in prime mode
also the zero and the principal ideals) and the order in which the other
elements are branched on.  Prime mode then propagates the scaling law
f(b.I) = b.f(I) through a trail-based constraint queue.  A candidate
value for f(I) is always an already-fixed superset of I (or I itself), so
idempotence is built into the branching.  Product instances are checked as
soon as both factors and the product are assigned; instances whose product
leaves the window are counted as skipped, and a final full axiom check
re-verifies every surviving table.  Survivors must additionally extend to
the window enlarged by the margin, which removes boundary artifacts; the
identity always does, so a window with no other table is searched once.
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
    incremental axiom checks of ``mode``."""

    def __init__(self, domain, mode: str, budget: int, stats: dict):
        elts = domain.elements
        check_pairs(len(elts), budget, stats=stats)
        self.domain = domain
        self.mode = mode
        self.budget = budget
        self.stats = stats
        seeds = domain.search_seeds(mode == PRIME)
        fixed = set(seeds)
        self.variables = sorted((x for x in elts if x not in fixed), key=domain.branch_key)
        self.assign: dict = {}
        self.trail: list = []
        self.found: list[dict] = []
        self.prunes = stats.setdefault("prunes", {})
        self.eliminations = stats.setdefault("eliminations", {})
        # supersets/subsets, in element order, and the in-window product
        # instances (A, B, A*B), each listed once under every element it names
        self.subsets = {I: [elts[j] for j in _bits(row & ~(1 << i))]
                        for i, (I, row) in enumerate(zip(elts, domain.containment()))}
        self.supersets = {I: [] for I in elts}
        for J in elts:
            for I in self.subsets[J]:
                self.supersets[I].append(J)
        self.instances: dict = {I: [] for I in elts}
        skipped = 0
        for i, A in enumerate(elts):
            for B in elts[i:]:
                P = domain.product_in(A, B)
                if P is None:
                    skipped += 1
                    continue
                for X in {A, B, P}:
                    self.instances[X].append((A, B, P))
        stats["skipped_product_instances"] = stats.get("skipped_product_instances", 0) + skipped
        self.principal_list = domain.principals() if mode == PRIME else []
        for x in seeds:
            if not self._propagate(x, x):
                raise AssertionError("inconsistent seeds")

    def _tick(self):
        self.stats["nodes"] = self.stats.get("nodes", 0) + 1
        if self.stats["nodes"] > self.budget:
            raise BudgetExceeded(f"search exceeded {self.budget} nodes", self.stats)

    def _prune(self, cause: str, var, val):
        self.prunes[cause] = self.prunes.get(cause, 0) + 1
        key = (self.domain.key(var), self.domain.key(val))
        if key not in self.eliminations:
            self.eliminations[key] = (var, val, cause)

    def _propagate(self, x, v) -> bool:
        """Assign f(x) = v plus everything it forces; False on conflict."""
        domain = self.domain
        queue = [(x, v)]
        while queue:
            a, w = queue.pop()
            cur = self.assign.get(a)
            if cur is not None:
                if cur != w:
                    self._prune("scaling_conflict", a, w)
                    return False
                continue
            self._tick()
            if w != a:
                fw = self.assign.get(w)
                if fw is None:
                    queue.append((w, w))  # idempotence: the value must be fixed
                elif fw != w:
                    self._prune("idempotence", a, w)
                    return False
            # monotonicity against everything already assigned
            for K in self.supersets[a]:
                fK = self.assign.get(K)
                if fK is not None and not domain.contains(fK, w):
                    self._prune("monotone", a, w)
                    return False
            for K in self.subsets[a]:
                fK = self.assign.get(K)
                if fK is not None and not domain.contains(w, fK):
                    self._prune("monotone", a, w)
                    return False
            # product instances that became fully assigned
            for (A, B, P) in self.instances[a]:
                fA = w if A == a else self.assign.get(A)
                fB = w if B == a else self.assign.get(B)
                fP = w if P == a else self.assign.get(P)
                if fA is not None and fB is not None and fP is not None:
                    if not domain.contains(fP, domain.product(fA, fB)):
                        self._prune("product", a, w)
                        return False
            self.assign[a] = w
            self.trail.append(a)
            if self.mode == PRIME:
                for b in self.principal_list:
                    q = domain.product_in(b, a)
                    if q is not None:
                        queue.append((q, domain.product(b, w)))
        return True

    def _undo(self, mark: int):
        while len(self.trail) > mark:
            del self.assign[self.trail.pop()]

    def _candidates(self, X):
        out = []
        for J in self.domain.elements:
            if J != X and not self.domain.contains(J, X):
                continue
            if J == X or self.assign.get(J) == J:
                out.append(J)
        return out

    def run(self):
        """Depth-first over the variables in order.  The search keeps its own
        stack of frames (variable, index after it, untried candidates, trail
        mark), so the depth of a window is not bounded by Python's recursion
        limit."""
        variables, n = self.variables, len(self.variables)
        stack: list = []
        i = 0
        while i is not None:
            while i < n and variables[i] in self.assign:
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
        self.found.append(dict(self.assign))


def _table_key(domain, table):
    return tuple(sorted((domain.key(k), domain.key(v)) for k, v in table.items()))


def _extension_search(window, size: int, margin: int, mode: str, budget: int) -> SearchResult:
    """The tables on ``window(size)`` that are restrictions of tables on
    ``window(size + margin)``, each re-verified by ``check_axioms``.

    ``window(n)`` builds a window.  The larger one is built only after the
    first search has finished, so a run stopped by the budget there never
    pays for enumerating it.  With margin 0 the larger window is the same
    window, and when the only table is the identity it extends to every
    window; in both cases every table survives and no second search is run.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    stats: dict = {}
    small_domain = window(size)
    small_tables = _Searcher(small_domain, mode, budget, stats).run()
    small_tables.sort(key=lambda T: _table_key(small_domain, T))
    stats["window_candidates"] = len(small_tables)
    survivors = small_tables
    big_stats: dict = {}
    # the identity passes every axiom on every window, so the larger search
    # would find it and keep it: with no other candidate there is no search
    if margin and any(k != v for T in small_tables for k, v in T.items()):
        big_tables = _Searcher(window(size + margin), mode, budget, big_stats).run()
        small_set = set(small_domain.elements)
        restrictions = set()
        for T in big_tables:
            R = {k: v for k, v in T.items() if k in small_set}
            if all(v in small_set for v in R.values()):
                restrictions.add(_table_key(small_domain, R))
        survivors = [T for T in small_tables if _table_key(small_domain, T) in restrictions]
    stats["extension_nodes"] = big_stats.get("nodes", 0)
    stats["extension_discarded"] = len(small_tables) - len(survivors)
    ops = []
    axioms = (1, 2, 3, 4, 5) if mode == PRIME else (1, 2, 3, 4)
    for idx, T in enumerate(survivors):
        name = "identity" if all(k == v for k, v in T.items()) else f"op_{idx:02d}"
        op = ClosureOperation(name, "table", table=T)
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
