"""Numerical semigroups: additive submonoids of N_0 with finite complement."""

from __future__ import annotations

import math

from .errors import EmptyGenerators, NotCoprime
from .frozen import Frozen, set_field


class NumericalSemigroup(Frozen):
    """The semigroup <g_1, ..., g_k> together with its gap data.

    ``gaps`` is the full finite set of positive integers that are not sums
    of generators, ``frobenius`` is the largest gap (-1 when there are
    none), and ``conductor = frobenius + 1`` is the threshold past which
    every integer belongs to the semigroup.
    """

    _fields = ("generators", "gaps", "frobenius", "conductor")
    __slots__ = _fields + ("_gap_set",)

    def __init__(self, generators: tuple[int, ...], gaps: tuple[int, ...],
                 frobenius: int, conductor: int):
        set_field(self, "generators", generators)
        set_field(self, "gaps", gaps)
        set_field(self, "frobenius", frobenius)
        set_field(self, "conductor", conductor)
        set_field(self, "_gap_set", frozenset(gaps))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.generators, self.gaps, self.frobenius, self.conductor)
                    == (other.generators, other.gaps, other.frobenius, other.conductor))
        return NotImplemented

    def __hash__(self):
        return hash((self.generators, self.gaps, self.frobenius, self.conductor))

    @property
    def multiplicity(self) -> int:
        """Least positive member."""
        return self.generators[0]

    def contains(self, e: int) -> bool:
        if e < 0:
            return False
        return e >= self.conductor or e not in self._gap_set

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def from_generators(gens) -> NumericalSemigroup:
    """Build the numerical semigroup generated by ``gens``.

    One sieve pass decides membership of 1, 2, 3, ... in turn and stops at
    the first run of ``min(gens)`` consecutive members: adding ``min(gens)``
    to the members of that run gives every larger integer, so the
    non-members seen before it are all the gaps.
    """
    gens = [int(g) for g in gens]
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if any(g < 1 for g in gens):
        raise ValueError(f"generators must be positive integers, got {gens}")
    gens = sorted(set(gens))
    if math.gcd(*gens) != 1:
        raise NotCoprime(f"gcd of {gens} is not 1; the complement would be infinite")
    g1 = gens[0]
    if g1 == 1:
        return NumericalSemigroup((1,), (), -1, 0)
    member, gaps, run = [True], [], 0
    while run < g1:
        e = len(member)
        member.append(any(member[e - g] for g in gens if g <= e))
        run = run + 1 if member[e] else 0
        if not run:
            gaps.append(e)
    frobenius = gaps[-1] if gaps else -1
    return NumericalSemigroup(tuple(gens), tuple(gaps), frobenius, frobenius + 1)
