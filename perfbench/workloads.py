"""Job families and the seeded job generator.

A cold workload is a list of CLI jobs, each run in a fresh interpreter.
Every round of a cold workload holds each member of its family once; the
seed picks the order of the jobs in each round and the order of each job's
options.  Members of one family differ up to eightfold in cost, so a mix
drawn by the seed would make ``jobs_per_s`` a property of the seed rather
than of the program; holding the mix fixed keeps the seeds comparable.

The ``queries`` workload serves a fixed pool of small calls, generated once
from POOL_SEED; every round serves the whole pool in a seeded order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from serve import PRIMES, RING_GENS

# Exit code, stdout digest and paper check of each job are keyed on the
# job's canonical command line (options in the order written here).
SEARCH_TABLES = [
    # anchor: 117 ideals; building the window tables dominates
    ("search", [("--gens", "2,7"), ("--p", "2"), ("--max-order", "12"), ("--margin", "4")], "identity_only"),
    ("search", [("--gens", "2,5"), ("--p", "2"), ("--max-order", "10"), ("--margin", "4")], "identity_only"),
    ("search", [("--gens", "2,5"), ("--p", "2"), ("--max-order", "12"), ("--margin", "4")], "identity_only"),
    ("search", [("--gens", "2,5"), ("--p", "3"), ("--max-order", "10"), ("--margin", "4")], "identity_only"),
    ("search", [("--gens", "2,7"), ("--p", "2"), ("--max-order", "10"), ("--margin", "4")], "identity_only"),
]

SEARCH_BRANCHING = [
    # anchor: 48,755 nodes, 4,624 window candidates, 3 survivors
    ("search", [("--gens", "3,4,5"), ("--p", "3"), ("--max-order", "7"), ("--margin", "2")], "fc_345"),
    ("search", [("--gens", "3,4,5"), ("--p", "2"), ("--max-order", "9"), ("--margin", "3")], "fc_345"),
    ("search", [("--gens", "3,4,5"), ("--p", "2"), ("--max-order", "10"), ("--margin", "3")], "fc_345"),
    ("search", [("--gens", "3,4,5"), ("--p", "2"), ("--max-order", "11"), ("--margin", "3")], "fc_345"),
    ("search", [("--gens", "1"), ("--p", "2"), ("--mode", "semiprime"), ("--max-order", "8")], None),
    ("demo-fractional", [("--dvr",), ("--D", "5"), ("--candidate", "identity")], "certified"),
    ("demo-fractional", [("--dvr",), ("--D", "6"), ("--candidate", "identity")], "certified"),
]

LATTICE_VERIFY = [
    ("ideals enumerate", [("--gens", "2,7"), ("--p", "3"), ("--max-order", "12"), ("--json",)], None),
    ("lattice", [("--gens", "2,5"), ("--p", "7"), ("--max-order", "10")], None),
    ("verify", [("--op", "fc_345"), ("--gens", "3,4,5"), ("--p", "3"), ("--max-order", "9"),
                ("--axioms", "1-5")], "verify_pass"),
    ("verify", [("--op", "integral_closure"), ("--gens", "2,7"), ("--p", "2"), ("--max-order", "12")],
     "verify_fail"),
]

COLD = {
    "search-tables": SEARCH_TABLES,
    "search-branching": SEARCH_BRANCHING,
    "lattice-verify": LATTICE_VERIFY,
}

# The same commands at sizes that take a fraction of a second, for the
# benchmark's self-test.
TINY = {
    "search-tables": [
        ("search", [("--gens", "2,5"), ("--p", "2"), ("--max-order", "6"), ("--margin", "2")], "identity_only"),
        ("search", [("--gens", "2,7"), ("--p", "2"), ("--max-order", "6"), ("--margin", "2")], "identity_only"),
    ],
    "search-branching": [
        ("search", [("--gens", "3,4,5"), ("--p", "2"), ("--max-order", "7"), ("--margin", "1")], "fc_345"),
        ("search", [("--gens", "1"), ("--p", "2"), ("--mode", "semiprime"), ("--max-order", "4")], None),
        ("demo-fractional", [("--dvr",), ("--D", "3"), ("--candidate", "identity")], "certified"),
    ],
    "lattice-verify": [
        ("ideals enumerate", [("--gens", "2,5"), ("--p", "2"), ("--max-order", "6"), ("--json",)], None),
        ("lattice", [("--gens", "2,5"), ("--p", "2"), ("--max-order", "6")], None),
        ("verify", [("--op", "fc_345"), ("--gens", "3,4,5"), ("--p", "2"), ("--max-order", "5"),
                    ("--axioms", "1-5")], "verify_pass"),
        ("verify", [("--op", "integral_closure"), ("--gens", "2,5"), ("--p", "2"), ("--max-order", "6")],
         "verify_fail"),
    ],
}
TINY_POOL = 60

# Members left out of every family, with the reason; measured on 2 cores
# with Python 3.11.
EXCLUDED = [
    {"argv": "search --gens 2,9 --p 2 --max-order 12 --margin 4",
     "reason": "run length: spends ~15 s before raising InfeasibleEnumeration"},
    {"argv": "search --gens 2,5 --p 2 --mode semiprime --max-order 10",
     "reason": "run length: uses up the 5M-node budget after ~255 s"},
    {"argv": "search --gens 2,5 --p 5 --max-order 8 --margin 4",
     "reason": "run length: 4.9-6.8 s, longer than the anchor; with it a search-tables run "
               "fits only two copies of each job, and job_ms.p50 and job_ms.tail then rest "
               "on one or two jobs each"},
]

# Cold runs hold whole rounds and at least this many jobs, so that
# job_ms.tail (ten samples beyond it) always exists.  With five jobs a
# round (search-tables), three rounds put job_ms.p50 and job_ms.tail each
# on the middle copy of one job.
MIN_JOBS = 11


def key(cmd, opts):
    return " ".join([cmd] + [x for opt in opts for x in opt])


def family(workload, tiny=False):
    return (TINY if tiny else COLD)[workload]


def cold_round(rng, fam):
    """One round: every member once, in seeded order, options shuffled.

    Generator lists are also written in seeded order; the program sorts
    them, so the output does not change."""
    jobs = []
    for cmd, opts, check in rng.sample(fam, len(fam)):
        shuffled = []
        for opt in rng.sample(opts, len(opts)):
            if opt[0] == "--gens" and rng.random() < 0.5:
                opt = ("--gens", ",".join(reversed(opt[1].split(","))))
            shuffled.append(opt)
        argv = cmd.split() + [x for opt in shuffled for x in opt]
        jobs.append({"key": key(cmd, opts), "argv": argv, "check": check})
    return jobs


# ---- queries ---------------------------------------------------------------

POOL_SEED = 20091117
POOL_SIZE = 1200
# (kind, weight): CLI commands run through cli.main, the rest are calls
# into semiprime_lab.ideals on ideals built from generator text.  A CLI
# call costs 2-3 ms and a direct call 0.3-1 ms; with CLI calls at 70% the
# median sits inside the CLI cluster rather than in the gap between the
# two, where it jumped by 20% from run to run.
QUERY_KINDS = [
    ("semigroup", 20), ("canon", 25), ("classify", 25), ("product", 6),
    ("ideal_sum", 6), ("intersect", 6), ("contains", 6), ("min_generators", 6),
]


def _members(gens, lo, hi):
    """Members of <gens> in [lo, hi), by a sieve independent of the program."""
    ok = [False] * hi
    ok[0] = True
    for e in range(1, hi):
        ok[e] = any(e >= g and ok[e - g] for g in gens)
    return [e for e in range(lo, hi) if ok[e]]


def _conductor(gens):
    top = max(gens) * max(gens)
    ok = _members(gens, 0, top)
    gaps = sorted(set(range(top)) - set(ok))
    return gaps[-1] + 1 if gaps else 0


def _element(rng, gens, p):
    """Text of a random nonzero nonunit of K[[t^S]] of order at most 10."""
    c = _conductor(gens)
    n = rng.choice(_members(gens, 1, 11))
    terms = [(n, rng.randrange(1, p))]
    for e in _members(gens, n + 1, n + c + 2):
        if rng.random() < 0.5:
            terms.append((e, rng.randrange(1, p)))
    return " + ".join(("" if a == 1 else str(a)) + f"t^{e}" for e, a in terms)


def _ideal(rng, gens, p):
    return [_element(rng, gens, p) for _ in range(rng.randint(1, 3))]


def _query(rng):
    kinds, weights = zip(*QUERY_KINDS)
    kind = rng.choices(kinds, weights)[0]
    if kind == "semigroup":
        while True:  # the sieve's length grows with the two smallest generators
            triple = [rng.randint(2, 20), *rng.sample(range(21, 151), 2)]
            if math.gcd(*triple) == 1:
                return ["cli", ["semigroup", "--gens", ",".join(map(str, triple))]]
    gens = list(rng.choice(RING_GENS))
    p = rng.choice(PRIMES)
    ring = ["--gens", ",".join(map(str, gens)), "--p", str(p)]
    if kind == "canon":
        return ["cli", ["canon", *ring, "--elem", _element(rng, gens, p), "--json"]]
    if kind == "classify":
        return ["cli", ["ideals", "classify", *ring, "--ideal", ", ".join(_ideal(rng, gens, p)), "--json"]]
    second = [] if kind == "min_generators" else _ideal(rng, gens, p)
    return ["call", kind, gens, p, _ideal(rng, gens, p), second]


def pool(tiny=False):
    rng = random.Random(POOL_SEED)
    entries = [_query(rng) for _ in range(POOL_SIZE)]
    return entries[:TINY_POOL] if tiny else entries


def pool_digest(entries):
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def query_round(rng, n):
    """Indices into the pool: the whole pool once, in seeded order."""
    return rng.sample(range(n), n)
