"""Acceptance suite: one test per criterion, each printing a PASS line.

Each criterion is also runnable as a single CLI invocation (recorded in the
README); the tests below drive the same code through the CLI where that is
natural and through the library API where a loop is needed.
"""

import json
import random
import time
from collections import Counter
from itertools import product as iproduct
from pathlib import Path

from semiprime_lab.cli import main
from semiprime_lab.closures import (
    ChainDomain,
    builtin,
    check_axioms,
    fractional_violation,
    ideal_window,
)
from semiprime_lab.ideals import (
    Ring,
    canonical_principal_form,
    classify_shape,
    enumerate_ideals,
    gap_coefficient_exponents,
    hasse_diagram,
    ideal_from_generators,
    min_generators,
    product,
)
from semiprime_lab.search import SEMIPRIME, search_prime
from semiprime_lab.semigroup import from_generators
from semiprime_lab.series import PrimeField, TruncatedSeries

from oracles import chain_closure_tables_oracle, principal_coeffs_oracle

GOLDEN = Path(__file__).parent / "golden"


class timer:
    def __init__(self, criterion, limit_s):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
            assert elapsed < self.limit, f"criterion {self.criterion} exceeded {self.limit}s"
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.2f}s)")
        return False


def cli_json(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def test_criterion_01_conductor_reproduction(capsys):
    with timer(1, 1.0):
        for r in (1, 2, 3, 4):
            payload = cli_json(capsys, "semigroup", "--gens", f"2,{2 * r + 1}")
            assert payload["conductor"] == 2 * r, f"r={r}"


def test_criterion_02_principal_canonical_form_2_5():
    with timer(2, 10.0):
        for p in (2, 3):
            ring = Ring(from_generators([2, 5]), PrimeField(p))
            S = ring.semigroup
            c = S.conductor
            checked = 0
            for n in range(1, 9):
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
                    f = TruncatedSeries(ring.field, tuple(coeffs), S)
                    tag = canonical_principal_form(ring, f)
                    oracle = principal_coeffs_oracle(a, p)
                    exps = gap_coefficient_exponents(ring, n)
                    assert [tag.params[i] for i in range(len(exps))] == [
                        oracle[e - n] for e in exps
                    ], (p, n, a)
                    checked += 1
            assert checked == (4 if p == 2 else 9) + 5 * p**3


def test_criterion_03_classification_two_generated(capsys):
    with timer(3, 30.0):
        for gens in ([2, 5], [2, 7]):
            ring = Ring(from_generators(gens), PrimeField(2))
            payload = cli_json(
                capsys, "ideals", "enumerate", "--gens", ",".join(map(str, gens)),
                "--p", "2", "--max-order", "10", "--json",
            )
            unclassified = [r for r in payload["ideals"]
                            if r["kind"] == "proper" and r["shape"] is None]
            assert not unclassified
            ideals = enumerate_ideals(ring, 10)
            for I in ideals:
                if not I.is_proper():
                    continue
                assert min_generators(I) <= 2
                tag = classify_shape(I)  # raises UnclassifiedIdeal on failure
                assert ideal_from_generators(ring, tag.expand(ring)) == I
            assert len(ideals) == len(payload["ideals"])


def shape_family_count(p: int) -> int:
    """Distinct ideals per order n >= 3 of K[[t^3,t^4,t^5]] from the four
    normal-form families, after removing overlaps:

    (t^n+a t^(n+1)+b t^(n+2))            p^2 ideals
    (t^n+a t^(n+1), t^(n+2))             p
    (t^n+a t^(n+2), t^(n+1)+b t^(n+2))   p^2   (a=0 covers (t^n, t^(n+1)+b t^(n+2)))
    (t^n, t^(n+1), t^(n+2))              1
    """
    return p * p + p + p * p + 1


def test_criterion_04_classification_embdim3():
    with timer(4, 30.0):
        for p in (2, 3):
            ring = Ring(from_generators([3, 4, 5]), PrimeField(p))
            ideals = enumerate_ideals(ring, 9)
            per_order = Counter()
            for I in ideals:
                if not I.is_proper():
                    continue
                tag = classify_shape(I)
                assert tag.family in ("PRINCIPAL", "TWO_GEN_A", "TWO_GEN_B", "THREE_GEN")
                per_order[I.order] += 1
            for n in range(3, 10):
                assert per_order[n] == shape_family_count(p), (p, n)
        # over F_2 the family count oracle gives 11 = 4+2+4+1 per order
        assert shape_family_count(2) == 11


def test_criterion_05_lattice_golden_file(capsys):
    with timer(5, 5.0):
        ring = Ring(from_generators([2, 5]), PrimeField(2))
        dot = hasse_diagram(enumerate_ideals(ring, 6))
        assert dot == (GOLDEN / "lattice_2_5_f2_order6.dot").read_text()
        import re

        labels = dict(re.findall(r'(\w+) \[label="([^"]*)"\];', dot))
        edges = {(labels[a], labels[b]) for a, b in re.findall(r"(\w+) -> (\w+);", dot)}
        assert ("R", "(t^2, t^5)") in edges
        for mid in ("(t^2)", "(t^2+t^5)"):  # |K| principal nodes at order 2
            assert ("(t^2, t^5)", mid) in edges
            assert (mid, "(t^4, t^7)") in edges
        assert ("(t^4, t^5)", "(t^5, t^6)") in edges
        assert ("(t^5, t^6)", "(t^6, t^7)") in edges
        # |K|- and |K|^2-sized principal fibers
        principals = [
            lbl for lbl in labels.values()
            if lbl.startswith("(t^") and "," not in lbl
        ]
        by_order = Counter(int(lbl.split("^")[1].rstrip(")").split("+")[0]) for lbl in principals)
        assert by_order == {2: 2, 4: 4, 5: 4, 6: 4}


def test_criterion_06_fc_345_is_prime():
    with timer(6, 120.0):
        product_instances = 0
        for p in (2, 3):
            ring = Ring(from_generators([3, 4, 5]), PrimeField(p))
            dom = ideal_window(ring, 9)
            rep = check_axioms(builtin("fc_345", ring), dom, (1, 2, 3, 4, 5))
            assert rep.passed(), f"p={p}"
            assert rep.results[5].skipped == 0
            assert rep.results[4].skipped == 0
            product_instances += rep.results[4].checked
        assert product_instances >= 10_000


def test_criterion_07_integral_closure_semiprime_not_prime():
    with timer(7, 10.0):
        ring = Ring(from_generators([2, 5]), PrimeField(2))
        dom = ideal_window(ring, 10)
        ic = builtin("integral_closure", ring)
        rep = check_axioms(ic, dom, (1, 2, 3, 4, 5))
        assert rep.passed((1, 2, 3, 4))
        assert not rep.passed((5,))
        b = ideal_from_generators(ring, [ring.parse("t^5")])
        I = ideal_from_generators(ring, [ring.parse("t^2")])
        hits = [w for w in rep.results[5].witnesses if w.inputs == (b, I)]
        assert hits and hits[0].replay()
        # direct-computation oracle: t^8 lies in f(bI) but not in b.f(I)
        from semiprime_lab.ideals import element_in_ideal

        lhs = ic(product(b, I))
        rhs = product(b, ic(I))
        t8 = ring.parse("t^8")
        assert element_in_ideal(t8, lhs)
        assert not element_in_ideal(t8, rhs)


def test_criterion_08_dvr_semiprime_classification():
    with timer(8, 60.0):
        oracle_tables = chain_closure_tables_oracle(4)
        assert len(oracle_tables) == 10  # pre-registered brute-force count
        dvr = Ring(from_generators([1]), PrimeField(2))
        res = search_prime(dvr, 4, SEMIPRIME)
        assert len(res.operations) == len(oracle_tables)
        got = set()
        for op in res.operations:
            flat = {}
            for a, v in op.table.items():
                ka = "zero" if a.is_zero() else a.order
                flat[ka] = "zero" if v.is_zero() else v.order
            got.add(tuple(sorted(flat.items(), key=str)))
        expected = set()
        for m in range(5):
            f = {i: min(i, m) for i in range(5)}
            expected.add(tuple(sorted({**f, "zero": "zero"}.items(), key=str)))
            expected.add(tuple(sorted({**f, "zero": m}.items(), key=str)))
        assert got == expected


def test_criterion_09_prime_uniqueness_2_5(capsys):
    with timer(9, 600.0):
        payload = cli_json(
            capsys, "search", "--gens", "2,5", "--p", "2", "--max-order", "10",
            "--mode", "prime", "--margin", "4", "--json", "--expect-identity-only",
        )
        assert payload["operation_count"] == 1
        ring = Ring(from_generators([2, 5]), PrimeField(2))
        res = search_prime(ring, 12, margin=4)
        assert res.is_identity_only()


def test_criterion_10_prime_existence_345():
    with timer(10, 600.0):
        ring = Ring(from_generators([3, 4, 5]), PrimeField(2))
        res = search_prime(ring, 9, margin=3)
        names = [op.name for op in res.operations]
        assert "identity" in names
        fc = builtin("fc_345", ring)
        assert any(
            all(fc(k) == v for k, v in op.table.items()) for op in res.operations
        ), "fc_345 restriction not found"


def bounded_candidate_family(D: int, count: int):
    """Deterministic family of bounded closure tables on [-D, D]: retracts
    onto fixed-point sets containing -D and 0 with maximum below D."""
    rng = random.Random(20250810 + D)
    seen = set()
    out = []
    while len(out) < count:
        F = {-D, 0}
        for x in range(-D + 1, D):
            if x != 0 and rng.random() < 0.5:
                F.add(x)
        key = tuple(sorted(F))
        if key in seen:
            continue
        seen.add(key)
        table = {i: max(x for x in F if x <= i) for i in range(-D, D + 1)}
        out.append(table)
    return out


def test_criterion_11_fractional_impossibility():
    with timer(11, 30.0):
        chain = ChainDomain(6)
        for table in bounded_candidate_family(6, 50):
            out = fractional_violation(chain, table)
            assert out.kind == "witness" and out.verified
            assert out.witness["j"] < 0
        enlarging = {i: i for i in range(-6, 7)}
        enlarging[0] = -1
        out = fractional_violation(chain, enlarging)
        assert out.kind == "witness" and out.verified
        assert (out.witness["i"], out.witness["j"]) == (0, 0)
        ring25 = Ring(from_generators([2, 5]), PrimeField(2))
        element_chain = ChainDomain(5, ring25.parse("t^2"))
        for table in bounded_candidate_family(5, 50):
            out = fractional_violation(element_chain, table)
            assert out.kind == "witness" and out.verified
