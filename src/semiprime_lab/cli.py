"""Command-line front end: reproducible, scriptable runs with JSON output."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .closures import (
    ChainDomain,
    builtin,
    check_axioms,
    check_pairs,
    fractional_violation,
    ideal_window,
)
from .errors import SemigroupRingError
from .ideals import (
    Ring,
    canonical_principal_form,
    classify_shape,
    enumerate_ideals,
    hasse_diagram,
    ideal_from_generators,
    ideal_label,
    ideal_record,
    min_generators,
)
from .search import DEFAULT_BUDGET, search_prime, explain_pruning
from .semigroup import from_generators
from .series import PrimeField

SCHEMA_VERSION = 1


def _gens(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad generator list {text!r}")


def _axiom_set(text: str) -> list[int]:
    bad = argparse.ArgumentTypeError(f"axioms must be within 1..8, got {text!r}")
    out = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = part.split("-", 1) if "-" in part else (part, part)
        lo, hi = int(lo), int(hi)
        if not 1 <= lo <= hi <= 8:  # checked before the range is built
            raise bad
        out.update(range(lo, hi + 1))
    if not out:
        raise bad
    return sorted(out)


def _ring(args) -> Ring:
    return Ring(from_generators(args.gens), PrimeField(args.p))


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _budget(args) -> int:
    """The node budget: ``--budget``, else ``SEMIPRIME_LAB_BUDGET``, else the
    default; a budget below 1 is a usage error."""
    env = os.environ.get("SEMIPRIME_LAB_BUDGET")
    if getattr(args, "budget", None) is not None:
        budget, source = args.budget, "--budget"
    elif env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"SEMIPRIME_LAB_BUDGET must be an integer, got {env!r}") from None
        source = "SEMIPRIME_LAB_BUDGET"
    else:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"{source} must be at least 1, got {budget}")
    return budget


def cmd_semigroup(args) -> int:
    S = from_generators(args.gens)
    _emit(
        {
            "generators": list(S.generators),
            "gaps": list(S.gaps),
            "frobenius": S.frobenius,
            "conductor": S.conductor,
        }
    )
    return 0


def cmd_canon(args) -> int:
    ring = _ring(args)
    f = ring.parse(args.elem)
    tag = canonical_principal_form(ring, f)
    if args.json:
        _emit(
            {
                "input": args.elem,
                "canonical": tag.ideal_str(),
                "shape": tag.code(),
                "order": tag.order,
                "params": list(tag.params),
            }
        )
    else:
        print(f"{tag.ideal_str()}  {tag.code()}")
    return 0


def cmd_ideals(args) -> int:
    ring = _ring(args)
    if args.action == "enumerate":
        ideals = enumerate_ideals(ring, args.max_order)
        if args.json:
            _emit(
                {
                    "ring": {"generators": list(ring.semigroup.generators), "p": ring.field.p},
                    "max_order": args.max_order,
                    "count": len(ideals),
                    "ideals": [ideal_record(I) for I in ideals],
                }
            )
        else:
            for I in ideals:
                print(ideal_label(I))
        return 0
    # classify
    if not args.ideal:
        raise ValueError("ideals classify requires --ideal")
    gens = [ring.parse(part) for part in args.ideal.split(",")]
    I = ideal_from_generators(ring, gens)
    if not I.is_proper():
        payload = {"kind": I.kind, "label": ideal_label(I)}
    else:
        tag = classify_shape(I)
        payload = {
            "kind": I.kind,
            "label": tag.ideal_str(),
            "shape": tag.code(),
            "order": I.order,
            "min_generators": min_generators(I),
        }
    if args.json:
        _emit(payload)
    else:
        print("  ".join(str(v) for v in payload.values()))
    return 0


def cmd_lattice(args) -> int:
    ring = _ring(args)
    ideals = enumerate_ideals(ring, args.max_order)
    check_pairs(len(ideals), _budget(args), "lattice")
    dot = hasse_diagram(ideals)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(dot)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(dot)
    return 0


def cmd_verify(args) -> int:
    ring = _ring(args)
    op = builtin(args.op, ring, m=args.m)
    domain = ideal_window(ring, args.max_order, args.include_zero)
    check_pairs(len(domain.elements), _budget(args), "verify window")
    report = check_axioms(op, domain, args.axioms)
    _emit(report.to_json(domain))
    if args.expect_pass and not report.passed():
        return 1
    return 0


def cmd_search(args) -> int:
    ring = _ring(args)
    result = search_prime(ring, args.max_order, args.mode, args.margin, _budget(args))
    ops_payload = []
    label = cache(ideal_label)  # an ideal printed in many entries is labelled once
    for op in result.operations:
        entries = sorted(
            ({"input": label(k), "output": label(v)}
             for k, v in op.table.items() if k != v),
            key=lambda e: e["input"])
        ops_payload.append(
            {
                "name": op.name,
                "is_identity": op.name == "identity",
                "non_identity_entries": entries,
            }
        )
    payload = {
        "ring": {"generators": list(ring.semigroup.generators), "p": ring.field.p},
        "mode": args.mode,
        "max_order": args.max_order,
        "margin": args.margin,
        "operation_count": len(result.operations),
        "operations": ops_payload,
        "stats": {
            "nodes": result.stats.get("nodes", 0),
            "window_candidates": result.stats.get("window_candidates", 0),
            "extension_discarded": result.stats.get("extension_discarded", 0),
            "skipped_product_instances": result.stats.get("skipped_product_instances", 0),
        },
    }
    _emit(payload)
    if args.explain:
        sys.stderr.write(explain_pruning(result))
    if args.expect_identity_only and not result.is_identity_only():
        return 1
    return 0


def _parse_candidate(text: str, D: int) -> dict:
    if text == "identity":
        return {i: i for i in range(-D, D + 1)}
    kind, _, rest = text.partition(":")
    try:
        params = dict(kv.split("=", 1) for kv in rest.split(",") if kv)
        if kind == "bounded":
            m = int(params.get("m", 0))
            return {i: min(i, m) for i in range(-D, D + 1)}
        if kind == "enlarge":
            j = int(params.get("i", -1))
            table = {i: i for i in range(-D, D + 1)}
            table[0] = j
            return table
    except ValueError:
        pass  # a parameter that is not name=integer: the usage error below
    raise ValueError(f"--candidate must be identity, bounded:m=K or enlarge:i=J, got {text!r}")


def cmd_demo_fractional(args) -> int:
    if args.dvr:
        PrimeField(args.p)  # the P^i chain needs no field, but a bad --p is still refused
        chain = ChainDomain(args.D)
    else:
        if not args.gens or not args.s:
            raise ValueError("demo-fractional needs --dvr, or --gens plus --s")
        chain = ChainDomain(args.D, _ring(args).parse(args.s))
    candidate = _parse_candidate(args.candidate, args.D)
    outcome = fractional_violation(chain, candidate)
    _emit(
        {
            "chain": {"kind": chain.kind, "D": chain.D},
            "candidate": args.candidate,
            **outcome.to_json(),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="semiprime-lab",
        description="Ideals and closure/semiprime/prime operations in K[[t^S]] over small prime fields.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="gaps, Frobenius number and conductor of <gens>")
    p.add_argument("--gens", type=_gens, required=True)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("canon", help="canonical principal form of an element")
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("ideals", help="enumerate or classify ideals")
    p.add_argument("action", choices=["enumerate", "classify"])
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--ideal", help="comma-separated generators, e.g. 't^4+t^5, t^7'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("lattice", help="DOT Hasse diagram of the ideal lattice")
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--dot", action="store_true", help="emit DOT (the only format; default)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("verify", help="axiom report for a built-in operation")
    p.add_argument("--op", required=True,
                   choices=["identity", "integral_closure", "dvr_f_m", "dvr_g_m", "fc_345"])
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--axioms", type=_axiom_set, default=list(range(1, 9)))
    p.add_argument("--include-zero", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--expect-pass", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive search for prime/semiprime operations")
    p.add_argument("--gens", type=_gens, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--mode", choices=["prime", "semiprime"], default="prime")
    p.add_argument("--margin", type=int, default=2)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit JSON (the only format; default)")
    p.add_argument("--explain", action="store_true")
    p.add_argument("--expect-identity-only", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("demo-fractional", help="witnesses against candidate operations on fractional chains")
    p.add_argument("--dvr", action="store_true")
    p.add_argument("--gens", type=_gens)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--s", help="chain element for the s^i.R chain")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--candidate", required=True,
                   help="identity | bounded:m=K | enlarge:i=J")
    p.set_defaults(func=cmd_demo_fractional)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SemigroupRingError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a malformed value given on the command line
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
