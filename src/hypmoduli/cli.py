"""Command-line interface.

Exit codes: 0 success, 1 contradiction detected, 2 invalid input,
3 no witness where one was requested: the budget ran out, or before any
sampling `certify.settle` (stages 1-2 of `decide`) proves none exists.

The Monte Carlo sampler takes its seed and budget from --seed and
--budget; an omitted flag keeps the `SamplerConfig` default.
"""

from __future__ import annotations

import argparse
import sys

from .certify import (
    ContradictionError,
    Status,
    classify_pattern,
    forced_sign,
    sample_certificate,
    settle,
    verify_certificate,
)
from .patterns import (
    Couple,
    ModuliOrder,
    SignPattern,
    canonical_order,
    compatible_orders,
    enumerate_patterns,
    is_canonical_pattern,
    is_compatible,
    is_rigid_order,
    order_to_uvector,
    rigid_sign_pattern,
)
from .poly import WitnessError, append_witnesses, load_witnesses, _witness_line
from .published import published_witnesses
from .results import counts_and_ratio, save_verdicts, verdict_rows, verify_paper
from .search import SamplerConfig, transport, witness_for
from .symmetry import orbit_of, orbits

def _sampler_config(args) -> SamplerConfig:
    flags = {key: getattr(args, key) for key in ("seed", "budget")}
    return SamplerConfig(**{key: v for key, v in flags.items() if v is not None})


def _load_store(path: str | None, degree: int) -> dict:
    """The witness store at `path`, or else the published witnesses for
    degree 6 and an empty store for any other degree."""
    if path is not None:
        witnesses = load_witnesses(path)
    elif degree == 6:
        witnesses = published_witnesses()
    else:
        witnesses = []
    return {w.couple: w for w in witnesses}


# ------------------------------------------------------------ subcommands


def _cmd_enumerate(args) -> int:
    patterns = enumerate_patterns(args.degree, args.changes)
    for sp in patterns:
        print(f"{sp}  ({sp.composition()})")
        if args.orders:
            for order in compatible_orders(sp):
                print(f"    {order.letters}  {order_to_uvector(order)}")
    n_orders = len(compatible_orders(patterns[0])) if patterns else 0
    print(f"{len(patterns)} patterns, {n_orders} compatible orders each")
    return 0


def _cmd_orbits(args) -> int:
    for orbit in orbits(args.degree, args.changes):
        members = "; ".join(str(sp.composition()) for sp in orbit.sorted_members())
        print(f"size {orbit.size}: {members}")
    return 0


def _cmd_canonical(args) -> int:
    sp = SignPattern.parse(args.pattern)
    order = canonical_order(sp)
    tag = "canonical pattern" if is_canonical_pattern(sp) else "non-canonical pattern"
    print(f"{sp} ({sp.composition()}): canonical order {order.letters} "
          f"{order_to_uvector(order)} [{tag}]")
    return 0


def _cmd_rigid(args) -> int:
    order = ModuliOrder.parse(args.order)
    if not is_rigid_order(order):
        print(f"{order.letters}: not rigid")
        return 0
    sp = rigid_sign_pattern(order)
    print(f"{order.letters}: rigid, only sign pattern {sp} ({sp.composition()})")
    return 0


def _cmd_search(args) -> int:
    sp = SignPattern.parse(args.pattern)
    order = ModuliOrder.parse(args.order)
    cfg = _sampler_config(args)
    store = _load_store(args.store, sp.degree)
    couple = Couple(sp, order)
    if not is_compatible(sp, order):
        raise ValueError(f"incompatible couple {couple}")
    # sampling a couple that stages 1-2 prove dead would spend the whole budget
    verdict = settle(sp, store)[order]
    if verdict.status is Status.NON_REALIZABLE:
        print(f"{couple} is non-realizable ({verdict.evidence_kind}): {verdict.summary()}",
              file=sys.stderr)
        return 3
    witness = witness_for(couple, cfg, store)
    if witness is None:
        print(f"no witness found for {couple} within budget {cfg.budget}", file=sys.stderr)
        return 3
    witness.validate()
    if args.out:
        append_witnesses(args.out, [witness])
    print(_witness_line(witness))
    return 0


def _cmd_certify(args) -> int:
    order = ModuliOrder.parse(args.order)
    sp = SignPattern.parse(args.pattern) if args.pattern else None
    if sp is not None and sp.degree != order.degree:
        raise ValueError("pattern and order degrees differ")
    ks = [args.coeff] if args.coeff is not None else list(range(order.degree))
    found = 0
    for k in ks:
        cert = forced_sign(order, k)
        if cert is None:
            continue
        verify_certificate(cert)
        if args.samples:
            bad = sample_certificate(cert, samples=args.samples, seed=args.seed)
            if bad:
                print(f"CONTRADICTION: {bad} sampled violations of {cert}", file=sys.stderr)
                return 1
        against = ""
        if sp is not None and cert.sign != sp.signs[sp.degree - k]:
            against = f"  [contradicts {sp.composition()}]"
        print(f"{cert}{against}")
        found += 1
    if not found:
        print("no forced sign (this proves nothing)")
    return 0


def _cmd_decide(args) -> int:
    cfg = _sampler_config(args)
    if args.pattern and args.all:
        raise ValueError("decide takes --pattern or --all, not both")
    if args.pattern:
        patterns = [SignPattern.parse(args.pattern)]
        degree = patterns[0].degree
        if args.degree not in (None, degree):
            raise ValueError(f"--degree {args.degree} differs from the pattern's degree {degree}")
    elif args.all:
        degree = 6 if args.degree is None else args.degree
        # max(): a degree below 0 still reaches enumerate_patterns, which rejects it
        patterns = [
            sp for c in range(max(degree, 0) + 1) for sp in enumerate_patterns(degree, c)
        ]
    else:
        raise ValueError("decide needs --pattern or --all")
    store = _load_store(args.store, degree)
    verdicts = []
    for sp in patterns:
        table = classify_pattern(sp, cfg, store)
        verdicts.extend(table.values())
    if args.out:
        save_verdicts(verdicts, args.out)
    else:
        print(verdict_rows(verdicts), end="")
    if args.evidence:
        for v in verdicts:
            if v.evidence_kind in ("forced-sign", "frontier", "propagation"):
                print(f"# {v.couple}: {v.summary()}")
    return 0


def _cmd_verify_paper(args) -> int:
    report = verify_paper()
    print(report.render())
    return 0 if report.all_couples_confirmed else 1


def _cmd_stats(args) -> int:
    print(counts_and_ratio(args.degree).render())
    return 0


def _cmd_orbit_of(args) -> int:
    sp = SignPattern.parse(args.pattern)
    orbit = orbit_of(sp)
    members = "; ".join(str(m.composition()) for m in orbit.sorted_members())
    print(f"orbit of {sp.composition()} (size {orbit.size}): {members}")
    return 0


def _cmd_transport(args) -> int:
    witnesses = load_witnesses(args.witness)
    if not witnesses:
        raise ValueError(f"no witnesses in {args.witness}")
    moved = [transport(w, args.g) for w in witnesses]
    for w in moved:
        w.validate()
    if args.out:
        append_witnesses(args.out, moved)
    for w in moved:
        print(_witness_line(w))
    return 0


# ------------------------------------------------------------ entry point


def _add_sampler_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master sampler seed")
    sub.add_argument("--budget", type=int, default=None, help="Monte Carlo iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypmoduli",
        description="Classify (coefficient sign pattern, order of root moduli) "
                    "couples of hyperbolic polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list sign patterns of a stratum")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--changes", type=int, required=True)
    p.add_argument("--orders", action="store_true", help="also list compatible orders")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("orbits", help="orbit decomposition of a stratum")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--changes", type=int, required=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("canonical", help="canonical order of a sign pattern")
    p.add_argument("pattern")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("rigid", help="the sign pattern forced by a rigid order")
    p.add_argument("order")
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("search", help="find a witness for one couple")
    p.add_argument("--pattern", required=True)
    p.add_argument("--order", required=True)
    p.add_argument("--store", default=None, help="witness store file to consult")
    p.add_argument("--out", default=None, help="append the found witness to this store")
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="forced-sign certificates for an order")
    p.add_argument("--pattern", default=None, help="flag certificates contradicting this pattern")
    p.add_argument("--order", required=True)
    p.add_argument("--coeff", type=int, default=None, help="only this coefficient index")
    p.add_argument("--samples", type=int, default=0, help="randomized soundness samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("decide", help="full verdict table for patterns")
    p.add_argument("--degree", type=int, default=None, help="degree for --all (default 6)")
    p.add_argument("--pattern", default=None)
    p.add_argument("--all", action="store_true", help="every pattern of the degree")
    p.add_argument("--store", default=None, help="witness store file")
    p.add_argument("--out", default=None, help="write the verdict table here")
    p.add_argument("--evidence", action="store_true", help="print evidence summaries")
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify-paper", help="check published polynomials by exact expansion")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("stats", help="realizability counts and ratios")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("orbit-of", help="symmetry orbit of a sign pattern")
    p.add_argument("pattern")
    p.set_defaults(func=_cmd_orbit_of)

    p = sub.add_parser("transport", help="apply a symmetry to stored witnesses")
    p.add_argument("--witness", required=True, help="witness store file")
    p.add_argument("--g", required=True, choices=("im", "ir", "imir"))
    p.add_argument("--out", default=None, help="append transported witnesses to this store")
    p.set_defaults(func=_cmd_transport)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContradictionError as exc:
        print(f"CONTRADICTION: {exc}", file=sys.stderr)
        return 1
    except (ValueError, WitnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
