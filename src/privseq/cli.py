"""Command-line front end for desk-scale experiments.

Subcommands: `frl build`, `pipeline run`, `bounds sweep`, `cache demo`,
`audit`. Human-readable text goes to stdout; `--out` with `--format csv|json`
writes machine-readable reports. Exit codes: 0 ok, 1 validation error,
2 invariant violation, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import caching, coding, frl, pipeline
from .errors import InvariantError, LimitError, ValidationError
from .probability import JointDist, load_dist

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_LIMIT = 3


def _write_output(args, payload: dict, rows: list[dict] | None = None,
                  fieldnames: list[str] | None = None) -> None:
    if not args.out:
        return
    if args.format == "json":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    else:
        if rows is None:
            rows = [payload]
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            names = fieldnames or (list(rows[0]) if rows else [])
            if names:
                writer = csv.DictWriter(fh, fieldnames=names)
                writer.writeheader()
                writer.writerows(rows)


def _parse_demands(text: str) -> tuple[int, ...] | None:
    if text.strip().lower() == "sweep":
        return None
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"bad demand vector {text!r}") from None


def _parse_prior(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            f"bad prior --p {text!r}; expected a rational such as 1/2") from None


def _load_database(args) -> JointDist:
    if args.spec:
        return load_dist(args.spec)
    params = bounds_mod.Example1Params(
        p=_parse_prior(args.p), n_files=args.n, k_demands=1, file_bits=args.f,
    )
    return bounds_mod.example1_build(params, limit=args.limit)


def _add_family_args(sp) -> None:
    sp.add_argument("--spec", help="distribution-spec file (first variable is private)")
    sp.add_argument("--p", default="1/2", help="masking prior for the built-in family")
    sp.add_argument("--n", type=int, default=2, help="file count for the built-in family")
    sp.add_argument("--f", type=int, default=1, help="bits per file for the built-in family")
    sp.add_argument("--demands", required=True,
                    help="comma-separated 1-based file indices, or 'sweep'")
    sp.add_argument("--mode", choices=[coding.FIXED, coding.ENTROPY], default=coding.FIXED)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--limit", type=int, default=pipeline.DEFAULT_STATE_LIMIT)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["csv", "json"], default="json")


def _fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)


def cmd_frl_build(args) -> int:
    dist = load_dist(args.spec)
    if len(dist.variables) != 2:
        raise ValidationError("frl build needs a two-variable spec (private, target)")
    policy = None
    searched_h = None
    if args.optimize:
        policy, searched_h = frl.min_entropy_search(dist, args.optimize)
    mech = frl.frl_construct(dist, policy)
    print(f"variables: {dist.variables[0].name} (size {dist.variables[0].size}) -> "
          f"{dist.variables[1].name} (size {dist.variables[1].size})")
    if mech.dropped_x:
        print(f"warning: dropped zero-mass private symbols {list(mech.dropped_x)}")
    print(f"atoms: {mech.u_size} (cap {frl.cardinality_bound(dist.variables[0].size, dist.variables[1].size)})")
    for u, ((a, b), q) in enumerate(zip(mech.atoms, mech.p_u)):
        print(f"  u{u}: [{_fraction_str(a)}, {_fraction_str(b)})  p={_fraction_str(q)}")
    print(f"H(U) = {mech.entropy():.6f} bits" + (
        f" (ordering-optimized, search min {searched_h:.6f})" if searched_h is not None else ""))
    print("map (u, x) -> y:")
    positive = [x for x in dist.variables[0].symbols() if x not in mech.dropped_x]
    for x in positive:
        row = " ".join(f"u{u}->{mech.apply(u, x)}" for u in range(mech.u_size))
        print(f"  x={x}: {row}")
    payload = {
        "atoms": [[str(a), str(b)] for a, b in mech.atoms],
        "p_u": [str(q) for q in mech.p_u],
        "entropy_bits": mech.entropy(),
        "map": {f"{u},{x}": mech.apply(u, x) for u in range(mech.u_size) for x in positive},
        "dropped_x": list(mech.dropped_x),
    }
    _write_output(args, payload)
    return EXIT_OK


def _sample_row(d: JointDist) -> tuple[int, ...]:
    """The deterministic sample realization: the most probable cell, ties to the largest."""
    num, _ = d._ints()
    return max(num, key=lambda c: (num[c], c))


def _run_report(p: JointDist, demands: tuple[int, ...], args) -> dict:
    row, chain, books = pipeline.audit_demands(p, demands, args.mode, args.limit)
    x_size = p.variables[0].size
    report = bounds_mod.BoundReport(
        lower=row.lower,
        upper_cardinality=row.upper_cardinality,
        upper_entropy_estimate=row.upper_entropy_estimate,
        measured=row.expected_len,
    )

    draws = pipeline.RandomDraws(args.seed)
    sample = _sample_row(p)
    key = coding.PadKey(args.seed % x_size, x_size)
    transcript = pipeline.encode_session(p, sample, demands, key, chain, draws, args.mode, books)
    decoded = pipeline.decode_session(transcript, key, demands, chain, args.mode, books)
    roundtrip = decoded == (sample[0], tuple(sample[d] for d in demands))
    if args.transcript_out:
        with open(args.transcript_out, "wb") as fh:
            fh.write(transcript.pack())

    return {
        "demands": list(demands),
        "mode": args.mode,
        "seed": args.seed,
        "u_sizes": list(row.u_sizes),
        "stage_entropies": [round(s.mechanism.entropy(), 9) for s in chain.stages],
        "per_slot_bits": [len(bits) for _, bits in transcript.slots],
        "sample_transcript": ["{}={}".format(label, bits or "-") for label, bits in transcript.slots],
        "sample_roundtrip_ok": roundtrip,
        "leakage_exact_zero": row.leakage_exact_zero,
        "leakage_bits": row.leakage_bits,
        "expected_len_per_w": list(row.per_w),
        "expected_len_max": row.expected_len,
        "lower_bound": report.lower,
        "upper_cardinality": report.upper_cardinality,
        "upper_entropy_estimate": report.upper_entropy_estimate,
        "upper_entropy_note": "estimate: surrogate per-stage entropies",
        "sandwich_ok": report.sandwich_ok(),
    }


def _print_run_report(rep: dict) -> None:
    print(f"demands: {rep['demands']}  mode: {rep['mode']}  seed: {rep['seed']}")
    print(f"auxiliary sizes: {rep['u_sizes']}  stage entropies: {rep['stage_entropies']}")
    print(f"sample transcript: {' | '.join(rep['sample_transcript'])}"
          f"  (round trip {'ok' if rep['sample_roundtrip_ok'] else 'FAILED'})")
    print(f"leakage: exact_zero={rep['leakage_exact_zero']}  I = {rep['leakage_bits']:.3g} bits")
    print(f"E[len | w]: {['%.6f' % v for v in rep['expected_len_per_w']]}")
    print(f"bounds: lower {rep['lower_bound']:.6f} <= measured {rep['expected_len_max']:.6f} "
          f"<= cardinality {rep['upper_cardinality']}")
    print(f"entropy-route estimate: {rep['upper_entropy_estimate']} bits "
          f"({rep['upper_entropy_note']})")


def cmd_pipeline_run(args) -> int:
    p = _load_database(args)
    demands = _parse_demands(args.demands)
    if demands is None:
        if args.transcript_out:
            raise ValidationError("--transcript-out needs an explicit demand vector: "
                                  "a sweep encodes no sample transcript")
        k = args.k or (len(p.variables) - 1)
        sweep = pipeline.worst_case_sweep(p, k, args.mode, args.limit)
        rows = []
        for row in sweep.rows:
            rows.append({
                "demands": " ".join(map(str, row.demands)),
                "expected_len": row.expected_len,
                "lower": row.lower,
                "upper_cardinality": row.upper_cardinality,
                "upper_entropy_estimate": row.upper_entropy_estimate,
                "leakage_exact_zero": row.leakage_exact_zero,
            })
            print(f"demands {row.demands}: E[len]={row.expected_len:.6f} "
                  f"lower={row.lower:.6f} upper={row.upper_cardinality} "
                  f"leak0={row.leakage_exact_zero}")
        print(f"worst case: {sweep.worst.demands} at {sweep.worst.expected_len:.6f} bits")
        _write_output(args, {"rows": rows, "worst": list(sweep.worst.demands)}, rows)
        if not all(r.leakage_exact_zero for r in sweep.rows):
            return EXIT_INVARIANT
        return EXIT_OK
    rep = _run_report(p, demands, args)
    _print_run_report(rep)
    _write_output(args, rep)
    if not (rep["leakage_exact_zero"] and rep["sample_roundtrip_ok"] and rep["sandwich_ok"]):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_audit(args) -> int:
    p = _load_database(args)
    demands = _parse_demands(args.demands)
    if demands is None:
        raise ValidationError("audit needs an explicit demand vector")
    row, _chain, _books = pipeline.audit_demands(p, demands, args.mode, args.limit)
    print(f"transcript support: {row.transcript_support}")
    print(f"leakage: exact_zero={row.leakage_exact_zero}  I = {row.leakage_bits:.3g} bits")
    print(f"E[len | w]: {['%.6f' % v for v in row.per_w]}  max {row.expected_len:.6f}")
    _write_output(args, {
        "demands": list(demands),
        "transcript_support": row.transcript_support,
        "leakage_exact_zero": row.leakage_exact_zero,
        "leakage_bits": row.leakage_bits,
        "expected_len_per_w": list(row.per_w),
    })
    return EXIT_OK if row.leakage_exact_zero else EXIT_INVARIANT


SWEEP_COLUMNS = ["n", "k", "f", "demands", "lower", "upper_cardinality",
                 "upper_entropy_estimate", "measured", "ratio"]


def cmd_bounds_sweep(args) -> int:
    k_values = _parse_range(args.k_range)
    f_values = _parse_range(args.f_range)
    if min(k_values + f_values, default=1) < 1:
        raise ValidationError("need k >= 1 and f >= 1")
    prior = _parse_prior(args.p) if args.measure else None
    rows = []
    for k in k_values:
        for f in f_values:
            upper = bounds_mod.upper_bound_cardinality(2, [2 ** f] * k, args.limit)
            ratio = upper / (k * f)  # example1_ratio, from the same caps
            row = {
                "n": k, "k": k, "f": f,
                "demands": " ".join(str(i) for i in range(1, k + 1)),
                "lower": float(k * f),
                "upper_cardinality": upper,
                "upper_entropy_estimate": "",
                "measured": "",
                "ratio": ratio,
            }
            # the audit enumerates over (2^f)^k * 2 weighted states: skip larger rows unbuilt
            if args.measure and (2 ** f) ** k * 2 <= args.limit:
                params = bounds_mod.Example1Params(prior, k, k, f)
                p = bounds_mod.example1_build(params, args.limit)
                try:
                    audit, _chain, _books = pipeline.audit_demands(
                        p, range(1, k + 1), args.mode, args.limit)
                except LimitError:
                    pass  # measured only where feasible: the row keeps its closed forms
                else:
                    row["lower"] = audit.lower
                    row["measured"] = audit.expected_len
                    row["upper_entropy_estimate"] = audit.upper_entropy_estimate
            rows.append(row)
            print(f"k={k} f={f}: upper={row['upper_cardinality']} ratio={ratio:.6f}"
                  + (f" measured={row['measured']}" if row["measured"] != "" else ""))
    _write_output(args, {"rows": rows}, rows, fieldnames=SWEEP_COLUMNS)
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    """'1..4,8' -> [1,2,3,4,8]; an empty string is an empty range."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise ValidationError(f"bad range {part!r}") from None
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise ValidationError(f"bad range entry {part!r}") from None
    return out


def cmd_cache_demo(args) -> int:
    cfg = caching.CacheConfig(n_files=args.n, k_users=args.k,
                              cache_files=args.m, file_bits=args.f)
    params = bounds_mod.Example1Params(_parse_prior(args.p), args.n, min(args.n, args.k),
                                       args.f)
    database_dist = bounds_mod.example1_build(params, args.limit)
    demands = _parse_demands(args.demands)
    if demands is None:
        raise ValidationError("cache demo needs an explicit demand vector")
    session = caching.make_cache_session(cfg, database_dist, demands, args.mode, args.limit)
    x_size = database_dist.variables[0].size

    print(f"config: N={cfg.n_files} K={cfg.k_users} M={cfg.cache_files} F={cfg.file_bits} "
          f"p={cfg.p} subfiles={cfg.subfile_count} blocks={cfg.block_count} "
          f"block_bits={cfg.block_bits}")

    # deterministic sample database realization, then a full wrapped delivery
    sample = _sample_row(database_dist)
    x, database = sample[0], list(sample[1:])
    caches = caching.placement(cfg, database)
    stream = caching.delivery_blocks(cfg, database, demands)
    key = coding.PadKey(args.seed % x_size, x_size)
    transcript, public_cache = caching.private_wrap(
        session, stream.blocks, x, key, pipeline.RandomDraws(args.seed))

    print("placement:")
    for cache in caches:
        cells = ", ".join(f"Y{n},{{{','.join(map(str, sub))}}}={v:0{cfg.block_bits}b}"
                          for (n, sub), v in sorted(cache.contents.items()))
        print(f"  user {cache.user}: {cells}")
    print("blocks: " + (" ".join(
        f"{{{','.join(map(str, sub))}}}:{b:0{cfg.block_bits}b}"
        for sub, b in zip(stream.subsets, stream.blocks)) or "(none)"))
    print("transcript: " + " | ".join(f"{label}={bits or '-'}" for label, bits in transcript.slots))
    print(f"public cache entries: {list(public_cache.entries)}")

    decode_ok = True
    for cache in caches:
        got = caching.user_decode(session, cache.user, transcript, cache, key)
        want = database[demands[cache.user - 1] - 1]
        decode_ok &= got == want
        print(f"  user {cache.user} decodes file {demands[cache.user - 1]}: "
              f"{got:0{cfg.file_bits}b} ({'ok' if got == want else 'WRONG'})")

    # the adversary's (transcript, public cache) view relabels C one to one, so it audits as td
    td = pipeline.transcript_distribution(session.chain, session.books, args.limit)
    leak = pipeline.leakage_audit(td)
    el = pipeline.expected_length(td)
    bound = caching.delivery_bound(cfg, x_size)
    print(f"adversary view: exact_zero={leak.exact_zero}  I = {leak.bits:.3g} bits")
    print(f"measured E[len] {el.max_over_w:.6f} <= bound {bound}")

    _write_output(args, {
        "config": {"n": cfg.n_files, "k": cfg.k_users, "m": cfg.cache_files,
                   "f": cfg.file_bits, "p": cfg.p, "blocks": cfg.block_count},
        "demands": list(demands),
        "decode_ok": decode_ok,
        "leakage_exact_zero": leak.exact_zero,
        "leakage_bits": leak.bits,
        "measured": el.max_over_w,
        "bound": bound,
    })
    if not (decode_ok and leak.exact_zero and el.max_over_w <= bound + 1e-9):
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="privseq",
                                 description="private sequential variable-length coding experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    frl_p = sub.add_parser("frl", help="mechanism construction")
    frl_sub = frl_p.add_subparsers(dest="subcommand", required=True)
    b = frl_sub.add_parser("build", help="build and dump one pair mechanism")
    b.add_argument("--spec", required=True)
    b.add_argument("--optimize", type=int, default=0,
                   help="ordering-search budget (0 = canonical ordering)")
    b.add_argument("--out")
    b.add_argument("--format", choices=["csv", "json"], default="json")
    b.set_defaults(func=cmd_frl_build)

    pipe_p = sub.add_parser("pipeline", help="end-to-end sessions")
    pipe_sub = pipe_p.add_subparsers(dest="subcommand", required=True)
    r = pipe_sub.add_parser("run", help="run one demand vector or a sweep")
    _add_family_args(r)
    r.add_argument("--k", type=int, default=0, help="demand count when --demands sweep")
    r.add_argument("--transcript-out", help="write the sample transcript packed (binary)")
    r.set_defaults(func=cmd_pipeline_run)

    bounds_p = sub.add_parser("bounds", help="bound tables")
    bounds_sub = bounds_p.add_subparsers(dest="subcommand", required=True)
    s = bounds_sub.add_parser("sweep", help="ratio/bound table for the masked-bits family")
    s.add_argument("--k-range", default="2", help="e.g. 1..3 or 2,4")
    s.add_argument("--f-range", default="1..8", help="e.g. 1..32")
    s.add_argument("--p", default="1/2")
    s.add_argument("--measure", action="store_true",
                   help="also enumerate measured lengths where feasible")
    s.add_argument("--mode", choices=[coding.FIXED, coding.ENTROPY], default=coding.FIXED)
    s.add_argument("--limit", type=int, default=pipeline.DEFAULT_STATE_LIMIT)
    s.add_argument("--out")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(func=cmd_bounds_sweep)

    cache_p = sub.add_parser("cache", help="cache-aided delivery")
    cache_sub = cache_p.add_subparsers(dest="subcommand", required=True)
    d = cache_sub.add_parser("demo", help="placement, delivery, wrap, decode, audit")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--f", type=int, required=True)
    d.add_argument("--p", default="1/2")
    d.add_argument("--demands", required=True)
    d.add_argument("--mode", choices=[coding.FIXED, coding.ENTROPY], default=coding.FIXED)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--limit", type=int, default=pipeline.DEFAULT_STATE_LIMIT)
    d.add_argument("--out")
    d.add_argument("--format", choices=["csv", "json"], default="json")
    d.set_defaults(func=cmd_cache_demo)

    a = sub.add_parser("audit", help="exact leakage audit for one demand vector")
    _add_family_args(a)
    a.set_defaults(func=cmd_audit)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one tree serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # argparse's own errors exit with 2, EXIT_INVARIANT, so the limit is checked here
        if getattr(args, "limit", 1) < 1:
            raise ValidationError(f"--limit must be at least 1, got {args.limit}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except LimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
