"""Command-line entry point: solve, generate, verify, experiment.

Exit codes: 0 success, 2 bad input or parameters, 3 infeasible target,
4 failed verification or audit, 5 size guard.  Set PCOVER_GUARD_OVERRIDE=1
to lift the size guards.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import formats, generators, pipeline
from .arith import format_rational, parse_rational
from .errors import (AuditError, InfeasibleError, InputError, PCoverError,
                     SizeGuardError)
from .lp import mixed_cover_point, solve_dual, solve_lp
from .model import Cover, cover_cost, covered_profit
from .tb import is_totally_balanced, standard_greedy_form

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_AUDIT = 4
EXIT_GUARD = 5


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit_report(args, payload: dict, timings: dict | None = None) -> None:
    text = formats.render_report(payload, timings)
    if getattr(args, "output", None):
        _write(args.output, text)
        _write(args.output + ".payload.json", formats.render_payload(payload))
    else:
        sys.stdout.write(text)


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = formats.parse_instance(_read(args.input))
    decomposition = None
    if args.decomposition:
        decomposition = formats.parse_decomposition(
            _read(args.decomposition), instance.n, instance.m)
        decomposition.validate_against(instance)

    if args.absorb:
        try:
            k = int(args.absorb[0])
        except ValueError:
            raise InputError(f"absorb K must be an integer, "
                             f"got {args.absorb[0]!r}") from None
        alpha = _rational_arg(args.absorb[1])
        cover = pipeline.absorb_additive_error(instance, k, alpha, decomposition)
        payload = {
            "mode": "absorb",
            "k": k,
            "alpha": str(alpha),
            "cover": list(cover.sets),
            "cost": format_rational(cover_cost(instance, cover)),
            "covered": format_rational(covered_profit(instance, cover)),
            "target": format_rational(instance.target),
        }
        if args.oracle:
            _, opt = pipeline.brute_force_partial(instance)
            payload["oracle_cost"] = format_rational(opt)
        _emit_report(args, payload)
        return EXIT_OK

    if decomposition is not None:
        report = pipeline.solve_rho_separable(instance, decomposition,
                                              oracle=args.oracle)
    else:
        report = pipeline.solve_partial_tbc(instance, oracle=args.oracle)
    _emit_report(args, report.payload(), report.timings)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _emit_instance(args, instance, decomposition=None, meta: dict | None = None) -> None:
    if args.out:
        _write(args.out + ".pcov", formats.render_instance(instance))
        if decomposition is not None:
            _write(args.out + ".dec", formats.render_decomposition(decomposition))
        if meta is not None:
            _write(args.out + ".meta.json", formats.render_payload(meta))
    else:
        sys.stdout.write(formats.render_instance(instance))
        if decomposition is not None:
            sys.stdout.write(formats.render_decomposition(decomposition))


def cmd_generate(args) -> int:
    kind = args.family
    if kind == "gap":
        fam = generators.gen_gap_family(args.q)
        meta = {"q": fam.q, "dl": str(fam.dl), "ip": str(fam.ip),
                "p_bar": str(fam.p_bar),
                "x1": list(fam.x1), "x2": list(fam.x2), "xt": list(fam.xt),
                "dual_lam": str(fam.dual_lam),
                "dual_y": [str(y) for y in fam.dual_y]}
        _emit_instance(args, fam.instance, meta=meta)
    elif kind == "blackbox":
        fam = generators.gen_blackbox_family(
            args.q, args.alpha, "tu" if args.tu else "general")
        meta = {"q": fam.q, "alpha": str(fam.alpha), "variant": fam.variant,
                "roles": [[kind_, idx] for kind_, idx in fam.roles],
                "opt_cost": str(fam.opt_cost)}
        _emit_instance(args, fam.instance, meta=meta)
    elif kind == "random":
        instance, dec = generators.gen_random_descending_paths(
            args.seed, args.nodes, args.cover_paths, args.demand_paths,
            target=None if args.target is None else _rational_arg(args.target))
        _emit_instance(args, instance, dec)
    elif kind == "multicut":
        tree = generators.gen_random_tree_instance(args.seed)
        instance, dec = generators.reduce_multicut(tree)
        meta = {"seed": args.seed, "tree": formats.render_tree(tree)}
        _emit_instance(args, instance, dec, meta)
    elif kind == "pathhit":
        tree, cover_paths, demand_paths = generators.gen_random_path_hitting(args.seed)
        instance, dec, meta_raw = generators.reduce_path_hitting(
            tree, cover_paths, demand_paths)
        meta = {"seed": args.seed, "cost_factor": meta_raw["cost_factor"],
                "half_parent": list(meta_raw["half_parent"]),
                "guarantee": meta_raw["guarantee"]}
        _emit_instance(args, instance, dec, meta)
    elif kind == "rects":
        rect = generators.gen_random_rectangles(args.seed, args.dim)
        instance, dec, path_flag = generators.reduce_rectangle_stabbing(rect)
        meta = {"seed": args.seed, "dimension": rect.dimension,
                "path_merger": path_flag}
        _emit_instance(args, instance, dec, meta)
    else:
        raise InputError(f"unknown family {kind!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    check = args.check
    if check in ("tb", "sgf", "lp-duality"):
        if args.input is None:
            raise InputError(f"verify {check} needs --input")
        instance = formats.parse_instance(_read(args.input))
    if check == "tb":
        direct = is_totally_balanced(instance)
        sgf = standard_greedy_form(instance)
        agree = direct == sgf.ok
        print(f"totally-balanced: direct={direct} reorder={sgf.ok} "
              f"{'PASS' if agree else 'FAIL'}")
        return EXIT_OK if agree else EXIT_AUDIT
    if check == "sgf":
        sgf = standard_greedy_form(instance)
        if sgf.ok:
            print(f"greedy standard form found ({sgf.mode}); "
                  f"row_perm={list(sgf.perm.row_perm)} col_perm={list(sgf.perm.col_perm)}")
            return EXIT_OK
        print(f"no greedy standard form: gamma pattern at {sgf.witness} "
              "survives the doubly lexical ordering")
        return EXIT_AUDIT
    if check == "lp-duality":
        primal = solve_lp(instance)
        dual = solve_dual(instance, primal)
        ok = primal.value == dual.value
        print(f"primal={format_rational(primal.value)} "
              f"dual={format_rational(dual.value)} {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_AUDIT
    if check == "equitable":
        fam = generators.gen_blackbox_family(args.q, 1, "tu")
        ok = pipeline.equitable_coloring_check(fam.instance.row_masks,
                                               fam.instance.m, fam.roles)
        print(f"equitable coloring on sampled submatrices: {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_AUDIT
    raise InputError(f"unknown check {check!r}")


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        seeds = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    except ValueError:
        raise InputError(f"bad seed range {text!r}: expected A..B or A") from None
    if not seeds:
        raise InputError(f"bad seed range {text!r}: B is below A")
    return seeds


def cmd_experiment(args) -> int:
    name = args.name
    if name == "gap":
        if args.qmax < 1:
            raise InputError("qmax must be >= 1")
        rows = []
        for q in range(1, args.qmax + 1):
            fam = generators.gen_gap_family(q)
            pair = mixed_cover_point(fam.instance, Cover.of(fam.x1), Cover.of(fam.x2))
            entry = {"q": q, "dl": str(fam.dl), "ip_expected": str(fam.ip),
                     "pair_value": str(pair.value),
                     "xt_cost": str(3 * len(fam.xt))}
            if q == 1:
                # The solve certifies its LP value by strong duality.
                entry["lp"] = str(pipeline.solve_partial_tbc(fam.instance).lp_value)
                _, ip = pipeline.brute_force_partial(fam.instance)
                entry["ip"] = str(ip)
            rows.append(entry)
            print(" ".join(f"{k}={v}" for k, v in entry.items()))
        _emit_report(args, {"experiment": "gap", "rows": rows})
        return EXIT_OK
    if name == "blackbox":
        transcript = pipeline.simulate_blackbox_lb(
            args.q, args.alpha, variant="tu" if args.tu else "general")
        payload = {
            "experiment": "blackbox",
            "q": transcript.q,
            "alpha": str(transcript.alpha),
            "variant": transcript.variant,
            "best_cost": str(transcript.best_cost),
            "opt_cost": str(transcript.opt_cost),
            "ratio": str(transcript.ratio),
            "lmp_all_ok": transcript.lmp_all_ok,
            "entries": [{"lambda": str(e.lam), "kind": e.kind,
                         "lmp_ok": e.lmp_ok} for e in transcript.entries],
        }
        print(f"best={payload['best_cost']} opt={payload['opt_cost']} "
              f"ratio={payload['ratio']} lmp={'PASS' if transcript.lmp_all_ok else 'FAIL'}")
        _emit_report(args, payload)
        return EXIT_OK if transcript.lmp_all_ok else EXIT_AUDIT
    if name == "corpus":
        seeds = _parse_seed_range(args.seeds)
        if args.jobs < 1:
            raise InputError("jobs must be >= 1")
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                entries = list(pool.map(pipeline.audit_corpus_entry, seeds))
        else:
            entries = [pipeline.audit_corpus_entry(s) for s in seeds]
        all_ok = all(e["all_ok"] for e in entries)
        payload = {"experiment": "corpus", "seeds": entries, "all_ok": all_ok}
        print(f"corpus seeds={len(seeds)} all_ok={all_ok}")
        _emit_report(args, payload)
        return EXIT_OK if all_ok else EXIT_AUDIT
    raise InputError(f"unknown experiment {name!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcover",
        description="Exact-arithmetic partial-cover solver laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--decomposition")
    p_solve.add_argument("--absorb", nargs=2, metavar=("K", "ALPHA"))
    p_solve.add_argument("--oracle", action="store_true",
                         help="add exhaustive-optimum comparison (size permitting)")
    p_solve.add_argument("--output")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="emit instance files")
    p_gen.add_argument("family",
                       choices=["gap", "blackbox", "random", "multicut",
                                "pathhit", "rects"])
    p_gen.add_argument("--q", type=int, default=1)
    p_gen.add_argument("--alpha", default="1")
    p_gen.add_argument("--tu", action="store_true")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--nodes", type=int, default=10)
    p_gen.add_argument("--cover-paths", type=int, default=6)
    p_gen.add_argument("--demand-paths", type=int, default=6)
    p_gen.add_argument("--target")
    p_gen.add_argument("--dim", type=int, default=1)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="run a consistency check")
    p_verify.add_argument("check",
                          choices=["tb", "sgf", "lp-duality", "equitable"])
    p_verify.add_argument("--input")
    p_verify.add_argument("--q", type=int, default=2)
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    p_exp.add_argument("name", choices=["gap", "blackbox", "corpus"])
    p_exp.add_argument("--qmax", type=int, default=1)
    p_exp.add_argument("--q", type=int, default=3)
    p_exp.add_argument("--alpha", default="1")
    p_exp.add_argument("--tu", action="store_true")
    p_exp.add_argument("--seeds", default="1..10")
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--output")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "alpha", None) is not None and isinstance(args.alpha, str):
        try:
            args.alpha = parse_rational(args.alpha)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PCoverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_AUDIT


if __name__ == "__main__":
    sys.exit(main())
