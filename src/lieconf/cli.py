"""Command-line surface: algebra data, module computations, embedding
branchings, level solving, balance checks, classification drivers, and
series-identity verification.

Every command renders either a human-readable table (default) or JSON
(``--format json``); JSON output is deterministic (sorted keys, fixed
layout), and both renderers consume the same payload, so the JSON re-parses
to exactly the table's values.  Exit codes: 0 success/verified, 1 a
verification failed or stdout was closed early, 2 usage or validation error.

Each handler imports the layers it calls when it runs, so a command loads
only those layers: ``qseries`` loads ``lieconf.qseries`` alone, ``algebra``
and ``rep`` load ``liealg`` and ``reps``.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import mul
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from . import CHARACTER_MODELS, DUAL_PAIR_FAMILIES, IDENTITY_NAMES

if TYPE_CHECKING:
    from .embed import SubalgebraSpec

class UsageError(ValueError):
    """Invalid arguments at the semantic level (exit code 2)."""


# ---------------------------------------------------------------------------
# small parsers and formatters


def _parse_weight(text: str, rank: int) -> Tuple[int, ...]:
    try:
        coords = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise UsageError(f"weight {text!r} is not a comma-separated integer tuple")
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    if any(c < 0 for c in coords):
        raise UsageError(f"weight {text!r} must be dominant (non-negative coordinates)")
    return coords


def _parse_factors(text: str) -> SubalgebraSpec:
    from fractions import Fraction

    from .embed import SubalgebraSpec
    from .liealg import AlgebraType
    from .surd import parse_rational

    factors = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "^" in token:
            type_part, index_part = token.split("^", 1)
            index = parse_rational(index_part)
        else:
            type_part, index = token, Fraction(1)
        factors.append((AlgebraType.parse(type_part), index))
    if not factors:
        raise UsageError("--factors needs at least one TYPE[^INDEX] token")
    return SubalgebraSpec(tuple(factors), label="")


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _weight_str(coords: Sequence[int]) -> str:
    return "[" + ",".join(map(str, coords)) + "]"


def _component_str(comp: Sequence[Sequence[int]]) -> str:
    return "x".join(_weight_str(w) for w in comp)


def _render_table(payload: Dict[str, Any]) -> str:
    lines: List[str] = []
    title = payload.get("title")
    if title:
        lines.append(str(title))
    scalars = {
        k: v
        for k, v in payload.items()
        if k not in ("title", "rows", "columns") and not isinstance(v, (list, dict))
    }
    for key, value in scalars.items():
        lines.append(f"{key}: {_fmt(value)}")
    rows = payload.get("rows")
    if rows is not None:
        columns = payload.get("columns") or (list(rows[0]) if rows else [])
        cells = [[_fmt(row.get(col)) for col in columns] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip())
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        if not rows:
            lines.append("(no rows)")
    return "\n".join(lines)


def _render(payload: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        clean = {k: v for k, v in payload.items() if k != "columns"}
        return json.dumps(clean, indent=2, sort_keys=True)
    return _render_table(payload)


# ---------------------------------------------------------------------------
# command handlers: each imports the layers it calls and returns
# (payload, exit_code)

Handler = Tuple[Dict[str, Any], int]


def _cmd_algebra_info(args) -> Handler:
    from .liealg import build_algebra

    alg = build_algebra(args.type)
    payload = {
        "title": f"simple algebra {alg.type}",
        "type": str(alg.type),
        "rank": alg.rank,
        "dimension": alg.dim,
        "dual_coxeter": alg.dual_coxeter,
        "positive_roots": alg.num_positive,
        "highest_root": _weight_str(alg.theta),
        "highest_short_root": _weight_str(alg.theta_short),
        "root_lengths": ",".join(str(d) for d in alg.d),
        "note": alg.iso_note,
    }
    return payload, 0


def _cmd_rep(args) -> Handler:
    from .liealg import build_algebra
    from .reps import casimir, dynkin_index, freudenthal_weights, height_form, weyl_dim

    alg = build_algebra(args.type)
    lam = _parse_weight(args.weight, alg.rank)
    payload: Dict[str, Any] = {
        "type": str(alg.type),
        "weight": list(lam),
    }
    if args.rep_op == "dim":
        payload["title"] = f"dim L{lam} over {alg.type}"
        payload["dim"] = weyl_dim(alg, lam)
    elif args.rep_op == "casimir":
        payload["title"] = f"Casimir eigenvalue of L{lam} over {alg.type}"
        payload["casimir"] = str(casimir(alg, lam))
    elif args.rep_op == "index":
        payload["title"] = f"Dynkin index of L{lam} over {alg.type}"
        payload["convention"] = args.convention
        payload["index"] = str(dynkin_index(alg, lam, convention=args.convention))
    else:  # weights
        ws = freudenthal_weights(alg, lam)
        form = height_form((alg,))
        # Descending (height, coordinates): the weights are distinct keys.
        items = sorted(
            ws.entries.items(), key=lambda kv: (sum(map(mul, kv[0], form)), kv[0]), reverse=True)
        payload["title"] = f"weight system of L{lam} over {alg.type}"
        payload["dim"] = ws.total()
        payload["columns"] = ["weight", "mult"]
        payload["rows"] = [{"weight": _weight_str(w), "mult": m} for w, m in items]
    return payload, 0


def _cmd_rep_tensor(args) -> Handler:
    from .liealg import build_algebra
    from .reps import tensor_decompose, weyl_dim

    alg = build_algebra(args.type)
    lam = _parse_weight(args.w1, alg.rank)
    mu = _parse_weight(args.w2, alg.rank)
    decomp = tensor_decompose(alg, lam, mu)
    rows = [
        {
            "weight": _weight_str(comp[0]),
            "mult": mult,
            "dim": weyl_dim(alg, comp[0]),
        }
        for comp, mult in decomp.sorted_items()
    ]
    payload = {
        "title": f"L{lam} (x) L{mu} over {alg.type}",
        "type": str(alg.type),
        "total_dim": decomp.dim(),
        "columns": ["weight", "mult", "dim"],
        "rows": rows,
    }
    return payload, 0


def _case_payload(case) -> Dict[str, Any]:
    return {
        "label": case.label,
        "ambient": str(case.ambient),
        "factors": [
            {"type": str(t), "index": str(j)} for t, j in case.sub.factors
        ],
        "p": [
            {"weights": [list(w) for w in comp], "mult": mult}
            for comp, mult in case.p_components.sorted_items()
        ],
        "p_dim": case.p_components.dim(),
    }


def _cmd_branch(args) -> Handler:
    from .embed import dual_pair_branching

    if args.family not in DUAL_PAIR_FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; choose from {', '.join(DUAL_PAIR_FAMILIES)}"
        )
    case = dual_pair_branching(args.family, args.n, args.m)
    payload = _case_payload(case)
    payload["title"] = f"adjoint branching {payload['label']}"
    payload["columns"] = ["component", "mult"]
    payload["rows"] = [
        {"component": _component_str(comp["weights"]), "mult": comp["mult"]}
        for comp in payload["p"]
    ]
    return payload, 0


def _cmd_conformal_solve(args) -> Handler:
    from .conformal import level_flags, solve_levels
    from .embed import load_catalog, resolve_levels
    from .liealg import AlgebraType

    if args.case is not None and (args.ambient is not None or args.factors is not None):
        flag = "--ambient" if args.ambient is not None else "--factors"
        raise UsageError(f"conformal solve --case cannot be combined with {flag}")
    if args.case:
        ambient, sub = resolve_levels(args.case, load_catalog(args.catalog))
        label = sub.label
    elif args.ambient and args.factors:
        ambient = AlgebraType.parse(args.ambient)
        sub = _parse_factors(args.factors)
        label = f"{sub.describe()} in {ambient}"
    else:
        raise UsageError("conformal solve needs --case LABEL or --ambient TYPE --factors SPEC")
    solutions = solve_levels(ambient, sub)
    rows = []
    for sol in solutions:
        flags = level_flags(ambient, sub, sol)
        rows.append(
            {
                "level": str(sol),
                "critical_factors": list(flags.critical_factors),
                "ambient_critical": flags.ambient_critical,
            }
        )
    payload = {
        "title": f"candidate levels for {label}",
        "case": label,
        "ambient": str(ambient),
        "columns": ["level", "critical_factors", "ambient_critical"],
        "rows": rows,
    }
    return payload, 0


def _cmd_conformal_check(args) -> Handler:
    from .conformal import ap_check
    from .embed import load_catalog, resolve_case
    from .surd import parse_rational

    case = resolve_case(args.case, load_catalog(args.catalog))
    level = parse_rational(args.level)
    report = ap_check(case, level)
    rows = []
    for comp, (idx, value, balanced) in zip(
        case.p_components.sorted_items(), report.per_component
    ):
        rows.append(
            {
                "component": _component_str([list(w) for w in comp[0]]),
                "mult": comp[1],
                "value": None if value is None else str(value),
                "balanced": balanced,
            }
        )
    payload = {
        "title": f"balance report: {case.label} at level {level}",
        "case": case.label,
        "level": str(level),
        "all_balanced": report.all_balanced,
        "critical_factors": list(report.flags.critical_factors),
        "ambient_critical": report.flags.ambient_critical,
        "columns": ["component", "mult", "value", "balanced"],
        "rows": rows,
    }
    return payload, 0 if report.all_balanced else 1


def _cmd_classify(args) -> Handler:
    from .conformal import (
        global_report,
        search_sl_irreducible,
        search_so_irreducible,
        table1_scan,
        table2_rows,
        verify_case,
    )
    from .embed import load_catalog
    from .liealg import build_algebra
    from .reps import dynkin_index, weyl_dim

    which = args.target
    for flag, given, reader in (("TYPE", args.type, "table1"),
                                ("--bound", "bound" in args, "table1"),
                                ("--max-rank", "max_rank" in args, "sl-irreducible")):
        if given and which != reader:
            raise UsageError(f"classify {which} does not read {flag}; only {reader} does")
    if which == "table2":
        payload = {
            "title": "candidate levels for the tensor and direct-sum pair grids",
            "columns": ["family", "n", "m", "levels", "critical"],
            "rows": table2_rows(),
        }
        return payload, 0
    if which in ("so-irreducible", "sl-irreducible"):
        if which == "so-irreducible":
            findings = search_so_irreducible()
            title = "irreducible orthogonal complements (survivors)"
        else:
            findings = search_sl_irreducible(getattr(args, "max_rank", 8))
            title = "irreducible V (+) V* complements (survivors)"
        rows = [
            {
                "algebra": str(f.algebra),
                "weight": _weight_str(f.weight),
                "dim_V": f.dim_v,
                "copies": f.copies,
            }
            for f in findings
        ]
        payload = {
            "title": title,
            "columns": ["algebra", "weight", "dim_V", "copies"],
            "rows": rows,
        }
        return payload, 0
    if which == "table1":
        if not args.type:
            raise UsageError("classify table1 needs an algebra TYPE argument")
        alg = build_algebra(args.type)
        bound = getattr(args, "bound", 3)
        hits = table1_scan(alg, bound)
        payload = {
            "title": f"small-index root-lattice weights of {alg.type} (coords <= {bound})",
            "type": str(alg.type),
            "bound": bound,
            "columns": ["weight", "dim", "index"],
            "rows": [
                {
                    "weight": _weight_str(w),
                    "dim": weyl_dim(alg, w),
                    "index": str(dynkin_index(alg, w, convention="killing")),
                }
                for w in hits
            ],
        }
        return payload, 0
    if which == "exceptional":
        rows = []
        for case in load_catalog(args.catalog).values():
            verdict = verify_case(case, case.level)
            rows.append(
                {
                    "label": case.label,
                    "level": str(case.level),
                    "levels": [str(s) for s in verdict.levels],
                    "balanced": verdict.ap.all_balanced,
                    "status": "ok" if verdict.ok else "fail",
                }
            )
        payload = {
            "title": "catalog verification",
            "columns": ["label", "level", "levels", "balanced", "status"],
            "rows": rows,
        }
    else:  # global
        rows = global_report(load_catalog(args.catalog))
        payload = {
            "title": "global classification report",
            "columns": ["label", "ambient", "levels", "ap", "status"],
            "rows": rows,
        }
    return payload, 1 if any(row["status"] != "ok" for row in rows) else 0


def _cmd_qseries(args) -> Handler:
    from .qseries import character, verify_identity

    if args.qop == "char":
        ell, reads_ell = args.ell or 0, args.model in ("sl2_m32", "sl2_m4")
        if ell and not reads_ell:
            raise UsageError(f"qseries char {args.model} does not read ell; only sl2_m32 and "
                             "sl2_m4 do")
        series = character(args.model, ell, args.order)
        payload = {
            "title": f"character {args.model}" + (f" (ell={ell})" if reads_ell else ""),
            "model": args.model,
            "ell": ell,
            "order": args.order,
            "series": str(series),
            "columns": ["exponent", "coefficient"],
            "rows": [
                {"exponent": str(e), "coefficient": str(c)} for e, c in series.terms()
            ],
        }
        return payload, 0
    verified, mismatch = verify_identity(args.identity, args.order)
    payload = {
        "title": (
            f"{args.identity}: verified to q^{args.order}"
            if verified
            else f"{args.identity}: FAILED at q^{mismatch}"
        ),
        "identity": args.identity,
        "order": args.order,
        "verified": verified,
        "mismatch": None if mismatch is None else str(mismatch),
    }
    return payload, 0 if verified else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    """Accept the global flags after the subcommand too.

    SUPPRESS keeps a leaf parse from clobbering a value already parsed at the
    root (argparse subparser defaults override earlier values otherwise).
    """
    p.add_argument(
        "--format", choices=("table", "json"), default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    p.add_argument("--catalog", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieconf",
        description="Exact Lie-theoretic branching, embedding-level, and series-identity checks.",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--catalog", help="JSON file overriding the built-in case catalog")
    parser.add_argument("--out", help="write the rendered output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_algebra = sub.add_parser("algebra", help="simple-algebra data")
    algebra_sub = p_algebra.add_subparsers(dest="algebra_op", required=True)
    p_info = algebra_sub.add_parser("info", help="rank, dimension, roots, labels")
    p_info.add_argument("type")
    p_info.set_defaults(handler=_cmd_algebra_info)
    _add_common(p_info)

    p_rep = sub.add_parser("rep", help="highest-weight module computations")
    rep_sub = p_rep.add_subparsers(dest="rep_op", required=True)
    for op in ("dim", "casimir", "index", "weights"):
        p = rep_sub.add_parser(op)
        p.add_argument("type")
        p.add_argument("weight", help="omega-basis coordinates, e.g. 0,0,1")
        if op == "index":
            p.add_argument(
                "--convention", choices=("normalized", "killing"), default="normalized"
            )
        p.set_defaults(handler=_cmd_rep, rep_op=op)
        _add_common(p)
    p_tensor = rep_sub.add_parser("tensor")
    p_tensor.add_argument("type")
    p_tensor.add_argument("w1")
    p_tensor.add_argument("w2")
    p_tensor.set_defaults(handler=_cmd_rep_tensor)
    _add_common(p_tensor)

    p_branch = sub.add_parser("branch", help="adjoint branchings of embeddings")
    branch_sub = p_branch.add_subparsers(dest="branch_op", required=True)
    p_dual = branch_sub.add_parser("dual-pair")
    p_dual.add_argument("family", help=", ".join(DUAL_PAIR_FAMILIES))
    p_dual.add_argument("n", type=int)
    p_dual.add_argument("m", type=int)
    p_dual.set_defaults(handler=_cmd_branch)
    _add_common(p_dual)

    p_conf = sub.add_parser("conformal", help="candidate levels and balance checks")
    conf_sub = p_conf.add_subparsers(dest="conf_op", required=True)
    p_solve = conf_sub.add_parser("solve")
    p_solve.add_argument("--case", help="built-in or catalog case label")
    p_solve.add_argument("--ambient", help="ambient algebra type, e.g. E8")
    p_solve.add_argument("--factors", help="comma-separated TYPE[^INDEX] factors")
    p_solve.set_defaults(handler=_cmd_conformal_solve)
    _add_common(p_solve)
    p_check = conf_sub.add_parser("check")
    p_check.add_argument("--case", required=True)
    p_check.add_argument("--level", required=True, help='rational level, e.g. "-5/2"')
    p_check.set_defaults(handler=_cmd_conformal_check)
    _add_common(p_check)

    p_classify = sub.add_parser("classify", help="classification drivers")
    p_classify.add_argument(
        "target",
        choices=("table2", "so-irreducible", "sl-irreducible", "table1", "exceptional", "global"),
    )
    late_type = p_classify.add_argument("type", nargs="?", help="algebra type (table1 only)")
    p_classify.add_argument(
        "--bound", type=int, default=argparse.SUPPRESS, help="coordinate bound (table1)")
    p_classify.add_argument(
        "--max-rank", type=int, default=argparse.SUPPRESS, help="rank bound (sl-irreducible)")
    p_classify.set_defaults(handler=_cmd_classify, late=late_type)
    _add_common(p_classify)

    p_q = sub.add_parser("qseries", help="character series and identity checks")
    q_sub = p_q.add_subparsers(dest="qop", required=True)
    p_char = q_sub.add_parser("char")
    p_char.add_argument("model", choices=CHARACTER_MODELS)
    late_ell = p_char.add_argument("ell", nargs="?", type=int)
    p_char.add_argument("--order", type=int, default=32)
    p_char.set_defaults(handler=_cmd_qseries, qop="char", late=late_ell)
    _add_common(p_char)
    p_verify = q_sub.add_parser("verify")
    p_verify.add_argument("identity", choices=IDENTITY_NAMES)
    p_verify.add_argument("--order", type=int, default=50)
    p_verify.set_defaults(handler=_cmd_qseries, qop="verify")
    _add_common(p_verify)

    return parser


def _glue_level_values(argv: Sequence[str]) -> list:
    """Join ``--level -5/3`` into ``--level=-5/3``.

    argparse only recognizes ``-<digits>`` and ``-<digits>.<digits>`` as
    negative-number values; a fraction like ``-5/3`` would be rejected as an
    unknown option even though negative rational levels are the common case.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--level":
            value = next(tokens, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"--level={value}")
        else:
            out.append(token)
    return out


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv, letting a leaf's optional positional (its ``late`` action,
    ``classify``'s TYPE or ``qseries char``'s ell) follow the leaf's options:
    before Python 3.12 argparse leaves it unset there and refuses its value as
    unrecognized.  Any other leftover token is refused."""
    args, extras = parser.parse_known_args(_glue_level_values(argv))
    late = getattr(args, "late", None)
    is_value = extras and (not extras[0].startswith("-") or extras[0][1:].isdigit())
    if is_value and late is not None and getattr(args, late.dest) is None:
        token = extras.pop(0)
        try:
            setattr(args, late.dest, (late.type or str)(token))
        except ValueError:
            parser.error(f"argument {late.dest}: invalid {late.type.__name__} value: {token!r}")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _refuse_unread_catalog(args) -> None:
    """UsageError when --catalog is given to a command that does not read it."""
    if args.catalog is None:
        return
    op = next(getattr(args, dest) for dest in (
        "algebra_op", "rep_op", "branch_op", "conf_op", "target", "qop") if dest in args)
    if op in ("check", "exceptional", "global") or (op == "solve" and args.case is not None):
        return
    command = f"{args.command} {op}" + (" without --case" if op == "solve" else "")
    raise UsageError(f"{command} does not read --catalog; only conformal solve --case, "
                     "conformal check and classify exceptional|global do")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(parser, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # UsageError and every layer's error (LieError, SizeError, SeriesError)
    # are ValueErrors; an unwritable --out file raises OSError.  Stdout is
    # written outside the try, so a closed stdout reaches entry().
    try:
        _refuse_unread_catalog(args)
        payload, code = args.handler(args)
        text = _render(payload, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``| head``).  Point stdout at devnull
        # so that the flush at interpreter exit cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
