"""Batch command line for the tree, series, multicomplex and ainf modules.

Exit codes:

- 0  success, or a true verdict;
- 1  a false verdict of a verdict-style command (mc-check, trivialize),
     with the residual in the output;
- 2  malformed input or a violated precondition, with a position-annotated
     message on stderr;
- 3  an internal check failed (``InternalCheckError``): a library bug, not
     a property of the input.

All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ainf, multicomplex, series, trees
from .combination import parse_number
from .errors import DomainError, InternalCheckError, PreLieError, ValidationError

DEFAULT_ORDER = 6
# bound on --order of the prelie verbs: order 8 takes seconds, order 9 minutes
MAX_ORDER = 8


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", 0) > MAX_ORDER:
            raise DomainError(f"truncation order must be <= {MAX_ORDER}, got {args.order}")
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreLieError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2


def _describe(exc) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"line {exc.lineno} column {exc.colno}: {exc.msg}"
    return str(exc)


def _integer(text: str) -> int:
    """The type of the integer options: ``int``, without the digit-group
    underscores ("0_2") it accepts; argparse names the option it refuses."""
    try:
        return parse_number(text, int, "an integer")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preliecalc",
        description="exact pre-Lie series, multicomplex, and homotopy-transfer calculator",
    )
    sub = parser.add_subparsers(dest="module", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--output", default=None, help="write results here instead of stdout")

    t = sub.add_parser("trees", help="rooted-tree combinatorics")
    tsub = t.add_subparsers(dest="verb", required=True)
    p = tsub.add_parser("enumerate", help="all rooted trees with a given vertex count")
    p.add_argument("--vertices", type=_integer, required=True)
    common(p)
    p.set_defaults(handler=_cmd_trees_enumerate)
    p = tsub.add_parser("levelizations", help="levelizations and weights per tree")
    p.add_argument("--vertices", type=_integer, required=True)
    common(p)
    p.set_defaults(handler=_cmd_trees_levelizations)

    s = sub.add_parser("prelie", help="free pre-Lie series calculus")
    ssub = s.add_subparsers(dest="verb", required=True)
    for verb, handler in [("exp", _cmd_series_exp), ("magnus", _cmd_series_magnus)]:
        p = ssub.add_parser(verb)
        p.add_argument("input", nargs="?", default="-", help="series file, '-' for stdin")
        p.add_argument("--order", type=_integer, default=DEFAULT_ORDER)
        common(p)
        p.set_defaults(handler=handler)
    p = ssub.add_parser("bch", help="BCH product of two generators")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--order", type=_integer, default=DEFAULT_ORDER)
    common(p)
    p.set_defaults(handler=_cmd_series_bch)
    p = ssub.add_parser("gauge-act", help="(e^L * A) o e^-L for series files L, A")
    p.add_argument("gauge", help="series file for the gauge parameter")
    p.add_argument("target", help="series file for the element acted on")
    p.add_argument("--order", type=_integer, default=DEFAULT_ORDER)
    common(p)
    p.set_defaults(handler=_cmd_series_gauge)

    m = sub.add_parser("multicomplex", help="operator towers")
    msub = m.add_subparsers(dest="verb", required=True)
    for verb, handler in [
        ("mc-check", _cmd_mc_check),
        ("conjugate", _cmd_mc_conjugate),
        ("trivialize", _cmd_mc_trivialize),
    ]:
        p = msub.add_parser(verb)
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("--truncation", type=_integer, default=None)
        common(p)
        p.set_defaults(handler=handler)

    a = sub.add_parser("ainf", help="homotopy-associative structures")
    asub = a.add_subparsers(dest="verb", required=True)
    for verb, handler in [
        ("mc-check", _cmd_ainf_mc_check),
        ("gauge-act", _cmd_ainf_gauge),
        ("trivialize", _cmd_ainf_trivialize),
    ]:
        p = asub.add_parser(verb)
        p.add_argument("input", nargs="?", default="-")
        p.add_argument("--truncation", type=_integer, default=None)
        common(p)
        p.set_defaults(handler=handler)
    p = asub.add_parser("transfer", help="homotopy transfer along a contraction")
    p.add_argument("structure", help="structure JSON file")
    p.add_argument("contraction", help="contraction JSON file")
    p.add_argument("--truncation", type=_integer, default=None)
    common(p)
    p.set_defaults(handler=_cmd_ainf_transfer)

    return parser


# -- shared I/O helpers --------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str):
    return json.loads(_read_text(path))


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_payload(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(args, "\n".join(text_lines))


# -- trees ---------------------------------------------------------------------


def _cmd_trees_enumerate(args) -> int:
    ts = trees.enumerate_trees(args.vertices)
    payload = {"vertices": args.vertices, "count": len(ts), "trees": [t.to_text() for t in ts]}
    lines = [f"# {len(ts)} rooted trees with {args.vertices} vertices"]
    lines += [t.to_text() for t in ts]
    _emit_payload(args, payload, lines)
    return 0


def _cmd_trees_levelizations(args) -> int:
    records = []
    for t in trees.enumerate_trees(args.vertices):
        levs = trees.levelizations(t)
        weights = [trees.level_weight(lev) for lev in levs]
        records.append(
            {
                "tree": t.to_text(),
                "n_t": trees.cm_weight(t),
                "aut": trees.aut_order(t),
                "weights": [str(w) for w in weights],
                "weight_sum": str(sum(weights)),
            }
        )
    lines = []
    for r in records:
        lines.append(
            f"{r['tree']}  n_t={r['n_t']}  |Aut|={r['aut']}  "
            f"weights: {' '.join(r['weights'])}  sum={r['weight_sum']}"
        )
    _emit_payload(args, {"vertices": args.vertices, "trees": records}, lines)
    return 0


# -- series --------------------------------------------------------------------


def _series_out(args, result: series.TreeSeries) -> None:
    if args.format == "json":
        _emit(args, json.dumps({"order": result.order, "series": series.format_series(result)}))
    else:
        _emit(args, series.format_series(result) or "0")


def _cmd_series_exp(args) -> int:
    s = series.parse_series(_read_text(args.input), args.order)
    _series_out(args, series.exp(s))
    return 0


def _cmd_series_magnus(args) -> int:
    s = series.parse_series(_read_text(args.input), args.order)
    if s.unit == 1:
        s = s - s.unit_like()  # accept group-like input: log(1 + a)
    _series_out(args, series.magnus(s))
    return 0


def _cmd_series_bch(args) -> int:
    x = series.TreeSeries.generator(args.x, args.order)
    y = series.TreeSeries.generator(args.y, args.order)
    _series_out(args, series.bch(x, y))
    return 0


def _cmd_series_gauge(args) -> int:
    lam = series.parse_series(_read_text(args.gauge), args.order)
    target = series.parse_series(_read_text(args.target), args.order)
    _series_out(args, series.gauge_act(lam, target))
    return 0


# -- multicomplex ----------------------------------------------------------------


def _cmd_mc_check(args) -> int:
    data = _read_json(args.input)
    alpha = multicomplex.tower_from_dict(data, truncation=args.truncation)
    report = multicomplex.mc_check(alpha)
    payload = {"maurer_cartan": report.ok}
    lines = [f"maurer-cartan: {'PASS' if report.ok else 'FAIL'}"]
    if not report.ok:
        payload["weight"] = report.stage
        payload["residual"] = multicomplex.map_entries_to_list(report.residual)
        lines.append(f"first nonzero square at weight {report.stage}")
        lines.append(f"residual entries: {payload['residual']}")
    _emit_payload(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_mc_conjugate(args) -> int:
    data = _read_json(args.input)
    space, n = multicomplex.space_and_truncation(data, args.truncation)
    alpha = multicomplex.tower_from_dict(
        multicomplex.json_object(data.get("alpha", {}), '"alpha"'),
        offset=multicomplex.STRUCTURE, space=space, truncation=n,
    )
    lam = multicomplex.tower_from_dict(
        multicomplex.json_object(data.get("gauge", {}), '"gauge"'),
        offset=multicomplex.GAUGE, space=space, truncation=n,
    )
    result = multicomplex.conjugate(lam, alpha)
    payload = multicomplex.tower_to_dict(result)
    check = multicomplex.mc_check(result)
    payload["maurer_cartan_preserved"] = check.ok
    lines = [f"maurer-cartan preserved: {'PASS' if check.ok else 'FAIL'}", json.dumps(payload)]
    _emit_payload(args, payload, lines)
    return 0


def _cmd_mc_trivialize(args) -> int:
    data = _read_json(args.input)
    alpha = multicomplex.tower_from_dict(data, truncation=args.truncation)
    result = multicomplex.trivialize(alpha)
    if result.found:
        payload = {
            "trivial": True,
            "isotopy": multicomplex.tower_to_dict(result.f),
            "log": multicomplex.tower_to_dict(result.log),
        }
        lines = ["trivializer: FOUND", "isotopy verified against the bare differential"]
        _emit_payload(args, payload, lines)
        return 0
    payload = {
        "trivial": False,
        "stage": result.stage,
        "residual": multicomplex.map_entries_to_list(result.residual),
    }
    lines = [
        "trivializer: NOT FOUND",
        f"obstruction at weight {result.stage}",
        f"residual entries: {payload['residual']}",
    ]
    _emit_payload(args, payload, lines)
    return 1


# -- ainf ------------------------------------------------------------------------


def _cmd_ainf_mc_check(args) -> int:
    alpha = ainf.element_from_dict(_read_json(args.input), truncation=args.truncation)
    report = ainf.mc_check(alpha)
    payload = {"maurer_cartan": report.ok}
    lines = [f"maurer-cartan: {'PASS' if report.ok else 'FAIL'}"]
    if not report.ok:
        payload["arity"] = report.stage
        payload["residual"] = ainf.multiop_to_dict(report.residual)
        lines.append(f"first nonzero square at arity {report.stage}")
        lines.append(f"residual: {json.dumps(payload['residual'])}")
    _emit_payload(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_ainf_gauge(args) -> int:
    data = _read_json(args.input)
    space, n = multicomplex.space_and_truncation(data, args.truncation)
    structure = multicomplex.json_object(data.get("structure", {}), '"structure"')
    gauge = multicomplex.json_object(data.get("gauge", {}), '"gauge"')
    alpha = ainf.element_from_dict(structure, source=space, truncation=n)
    lam = ainf.element_from_dict(gauge, source=space, truncation=n, degree=0)
    result = ainf.gauge_act(lam, alpha)
    record = ainf.element_to_dict(result)
    payload = {**record, "maurer_cartan_preserved": ainf.mc_check(result).ok}
    lines = [
        f"maurer-cartan preserved: {'PASS' if payload['maurer_cartan_preserved'] else 'FAIL'}",
        json.dumps(record),
    ]
    _emit_payload(args, payload, lines)
    return 0


def _cmd_ainf_trivialize(args) -> int:
    alpha = ainf.element_from_dict(_read_json(args.input), truncation=args.truncation)
    result = ainf.find_trivializer(alpha)
    if result.found:
        payload = {
            "trivial": True,
            "isotopy": ainf.element_to_dict(result.f),
            "log": ainf.element_to_dict(result.log),
        }
        _emit_payload(args, payload, ["trivializer: FOUND"])
        return 0
    payload = {
        "trivial": False,
        "stage": result.stage,
        "residual": ainf.multiop_to_dict(result.residual),
    }
    lines = [
        "trivializer: NOT FOUND",
        f"obstruction at arity {result.stage}",
        f"residual: {json.dumps(payload['residual'])}",
    ]
    _emit_payload(args, payload, lines)
    return 1


def _cmd_ainf_transfer(args) -> int:
    alpha = ainf.element_from_dict(_read_json(args.structure), truncation=args.truncation)
    contraction = ainf.contraction_from_dict(_read_json(args.contraction))
    result = ainf.transfer(alpha, contraction)
    payload = {
        "beta": ainf.element_to_dict(result.beta),
        "i_inf": ainf.element_to_dict(result.i_inf),
        "p_inf": ainf.element_to_dict(result.p_inf),
        "checks": {name: ok for name, ok in result.checks},
    }
    lines = ["transferred structure computed; identity report:"]
    for name, ok in result.checks:
        lines.append(f"  {name}: {'PASS' if ok else 'FAIL'}")
    lines.append(json.dumps(payload["beta"]))
    _emit_payload(args, payload, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
