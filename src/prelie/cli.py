"""Batch command line for the tree, series, multicomplex and ainf modules.

Operator towers (``multicomplex``) and A-infinity structures (``ainf``)
share one handler for each of ``mc-check``, the gauge action and
``trivialize``, which reads what differs from the table ``THEORIES``.

Every verb, with its help line, arguments and handler, is written once, in
the verb table ``_VERBS``.  A call that names a module and one of its verbs
builds the parser of that verb alone; the full parser, built from the same
table, is built only to print help and the errors about modules, verbs and
arguments left over.  No parser outlives a call.

Exit codes:

- 0  success, or a true verdict;
- 1  a false verdict of a verdict-style command (mc-check, trivialize),
     with the residual in the output;
- 2  malformed input or a violated precondition, with a position-annotated
     message on stderr; this includes input that is not UTF-8, JSON nested
     too deeply or with an integer over Python's digit limit, and a series
     tree nested too deeply;
- 3  an internal check failed (``InternalCheckError``): a library bug, not
     a property of the input.

All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import ainf, multicomplex, series, trees
from .combination import parse_number
from .errors import DomainError, InternalCheckError, ParseError, PreLieError, ValidationError, shown

DEFAULT_ORDER = 6
# bound on --order of the prelie verbs: order 8 takes seconds, order 9 minutes
MAX_ORDER = 8


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if getattr(args, "order", 0) > MAX_ORDER:
            raise DomainError(f"truncation order must be <= {MAX_ORDER}, got {shown(args.order)}")
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PreLieError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _integer(text: str) -> int:
    """The type of the integer options: ``int``, without the digit-group
    underscores ("0_2") it accepts; argparse names the option it refuses."""
    try:
        return parse_number(text, int, "an integer")
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


# -- shared I/O helpers --------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":  # as bytes: a text stdin may pass bad bytes on as surrogates
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", f"{path}: byte {exc.start}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", path) from None
    except ValueError:  # an integer literal above Python's conversion limit
        digits = sys.get_int_max_str_digits()
        raise ParseError(f"a JSON integer has more than {digits} digits", path) from None


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


# -- the two deformation theories ----------------------------------------------


@dataclass(frozen=True)
class _Theory:
    """One deformation theory as the ``mc-check``, gauge and ``trivialize``
    verbs see it.  The lambdas look each library function up at call time,
    so that a rebound one (a tracer's wrapper, a test's patch) is called."""

    module: str
    help: str
    stage: str  # the name of a stage, in reports and text lines
    gauge_verb: str
    acted_on: str  # the key of the record the gauge verb acts on
    read: Callable  # (record, truncation, space=None, gauge=False) -> element
    write: Callable
    write_component: Callable
    component_line: Callable  # written residual -> its text line
    mc_check: Callable
    gauge_act: Callable
    trivialize: Callable
    found_lines: tuple  # the text of a FOUND verdict
    verdict_in_gauge_line: bool  # the gauge verb's text record also holds its verdict


THEORIES = (
    _Theory(
        module="multicomplex", help="operator towers", stage="weight",
        gauge_verb="conjugate", acted_on="alpha",
        read=lambda data, n, space=None, gauge=False: multicomplex.tower_from_dict(
            data, offset=multicomplex.GAUGE if gauge else multicomplex.STRUCTURE,
            space=space, truncation=n),
        write=lambda tower: multicomplex.tower_to_dict(tower),
        write_component=lambda gmap: multicomplex.map_entries_to_list(gmap),
        component_line=lambda entries: f"residual entries: {entries}",
        mc_check=lambda alpha: multicomplex.mc_check(alpha),
        gauge_act=lambda lam, alpha: multicomplex.conjugate(lam, alpha),
        trivialize=lambda alpha: multicomplex.trivialize(alpha),
        found_lines=("trivializer: FOUND", "isotopy verified against the bare differential"),
        verdict_in_gauge_line=True,
    ),
    _Theory(
        module="ainf", help="homotopy-associative structures", stage="arity",
        gauge_verb="gauge-act", acted_on="structure",
        read=lambda data, n, space=None, gauge=False: ainf.element_from_dict(
            data, source=space, truncation=n, degree=0 if gauge else -1),
        write=lambda elt: ainf.element_to_dict(elt),
        write_component=lambda op: ainf.multiop_to_dict(op),
        component_line=lambda record: f"residual: {json.dumps(record)}",
        mc_check=lambda alpha: ainf.mc_check(alpha),
        gauge_act=lambda lam, alpha: ainf.gauge_act(lam, alpha),
        trivialize=lambda alpha: ainf.find_trivializer(alpha),
        found_lines=("trivializer: FOUND",),
        verdict_in_gauge_line=False,
    ),
)


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _cmd_mc_check(args) -> int:
    theory = args.theory
    report = theory.mc_check(theory.read(_read_json(args.input), args.truncation))
    payload = {"maurer_cartan": report.ok}
    lines = [f"maurer-cartan: {_pass(report.ok)}"]
    if not report.ok:
        payload[theory.stage] = report.stage
        payload["residual"] = theory.write_component(report.residual)
        lines.append(f"first nonzero square at {theory.stage} {report.stage}")
        lines.append(theory.component_line(payload["residual"]))
    _emit_payload(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_gauge(args) -> int:
    theory = args.theory
    data = _read_json(args.input)
    space, n = multicomplex.space_and_truncation(data, args.truncation)

    def read(key):
        record = multicomplex.json_object(data.get(key, {}), f'"{key}"')
        return theory.read(record, n, space, gauge=key == "gauge")

    alpha, lam = read(theory.acted_on), read("gauge")
    result = theory.gauge_act(lam, alpha)
    record = theory.write(result)
    payload = {**record, "maurer_cartan_preserved": theory.mc_check(result).ok}
    lines = [
        f"maurer-cartan preserved: {_pass(payload['maurer_cartan_preserved'])}",
        json.dumps(payload if theory.verdict_in_gauge_line else record),
    ]
    _emit_payload(args, payload, lines)
    return 0


def _cmd_trivialize(args) -> int:
    theory = args.theory
    result = theory.trivialize(theory.read(_read_json(args.input), args.truncation))
    if result.found:
        payload = {"trivial": True, "isotopy": theory.write(result.f),
                   "log": theory.write(result.log)}
        lines = theory.found_lines
    else:
        residual = theory.write_component(result.residual)
        payload = {"trivial": False, "stage": result.stage, "residual": residual}
        lines = [
            "trivializer: NOT FOUND",
            f"obstruction at {theory.stage} {result.stage}",
            theory.component_line(residual),
        ]
    _emit_payload(args, payload, lines)
    return 0 if result.found else 1


# -- ainf transfer -------------------------------------------------------------


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
        lines.append(f"  {name}: {_pass(ok)}")
    lines.append(json.dumps(payload["beta"]))
    _emit_payload(args, payload, lines)
    return 0


# -- the verb table and the parsers built from it ------------------------------


class _Verb(NamedTuple):
    """One verb of a module: its line in the module's help (none if None),
    its ``add_argument`` calls as (name, keywords) pairs, and the handler
    and theory that ``set_defaults`` puts in the namespace."""

    help: str | None
    arguments: tuple
    handler: Callable
    theory: _Theory | None = None


_ORDER = ("--order", {"type": _integer, "default": DEFAULT_ORDER})
_TRUNCATION = ("--truncation", {"type": _integer, "default": None})
_VERTICES = ("--vertices", {"type": _integer, "required": True})
_SERIES_FILE = ("input", {"nargs": "?", "default": "-", "help": "series file, '-' for stdin"})
_RECORD = ("input", {"nargs": "?", "default": "-"})

# module -> (its help line, {verb: _Verb}), in the order the help lists them
_VERBS = {
    "trees": ("rooted-tree combinatorics", {
        "enumerate": _Verb("all rooted trees with a given vertex count", (_VERTICES,),
                           _cmd_trees_enumerate),
        "levelizations": _Verb("levelizations and weights per tree", (_VERTICES,),
                               _cmd_trees_levelizations),
    }),
    "prelie": ("free pre-Lie series calculus", {
        "exp": _Verb(None, (_SERIES_FILE, _ORDER), _cmd_series_exp),
        "magnus": _Verb(None, (_SERIES_FILE, _ORDER), _cmd_series_magnus),
        "bch": _Verb("BCH product of two generators", (("x", {}), ("y", {}), _ORDER),
                     _cmd_series_bch),
        "gauge-act": _Verb("(e^L * A) o e^-L for series files L, A",
                           (("gauge", {"help": "series file for the gauge parameter"}),
                            ("target", {"help": "series file for the element acted on"}),
                            _ORDER),
                           _cmd_series_gauge),
    }),
    **{theory.module: (theory.help, {
        verb: _Verb(None, (_RECORD, _TRUNCATION), handler, theory)
        for verb, handler in [("mc-check", _cmd_mc_check), (theory.gauge_verb, _cmd_gauge),
                              ("trivialize", _cmd_trivialize)]
    }) for theory in THEORIES},
}
_VERBS["ainf"][1]["transfer"] = _Verb(
    "homotopy transfer along a contraction",
    (("structure", {"help": "structure JSON file"}),
     ("contraction", {"help": "contraction JSON file"}), _TRUNCATION),
    _cmd_ainf_transfer)


def _add_verb(parser: argparse.ArgumentParser, verb: _Verb) -> None:
    for name, keywords in verb.arguments:
        parser.add_argument(name, **keywords)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--output", default=None, help="write results here instead of stdout")
    parser.set_defaults(handler=verb.handler, theory=verb.theory)


def _parse_args(argv: list) -> argparse.Namespace:
    """The namespace of a call.  The full parser hands a verb's parser all
    that follows the verb, so that parser alone reads it the same way; the
    full parser is built for a call that names no verb or leaves arguments
    over, which it reports under its own usage line."""
    verbs = _VERBS[argv[0]][1] if argv and argv[0] in _VERBS else {}
    verb = verbs.get(argv[1]) if len(argv) > 1 else None
    if verb is not None:
        parser = argparse.ArgumentParser(prog=f"preliecalc {argv[0]} {argv[1]}")
        _add_verb(parser, verb)
        args, extras = parser.parse_known_args(argv[2:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preliecalc",
        description="exact pre-Lie series, multicomplex, and homotopy-transfer calculator",
    )
    modules = parser.add_subparsers(dest="module", required=True)
    for module, (summary, verbs) in _VERBS.items():
        sub = modules.add_parser(module, help=summary).add_subparsers(dest="verb", required=True)
        for name, verb in verbs.items():
            listed = {} if verb.help is None else {"help": verb.help}  # help=None would list it
            _add_verb(sub.add_parser(name, **listed), verb)
    return parser


if __name__ == "__main__":
    sys.exit(main())
