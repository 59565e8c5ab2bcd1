"""The command line's parsers: a call that names a verb is parsed by that
verb's parser alone, and it answers every call as the full parser does."""

import io
import json
import re
import sys
from pathlib import Path

import pytest

from prelie import cli
from prelie import multicomplex as mcx
from prelie.ainf import contraction_to_dict, element_to_dict
from helpers import acyclic_tower, massey_dga

README = Path(__file__).resolve().parents[1] / "README.md"


def write_inputs(directory: Path) -> dict:
    """Small valid input files for every verb, by name."""
    alpha, contraction = massey_dga()
    structure = element_to_dict(alpha)
    tower = mcx.tower_to_dict(acyclic_tower())
    records = {
        "series.txt": "1 (a)\n-1/2 (a (a))\n",
        "gauge.txt": "1 (l)\n",
        "tower.json": json.dumps(tower),
        "conj.json": json.dumps({**tower, "alpha": {"operators": tower["operators"]},
                                 "gauge": {"operators": []}}),
        "structure.json": json.dumps(structure),
        "gauged.json": json.dumps({**structure, "structure": {"operations": structure["operations"]},
                                   "gauge": {"operations": []}}),
        "contraction.json": json.dumps(contraction_to_dict(contraction)),
    }
    for name, text in records.items():
        (directory / name).write_text(text)
    return {name: str(directory / name) for name in records}


# (module, verb) -> (positionals, integer option, other options) of a valid call
VALID = {
    ("trees", "enumerate"): ([], "--vertices", ["--vertices", "3"]),
    ("trees", "levelizations"): ([], "--vertices", ["--vertices", "3"]),
    ("prelie", "exp"): (["series.txt"], "--order", ["--order", "3"]),
    ("prelie", "magnus"): (["series.txt"], "--order", ["--order", "3"]),
    ("prelie", "bch"): (["x", "y"], "--order", ["--order", "3"]),
    ("prelie", "gauge-act"): (["gauge.txt", "series.txt"], "--order", ["--order", "3"]),
    ("multicomplex", "mc-check"): (["tower.json"], "--truncation", []),
    ("multicomplex", "conjugate"): (["conj.json"], "--truncation", []),
    ("multicomplex", "trivialize"): (["tower.json"], "--truncation", ["--truncation", "2"]),
    ("ainf", "mc-check"): (["structure.json"], "--truncation", []),
    ("ainf", "gauge-act"): (["gauged.json"], "--truncation", []),
    ("ainf", "trivialize"): (["structure.json"], "--truncation", ["--truncation", "3"]),
    ("ainf", "transfer"): (["structure.json", "contraction.json"], "--truncation", []),
}


def corpus() -> list:
    """(argv, the input on stdin) of calls of every verb in the table, valid
    and not, and of calls that name no verb.  A name in ``write_inputs``
    stands for its file."""
    calls = []
    for module, (_, verbs) in cli._VERBS.items():
        for verb in verbs:
            positionals, integer, options = VALID[module, verb]
            head = [module, verb]
            calls += [(argv, None) for argv in [
                head + positionals + options,
                head + ["-h"],
                head + positionals + options + ["extra"],
                head + positionals + options + ["--bogus"],
                head + positionals + [integer, "two"],
                head + positionals + options + ["--form", "json"],
                head + options + ["--"] + positionals,
            ]]
            # a missing input: the verbs whose input is optional read it from stdin
            calls.append((head + positionals[:-1] + options, (positionals or [None])[-1]))
    return calls + [(argv, None) for argv in [
        [], ["-h"], ["--help"], ["nope"], ["prelie"], ["prelie", "nope"], ["ainf", "-h"],
        ["trees", "--", "enumerate", "--vertices", "3"],
        ["--format", "json", "trees", "enumerate", "--vertices", "3"],
        ["prelie", "bch", "x", "y", "--order", "0_2"],
        ["prelie", "bch", "x", "y", "--order", "9"],
        ["prelie", "exp", "series.txt", "--o", "3"],
        ["trees", "enumerate", "--vertices"],
        ["ainf", "trivialize", "structure.json", "--truncation"],
        ["ainf", "transfer", "structure.json"],
        ["multicomplex", "mc-check", "tower.json", "--format", "xml"],
    ]]


def outcome(monkeypatch, capsys, files: dict, argv: list, stdin=None):
    """(exit code or ("SystemExit", code), stdout, stderr) of ``cli.main``,
    with the file named ``stdin``, if it is one, on stdin."""
    argv = [files.get(a, a) for a in argv]
    data = Path(files[stdin]).read_bytes() if stdin in files else b""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


CORPUS = corpus()


@pytest.mark.parametrize("argv, stdin", CORPUS, ids=[" ".join(argv) for argv, _ in CORPUS])
def test_one_verb_parser_answers_as_the_full_parser(tmp_path, monkeypatch, capsys, argv, stdin):
    files = write_inputs(tmp_path)
    got = outcome(monkeypatch, capsys, files, argv, stdin)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert got == outcome(monkeypatch, capsys, files, argv, stdin)


def test_a_call_that_names_a_verb_builds_no_full_parser(tmp_path, monkeypatch, capsys):
    files = write_inputs(tmp_path)

    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    for module, verb in [("trees", "enumerate"), ("prelie", "bch"),
                         ("multicomplex", "mc-check"), ("ainf", "mc-check")]:
        positionals, _, options = VALID[module, verb]
        code, out, err = outcome(monkeypatch, capsys, files, [module, verb, *positionals, *options])
        assert (code, err) == (0, "")
        assert out


def test_readme_command_list_names_every_verb():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = [line.split()[1:3] for line in block.splitlines() if line.startswith("preliecalc ")]
    table = [[module, verb] for module, (_, verbs) in cli._VERBS.items() for verb in verbs]
    assert sorted(listed) == sorted(table)
