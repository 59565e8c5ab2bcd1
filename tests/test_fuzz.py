"""One-field mutations of valid JSON records, each run through the CLI.

A seeded generator takes a valid element, tower or contraction record and
changes one field: its value becomes a wrong type, a string that is no
number, a float, a boolean or ``"1_0"``, a key of a space's ``"dims"`` is
renamed to such a string, or a key the reader needs is dropped.  Every
mutant is malformed input, so the CLI must exit 2 with one ``error:`` line
and print nothing else; a traceback fails the test with the exception.
"""

import json
import random

import pytest

from helpers import acyclic_tower, massey_dga
from prelie import multicomplex as mcx
from prelie.ainf import contraction_to_dict, element_to_dict
from prelie.cli import main

SEED = 20151
CASES_PER_RECORD = 120
BAD_VALUES = [[1], {"a": 1}, None, "x", "", 2.5, True, "1_0"]
BAD_KEYS = ["x", "1_0", "2.5", "true"]
# keys a reader may do without: dropping one leaves a valid record
OPTIONAL = {"target_space", "operations", "entries", "operators", "d", "i", "p", "h"}
UNREAD = {"kind"}  # written by tower_to_dict, never read back


def _paths(value, path=()):
    """The path of every value inside ``value``, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        if key not in UNREAD:
            yield path + (key,), item
            yield from _paths(item, path + (key,))


def _edited(record, path, edit):
    copy = json.loads(json.dumps(record))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return copy


def _set(value):
    def edit(parent, key):
        parent[key] = value
    return edit


def _rename(new):
    def edit(parent, key):
        parent[new] = parent.pop(key)
    return edit


def _drop(parent, key):
    del parent[key]


def mutations(record, seed, count):
    """At most ``count`` one-field mutants of ``record``, sampled with ``seed``
    from all of them, each as (description, mutant)."""
    out = []
    for path, _ in _paths(record):
        for value in BAD_VALUES:
            out.append((f"{list(path)} = {value!r}", _edited(record, path, _set(value))))
        key = path[-1]
        if isinstance(key, str):
            if len(path) > 1 and path[-2] == "dims":
                for new in BAD_KEYS:
                    out.append((f"{list(path)} renamed {new!r}", _edited(record, path, _rename(new))))
            # a structure's own "degree" defaults to -1; an operation's is required
            if key not in OPTIONAL and path != ("degree",):
                out.append((f"{list(path)} dropped", _edited(record, path, _drop)))
    rng = random.Random(seed)
    return rng.sample(out, min(count, len(out)))


def _records():
    alpha, contraction = massey_dga(3)
    structure = element_to_dict(alpha)
    return {
        "element": (["ainf", "mc-check", "in.json"], structure, {}),
        "tower": (["multicomplex", "mc-check", "in.json"], mcx.tower_to_dict(acyclic_tower(3)), {}),
        "contraction": (["ainf", "transfer", "s.json", "in.json"], contraction_to_dict(contraction),
                        {"s.json": json.dumps(structure)}),
    }


@pytest.mark.parametrize("kind", ["element", "tower", "contraction"])
def test_one_field_mutants_exit_2(tmp_path, capsys, kind):
    argv, record, files = _records()[kind]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    cases = mutations(record, SEED, CASES_PER_RECORD)
    assert len(cases) == CASES_PER_RECORD
    wrong = []
    for description, mutant in cases:
        (tmp_path / "in.json").write_text(json.dumps(mutant))
        code = main(argv)
        out, err = capsys.readouterr()
        if code != 2 or out or not err.startswith("error: ") or err.count("\n") != 1:
            wrong.append((description, code, out[:80], err))
    assert wrong == []
