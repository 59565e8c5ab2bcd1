"""Command-line front end: formats, verdicts, exit codes."""

import json
import random
from fractions import Fraction

import pytest

from prelie import linalg
from prelie.cli import main
from prelie.ainf import (
    ConvElement,
    MultiOp,
    contraction_to_dict,
    element_from_map,
    element_to_dict,
    gauge_act,
)
from prelie.linalg import GradedSpace
from helpers import (
    acyclic_dga,
    acyclic_tower,
    massey_dga,
    obstructed_tower,
    random_gauge_element,
)
from prelie import multicomplex as mcx


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trees_enumerate(capsys):
    code, out, err = run(capsys, "trees", "enumerate", "--vertices", "4")
    assert code == 0
    assert out.count("(") > 4
    assert "4 rooted trees" in out
    code, out, _ = run(capsys, "trees", "enumerate", "--vertices", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_trees_vertex_bound_is_fixed(capsys):
    # the bound is trees.DEFAULT_MAX_VERTICES; no flag lifts it
    for verb in ("enumerate", "levelizations"):
        code, out, err = run(capsys, "trees", verb, "--vertices", "30")
        assert (code, out) == (2, "")
        assert err == "error: vertex count must be in 1..10, got 30\n"
        with pytest.raises(SystemExit) as exc:
            main(["trees", verb, "--vertices", "3", "--max-vertices", "30"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_trees_levelizations_reports_n_t(capsys):
    code, out, _ = run(capsys, "trees", "levelizations", "--vertices", "4")
    assert code == 0
    assert "n_t=3" in out  # the tree with a leaf and a 2-chain over the root


def test_bch_order_two(capsys):
    code, out, _ = run(capsys, "prelie", "bch", "--order", "2", "x", "y")
    assert code == 0
    assert out.splitlines() == ["1 (x)", "1 (y)", "1/2 (x (y))", "-1/2 (y (x))"]


def test_bch_of_a_generator_with_itself(capsys):
    code, out, err = run(capsys, "prelie", "bch", "x", "x", "--order", "4")
    assert (code, out, err) == (0, "2 (x)\n", "")


def test_exp_magnus_round_trip(tmp_path, capsys):
    series_file = tmp_path / "input.txt"
    series_file.write_text("1 (a)\n-1/2 (a (a))\n")
    code, out, _ = run(capsys, "prelie", "exp", str(series_file), "--order", "4")
    assert code == 0
    exp_file = tmp_path / "exp.txt"
    exp_file.write_text(out)
    code, out2, _ = run(capsys, "prelie", "magnus", str(exp_file), "--order", "4")
    assert code == 0
    # magnus(exp(s) - 1) is the log; feeding exp output shifted by the unit:
    # exp output contains the unit line, magnus expects it; round trip holds
    assert "1 (a)" in out2


def test_gauge_act_files(tmp_path, capsys):
    lam = tmp_path / "lam.txt"
    lam.write_text("1 (l)\n")
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("1 (a)\n")
    code, out, _ = run(capsys, "prelie", "gauge-act", str(lam), str(alpha), "--order", "3")
    assert code == 0
    assert "1 (a)" in out and "(l (a))" in out


def test_prelie_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 (a\n")
    code, _out, err = run(capsys, "prelie", "exp", str(bad))
    assert code == 2
    assert "error" in err


def test_multicomplex_mc_check_verdicts(tmp_path, capsys):
    good = mcx.tower_to_dict(acyclic_tower())
    good_file = tmp_path / "good.json"
    good_file.write_text(json.dumps(good))
    code, out, _ = run(capsys, "multicomplex", "mc-check", str(good_file))
    assert code == 0 and "PASS" in out

    bad = json.loads(json.dumps(good))
    for op in bad["operators"]:
        if op["weight"] == 1:
            op["entries"][0][3] = "7"  # break the anticommutation with d
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "multicomplex", "mc-check", str(bad_file))
    assert code == 1 and "FAIL" in out


def test_multicomplex_entries_not_a_list_exit_2(tmp_path, capsys):
    data = mcx.tower_to_dict(acyclic_tower())
    data["operators"] = [{"weight": 1, "entries": 5}]
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "multicomplex", "mc-check", str(bad_file))
    assert code == 2 and out == ""
    assert err.startswith("error: bad operator entry 5")


@pytest.mark.parametrize(
    "verb",
    [
        ("multicomplex", "mc-check"),
        ("multicomplex", "conjugate"),
        ("multicomplex", "trivialize"),
        ("ainf", "gauge-act"),
    ],
    ids=" ".join,
)
@pytest.mark.parametrize(
    "record",
    [{}, [1], {"space": {"dims": {"0": 1}}, "truncation": "x"}],
    ids=["empty", "list", "truncation-x"],
)
def test_bad_space_or_truncation_exit_2(tmp_path, capsys, verb, record):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(bad_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def _nested_bad_inputs():
    """(argv, files, message): one malformed nested record per case."""
    tower = mcx.tower_to_dict(acyclic_tower())
    alpha, contraction = massey_dga()
    structure = element_to_dict(alpha)
    conj = {"space": tower["space"], "truncation": 4, "alpha": [1], "gauge": {}}
    gauge = {"space": structure["space"], "truncation": 4, "structure": [1], "gauge": {}}
    good = json.dumps(structure)
    return {
        "operators-5": (["multicomplex", "mc-check", "in.json"],
                        {"in.json": json.dumps({**tower, "operators": 5})},
                        '"operators" must be a list, got int'),
        "alpha-list": (["multicomplex", "conjugate", "in.json"],
                       {"in.json": json.dumps(conj)},
                       '"alpha" must be a JSON object, got list'),
        "dims-5": (["multicomplex", "trivialize", "in.json"],
                   {"in.json": json.dumps({**tower, "space": {"dims": 5}})},
                   "bad space description"),
        "operations-5": (["ainf", "mc-check", "in.json"],
                         {"in.json": json.dumps({**structure, "operations": 5})},
                         '"operations" must be a list, got int'),
        "structure-list": (["ainf", "gauge-act", "in.json"],
                           {"in.json": json.dumps(gauge)},
                           '"structure" must be a JSON object, got list'),
        "mc-check-list": (["ainf", "mc-check", "in.json", "--truncation", "3"],
                          {"in.json": "[1]"},
                          "the structure must be a JSON object, got list"),
        "trivialize-list": (["ainf", "trivialize", "in.json", "--truncation", "3"],
                            {"in.json": "[1]"},
                            "the structure must be a JSON object, got list"),
        "contraction-list": (["ainf", "transfer", "s.json", "c.json"],
                             {"s.json": good, "c.json": "[1]"},
                             "the contraction must be a JSON object, got list"),
    }


@pytest.mark.parametrize("case", list(_nested_bad_inputs()))
def test_malformed_nested_record_exit_2(tmp_path, capsys, case):
    argv, files, message = _nested_bad_inputs()[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def _inexact_number_inputs():
    """(verb, JSON text, message): a JSON number that is not an exact
    integer or rational where one is read.  ``RAW`` marks the spot where the
    number's literal text goes."""
    tower = mcx.tower_to_dict(acyclic_tower())
    structure = element_to_dict(massey_dga()[0])

    def tower_with(edit):
        data = json.loads(json.dumps(tower))
        edit(data)
        return data

    def structure_with(edit):
        data = json.loads(json.dumps(structure))
        edit(data)
        return data

    def op_of(ops, key, value):
        return next(op for op in ops if op[key] == value)

    def set_coeff(ops, slot):
        return lambda d: d[ops][0]["entries"][0].__setitem__(slot, "RAW")

    mc, ainf_mc = ("multicomplex", "mc-check"), ("ainf", "mc-check")
    cases = {
        "tower-coeff-1e400": (mc, tower_with(set_coeff("operators", 3)), "1e400",
                              "a coefficient must be an integer or a rational string"),
        "ainf-coeff-Infinity": (ainf_mc, structure_with(set_coeff("operations", 2)), "Infinity",
                                "a coefficient must be an integer or a rational string"),
        "ainf-truncation-Infinity": (ainf_mc, structure_with(lambda d: d.update(truncation="RAW")),
                                     "Infinity", '"truncation" must be an integer, got inf'),
        "tower-coeff-0.1": (mc, tower_with(set_coeff("operators", 3)), "0.1",
                            "a coefficient must be an integer or a rational string"),
        "ainf-arity-2.9": (ainf_mc, structure_with(
            lambda d: op_of(d["operations"], "arity", 2).update(arity="RAW")),
            "2.9", '"arity" must be an integer, got 2.9'),
        "tower-weight-1.5": (mc, tower_with(
            lambda d: op_of(d["operators"], "weight", 1).update(weight="RAW")),
            "1.5", '"weight" must be an integer, got 1.5'),
        "tower-truncation-4.9": (mc, tower_with(lambda d: d.update(truncation="RAW")),
                                 "4.9", '"truncation" must be an integer, got 4.9'),
        "ainf-truncation-4.9": (ainf_mc, structure_with(lambda d: d.update(truncation="RAW")),
                                "4.9", '"truncation" must be an integer, got 4.9'),
        "tower-truncation-true": (mc, tower_with(lambda d: d.update(truncation="RAW")),
                                  "true", '"truncation" must be an integer, got True'),
    }
    return {
        name: (verb, json.dumps(data).replace('"RAW"', raw), message)
        for name, (verb, data, raw, message) in cases.items()
    }


@pytest.mark.parametrize("case", list(_inexact_number_inputs()))
def test_inexact_json_number_exit_2(tmp_path, capsys, case):
    # floats, infinities and booleans were truncated by int(), made inexact
    # by Fraction(float), or crashed with an OverflowError
    verb, text, message = _inexact_number_inputs()[case]
    f = tmp_path / "in.json"
    f.write_text(text)
    code, out, err = run(capsys, *verb, str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_exact_json_numbers_as_strings_accepted(tmp_path, capsys):
    # integer-valued strings and "p/q" coefficients read as before
    data = mcx.tower_to_dict(acyclic_tower())
    data["truncation"] = str(data["truncation"])
    for op in data["operators"]:
        op["weight"] = str(op["weight"])
        for entry in op["entries"]:
            entry[:3] = [str(x) for x in entry[:3]]
            entry[3] = f"{2 * Fraction(entry[3])}/2"
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    assert run(capsys, "multicomplex", "mc-check", str(f))[0] == 0
    structure = element_to_dict(massey_dga()[0])
    structure["truncation"] = str(structure["truncation"])
    for op in structure["operations"]:
        op["arity"], op["degree"] = str(op["arity"]), str(op["degree"])
    f.write_text(json.dumps(structure))
    assert run(capsys, "ainf", "mc-check", str(f))[0] == 0


def test_multicomplex_trivialize(tmp_path, capsys):
    good_file = tmp_path / "good.json"
    good_file.write_text(json.dumps(mcx.tower_to_dict(acyclic_tower())))
    code, out, _ = run(capsys, "multicomplex", "trivialize", str(good_file), "--format", "json")
    assert code == 0
    assert json.loads(out)["trivial"] is True

    obst_file = tmp_path / "obstructed.json"
    obst_file.write_text(json.dumps(mcx.tower_to_dict(obstructed_tower())))
    code, out, _ = run(capsys, "multicomplex", "trivialize", str(obst_file), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["trivial"] is False and payload["stage"] == 1


def test_multicomplex_conjugate(tmp_path, capsys):
    alpha = acyclic_tower()
    payload = {
        "space": mcx.space_to_dict(alpha.space),
        "truncation": alpha.truncation,
        "alpha": {"operators": mcx.tower_to_dict(alpha)["operators"]},
        "gauge": {
            "operators": [
                {"weight": 1, "entries": [[0, 0, 0, "1/2"]]},
            ]
        },
    }
    f = tmp_path / "conj.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "multicomplex", "conjugate", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["maurer_cartan_preserved"] is True


def test_ainf_mc_check_and_transfer(tmp_path, capsys):
    alpha, contraction = massey_dga()
    sfile = tmp_path / "structure.json"
    sfile.write_text(json.dumps(element_to_dict(alpha)))
    code, out, _ = run(capsys, "ainf", "mc-check", str(sfile))
    assert code == 0 and "PASS" in out

    cfile = tmp_path / "contraction.json"
    cfile.write_text(json.dumps(contraction_to_dict(contraction)))
    code, out, _ = run(capsys, "ainf", "transfer", str(sfile), str(cfile))
    assert code == 0
    for name in (
        "maurer_cartan_beta",
        "hat_formula",
        "check_formula",
        "hat_check_same_transfer",
        "psi_fixes_i_inf",
        "p_inf_circle_i_inf",
        "i_inf_morphism",
        "p_inf_morphism",
    ):
        assert f"{name}: PASS" in out


def test_ainf_trivialize_verdicts(tmp_path, capsys):
    alpha, contraction = massey_dga()
    sfile = tmp_path / "structure.json"
    sfile.write_text(json.dumps(element_to_dict(alpha)))
    code, out, _ = run(capsys, "ainf", "trivialize", str(sfile), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["trivial"] is False and payload["stage"] == 3

    delta_only = dict(element_to_dict(alpha))
    delta_only["operations"] = [
        op for op in delta_only["operations"] if op["arity"] == 1
    ]
    dfile = tmp_path / "delta.json"
    dfile.write_text(json.dumps(delta_only))
    code, out, _ = run(capsys, "ainf", "trivialize", str(dfile), "--format", "json")
    assert code == 0
    assert json.loads(out)["trivial"] is True


def test_ainf_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"space": {')
    code, _out, err = run(capsys, "ainf", "mc-check", str(bad))
    assert code == 2
    assert "line" in err and "column" in err


def test_output_file_and_round_trip(tmp_path, capsys):
    alpha, contraction = massey_dga()
    sfile = tmp_path / "structure.json"
    sfile.write_text(json.dumps(element_to_dict(alpha)))
    cfile = tmp_path / "contraction.json"
    cfile.write_text(json.dumps(contraction_to_dict(contraction)))
    outfile = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "ainf", "transfer", str(sfile), str(cfile),
        "--format", "json", "--output", str(outfile),
    )
    assert code == 0 and out == ""
    payload = json.loads(outfile.read_text())
    assert payload["checks"]["maurer_cartan_beta"] is True
    # serialized beta reparses to an equal element
    from prelie.ainf import element_from_dict

    beta = element_from_dict(payload["beta"])
    assert element_to_dict(beta) == payload["beta"]


@pytest.mark.parametrize("verb", ["exp", "magnus", "gauge-act", "bch"])
def test_order_below_one_exit_2(tmp_path, capsys, verb):
    series_file = tmp_path / "s.txt"
    series_file.write_text("1 (a)\n")
    files = {"exp": [series_file], "magnus": [series_file],
             "gauge-act": [series_file, series_file], "bch": ["x", "y"]}[verb]
    code, out, err = run(capsys, "prelie", verb, *map(str, files), "--order", "0")
    assert (code, out, err) == (2, "", "error: truncation order must be >= 1, got 0\n")


@pytest.mark.parametrize("verb", ["exp", "magnus", "gauge-act", "bch"])
def test_order_above_bound_exit_2(tmp_path, capsys, verb):
    # refused before any input is read: the series files do not exist
    missing = str(tmp_path / "missing.txt")
    args = {"exp": [missing], "magnus": [missing], "gauge-act": [missing, missing],
            "bch": ["x", "y"]}[verb]
    code, out, err = run(capsys, "prelie", verb, *args, "--order", "9")
    assert (code, out, err) == (2, "", "error: truncation order must be <= 8, got 9\n")


def test_internal_check_error_exit_3(tmp_path, capsys, monkeypatch):
    _alpha, c = acyclic_dga(truncation=4)
    gauged = gauge_act(random_gauge_element(c.big, 4, random.Random(3)),
                       element_from_map(c.d, 4))
    sfile = tmp_path / "gauged.json"
    sfile.write_text(json.dumps(element_to_dict(gauged)))
    code, _out, _err = run(capsys, "ainf", "trivialize", str(sfile))
    assert code == 0
    monkeypatch.setattr(linalg, "solve_sparse",
                        lambda rows, rhs, nvars: (True, [Fraction(0)] * nvars))
    code, out, err = run(capsys, "ainf", "trivialize", str(sfile))
    assert (code, out) == (3, "")
    assert err == "error: find_trivializer: the isotopy found is no infinity-morphism\n"


def _verdict_inputs():
    """Inputs with a false verdict: (argv, record) per module and verb."""
    bad_tower = mcx.tower_to_dict(acyclic_tower())
    for op in bad_tower["operators"]:
        if op["weight"] == 1:
            op["entries"][0][3] = "7"  # break the anticommutation with d
    space = GradedSpace({1: 2})
    b2 = MultiOp(space, space, 2, -1)  # a.a = b, a.b = a: not associative
    b2[((1, 0), (1, 0)), (1, 1)] = 1
    b2[((1, 0), (1, 1)), (1, 0)] = 1
    return {
        "multicomplex-mc-check": (["multicomplex", "mc-check"], bad_tower),
        "multicomplex-trivialize": (["multicomplex", "trivialize"],
                                    mcx.tower_to_dict(obstructed_tower())),
        "ainf-mc-check": (["ainf", "mc-check"],
                          element_to_dict(ConvElement(space, space, 3, -1, {2: b2}))),
        "ainf-trivialize": (["ainf", "trivialize"],
                            element_to_dict(massey_dga(truncation=3)[0])),
    }


def _entry(ins, out, coeff):
    return [[list(b) for b in ins], list(out), coeff]


VERDICT_TEXT = {
    "multicomplex-mc-check": (
        "maurer-cartan: FAIL\n"
        "first nonzero square at weight 1\n"
        "residual entries: [[1, 0, 1, '4']]\n"
    ),
    "multicomplex-trivialize": (
        "trivializer: NOT FOUND\n"
        "obstruction at weight 1\n"
        "residual entries: [[0, 0, 0, '1']]\n"
    ),
    "ainf-mc-check": (
        "maurer-cartan: FAIL\n"
        "first nonzero square at arity 3\n"
        'residual: {"arity": 3, "degree": -2, "entries": '
        '[[[[1, 0], [1, 0], [1, 0]], [1, 0], "-1"], [[[1, 0], [1, 0], [1, 1]], [1, 1], "-1"], '
        '[[[1, 0], [1, 1], [1, 0]], [1, 1], "1"], [[[1, 0], [1, 1], [1, 1]], [1, 0], "1"]]}\n'
    ),
    "ainf-trivialize": (
        "trivializer: NOT FOUND\n"
        "obstruction at arity 3\n"
        'residual: {"arity": 3, "degree": -1, "entries": '
        '[[[[0, 0], [0, 1], [0, 2]], [-1, 1], "1"]]}\n'
    ),
}

VERDICT_JSON = {
    "multicomplex-mc-check": {
        "maurer_cartan": False, "weight": 1, "residual": [[1, 0, 1, "4"]],
    },
    "multicomplex-trivialize": {
        "trivial": False, "stage": 1, "residual": [[0, 0, 0, "1"]],
    },
    "ainf-mc-check": {
        "maurer_cartan": False,
        "arity": 3,
        "residual": {"arity": 3, "degree": -2, "entries": [
            _entry([(1, 0), (1, 0), (1, 0)], (1, 0), "-1"),
            _entry([(1, 0), (1, 0), (1, 1)], (1, 1), "-1"),
            _entry([(1, 0), (1, 1), (1, 0)], (1, 1), "1"),
            _entry([(1, 0), (1, 1), (1, 1)], (1, 0), "1"),
        ]},
    },
    "ainf-trivialize": {
        "trivial": False,
        "stage": 3,
        "residual": {"arity": 3, "degree": -1, "entries": [
            _entry([(0, 0), (0, 1), (0, 2)], (-1, 1), "1"),
        ]},
    },
}


@pytest.mark.parametrize("case", list(VERDICT_TEXT))
def test_false_verdict_exact_output(tmp_path, capsys, case):
    verb, record = _verdict_inputs()[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(infile))
    assert (code, out, err) == (1, VERDICT_TEXT[case], "")
    code, out, err = run(capsys, *verb, str(infile), "--format", "json")
    expected = json.dumps(VERDICT_JSON[case], indent=2, sort_keys=True) + "\n"
    assert (code, out, err) == (1, expected, "")


def _found_inputs():
    """Inputs with a true verdict of each trivializer: (argv, record)."""
    _alpha, c = acyclic_dga(truncation=4)
    gauged = gauge_act(random_gauge_element(c.big, 4, random.Random(3)),
                       element_from_map(c.d, 4))
    return {
        "multicomplex-trivialize": (["multicomplex", "trivialize"],
                                    mcx.tower_to_dict(acyclic_tower())),
        "ainf-trivialize": (["ainf", "trivialize"], element_to_dict(gauged)),
    }


FOUND_TEXT = {
    "multicomplex-trivialize": (
        "trivializer: FOUND\n"
        "isotopy verified against the bare differential\n"
    ),
    "ainf-trivialize": "trivializer: FOUND\n",
}

TOWER_SPACE = {"dims": {"0": 1, "1": 2, "2": 1}}
DGA_SPACE = {"dims": {"1": 1, "2": 1}}
DGA_GAUGE = {"arity": 2, "degree": 0, "entries": [_entry([(1, 0), (1, 0)], (2, 0), "-1")]}

FOUND_JSON = {
    "multicomplex-trivialize": {
        "trivial": True,
        "isotopy": {"kind": "gauge", "space": TOWER_SPACE, "truncation": 4, "operators": [
            {"weight": 0, "entries": [[0, 0, 0, "1"], [1, 0, 0, "1"], [1, 1, 1, "1"],
                                      [2, 0, 0, "1"]]},
            {"weight": 1, "entries": [[0, 0, 0, "-3"]]},
        ]},
        "log": {"kind": "gauge", "space": TOWER_SPACE, "truncation": 4, "operators": [
            {"weight": 1, "entries": [[0, 0, 0, "-3"]]},
        ]},
    },
    "ainf-trivialize": {
        "trivial": True,
        "isotopy": {"space": DGA_SPACE, "target_space": DGA_SPACE, "truncation": 4,
                    "degree": 0, "operations": [
                        {"arity": 1, "degree": 0, "entries": [_entry([(1, 0)], (1, 0), "1"),
                                                              _entry([(2, 0)], (2, 0), "1")]},
                        DGA_GAUGE,
                    ]},
        "log": {"space": DGA_SPACE, "target_space": DGA_SPACE, "truncation": 4,
                "degree": 0, "operations": [DGA_GAUGE]},
    },
}


@pytest.mark.parametrize("case", list(FOUND_TEXT))
def test_found_verdict_exact_output(tmp_path, capsys, case):
    verb, record = _found_inputs()[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(infile))
    assert (code, out, err) == (0, FOUND_TEXT[case], "")
    code, out, err = run(capsys, *verb, str(infile), "--format", "json")
    expected = json.dumps(FOUND_JSON[case], indent=2, sort_keys=True) + "\n"
    assert (code, out, err) == (0, expected, "")


GAUGE_RECORD = {
    "space": {"dims": {"1": 1, "2": 1}},
    "truncation": 3,
    "structure": {"operations": [  # acyclic_dga(truncation=3), encoded
        {"arity": 1, "degree": -1, "entries": [_entry([(2, 0)], (1, 0), "-1")]},
        {"arity": 2, "degree": -1, "entries": [
            _entry([(1, 0), (1, 0)], (1, 0), "1"),
            _entry([(1, 0), (2, 0)], (2, 0), "1"),
            _entry([(2, 0), (1, 0)], (2, 0), "-1"),
        ]},
    ]},
    "gauge": {"operations": [
        {"arity": 2, "degree": 0, "entries": [_entry([(1, 0), (1, 0)], (2, 0), "1/2")]},
    ]},
}

GAUGED = {
    "space": {"dims": {"1": 1, "2": 1}},
    "target_space": {"dims": {"1": 1, "2": 1}},
    "truncation": 3,
    "degree": -1,
    "operations": [
        {"arity": 1, "degree": -1, "entries": [_entry([(2, 0)], (1, 0), "-1")]},
        {"arity": 2, "degree": -1, "entries": [
            _entry([(1, 0), (1, 0)], (1, 0), "3/2"),
            _entry([(1, 0), (2, 0)], (2, 0), "3/2"),
            _entry([(2, 0), (1, 0)], (2, 0), "-3/2"),
        ]},
    ],
}


def test_ainf_gauge_act_exact_output(tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(GAUGE_RECORD))
    code, out, err = run(capsys, "ainf", "gauge-act", str(infile))
    assert (code, err) == (0, "")
    assert out == "maurer-cartan preserved: PASS\n" + json.dumps(GAUGED) + "\n"
    code, out, err = run(capsys, "ainf", "gauge-act", str(infile), "--format", "json")
    expected = {**GAUGED, "maurer_cartan_preserved": True}
    assert (code, out, err) == (0, json.dumps(expected, indent=2, sort_keys=True) + "\n", "")


def _non_integer_inputs():
    """(verb, record, message): a string that is no integer where a JSON
    integer is read; the message names the field."""
    tower = mcx.tower_to_dict(acyclic_tower())
    structure = element_to_dict(massey_dga()[0])
    ops = [dict(op) for op in structure["operations"]]
    ops[0]["arity"] = "x"
    weights = [dict(op) for op in tower["operators"]]
    weights[0]["weight"] = "x"
    mc, ainf_mc = ["multicomplex", "mc-check"], ["ainf", "mc-check"]
    return {
        "degree": (ainf_mc, {**structure, "degree": "x"},
                   "\"degree\" must be an integer, got 'x'"),
        "arity": (ainf_mc, {**structure, "operations": ops},
                  "bad operation record: \"arity\" must be an integer, got 'x'"),
        "weight": (mc, {**tower, "operators": weights},
                   "bad operator record: \"weight\" must be an integer, got 'x'"),
        "dims-key": (mc, {**tower, "space": {"dims": {"x": 1}}},
                     "bad space description: a degree must be an integer, got 'x'"),
        "dims-null": (ainf_mc, {**structure, "space": {"dims": {"0": None}}},
                      "bad space description: a dimension must be an integer, got None"),
        # the truncation keeps its own message for a value that is no number
        "truncation": (ainf_mc, {**structure, "truncation": "x"},
                       "truncation must be a positive integer, got 'x'"),
    }


@pytest.mark.parametrize("case", list(_non_integer_inputs()))
def test_non_integer_json_field_exit_2(tmp_path, capsys, case):
    verb, record, message = _non_integer_inputs()[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(infile))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _digit_group_inputs():
    """(argv, file name, text, message): a number written with a digit-group
    underscore, which Python's ``int`` and ``Fraction`` read as ``10``."""
    tower = mcx.tower_to_dict(acyclic_tower())
    structure = element_to_dict(massey_dga()[0])
    with_degree_key = {**tower, "space": {"dims": {"1_0": 1, **tower["space"]["dims"]}}}
    with_int = {**structure, "truncation": "1_0"}
    with_coeff = json.loads(json.dumps(structure))
    with_coeff["operations"][0]["entries"][0][2] = "1_0"
    return {
        "space-degree-key": (["multicomplex", "mc-check"], "in.json", json.dumps(with_degree_key),
                             "a degree must not group digits with '_', got '1_0'"),
        "json-int": (["ainf", "mc-check"], "in.json", json.dumps(with_int),
                     "\"truncation\" must not group digits with '_', got '1_0'"),
        "tower-truncation": (["multicomplex", "mc-check"], "in.json",
                             json.dumps({**tower, "truncation": "1_0"}),
                             "\"truncation\" must not group digits with '_', got '1_0'"),
        "json-coeff": (["ainf", "mc-check"], "in.json", json.dumps(with_coeff),
                       "a coefficient must not group digits with '_', got '1_0'"),
        "series-coeff": (["prelie", "exp"], "in.txt", "1 (a)\n1_0 (b)\n",
                         "error: line 2: bad rational coefficient '1_0'"),
    }


@pytest.mark.parametrize("case", list(_digit_group_inputs()))
def test_digit_group_underscore_exit_2(tmp_path, capsys, case):
    verb, name, text, message = _digit_group_inputs()[case]
    f = tmp_path / name
    f.write_text(text)
    code, out, err = run(capsys, *verb, str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, option", [
    (["prelie", "bch", "x", "y", "--order", "0_2"], "--order"),
    (["trees", "enumerate", "--vertices", "0_3"], "--vertices"),
    (["ainf", "mc-check", "in.json", "--truncation", "0_3"], "--truncation"),
], ids=["order", "vertices", "truncation"])
def test_digit_group_underscore_option_exit_2(tmp_path, capsys, argv, option):
    (tmp_path / "in.json").write_text(json.dumps(element_to_dict(massey_dga()[0])))
    argv = [str(tmp_path / a) if a == "in.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    # argparse refuses it before main runs: usage, then the option named
    assert (exc.value.code, out) == (2, "")
    message = f"an integer must not group digits with '_', got '{argv[-1]}'"
    assert err.endswith(f"error: argument {option}: {message}\n")


def _above_truncation_inputs():
    """(argv, record, message): a component the truncation would drop."""
    structure = element_to_dict(massey_dga()[0])  # operations of arity 1 and 2
    space = {"dims": {"0": 1, "3": 1}}
    return {
        "ainf-record": (["ainf", "mc-check"], {**structure, "truncation": 1},
                        "operation of arity 2 above the truncation 1"),
        "ainf-override": (["ainf", "mc-check", "--truncation", "1"], structure,
                          "operation of arity 2 above the truncation 1"),
        "ainf-trivialize-override": (["ainf", "trivialize", "--truncation", "1"], structure,
                                     "operation of arity 2 above the truncation 1"),
        "tower-above": (["multicomplex", "mc-check"], {
            "space": space, "truncation": 1,
            "operators": [{"weight": 2, "entries": [[0, 0, 0, "1"]]}],
        }, "operator of weight 2 outside 0..1"),
        "tower-negative": (["multicomplex", "mc-check"], {
            "space": space, "truncation": 1,
            "operators": [{"weight": -1, "entries": [[3, 0, 0, "1"]]}],
        }, "operator of weight -1 outside 0..1"),
        "tower-override": (["multicomplex", "trivialize", "--truncation", "1"], {
            "space": space, "truncation": 2,
            "operators": [{"weight": 2, "entries": [[0, 0, 0, "1"]]}],
        }, "operator of weight 2 outside 0..1"),
    }


@pytest.mark.parametrize("case", list(_above_truncation_inputs()))
def test_component_outside_the_truncation_exit_2(tmp_path, capsys, case):
    verb, record, message = _above_truncation_inputs()[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(infile))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gauge_act_sub_record_truncation_is_overridden(tmp_path, capsys):
    # the sub-records take their truncation from the outer record or
    # --truncation, whatever "truncation" they carry themselves
    alpha = massey_dga()[0]  # truncation 5, operations of arity 1 and 2
    lam = random_gauge_element(alpha.source, 3, random.Random(2))  # arities 2 and 3
    record = {
        "space": mcx.space_to_dict(alpha.source), "truncation": 5,
        "structure": {"truncation": 9, "operations": element_to_dict(alpha)["operations"]},
        "gauge": {"operations": element_to_dict(lam)["operations"]},
    }
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    for extra, n in (([], 5), (["--truncation", "3"], 3)):
        code, out, err = run(capsys, "ainf", "gauge-act", str(infile), "--format", "json", *extra)
        assert (code, err) == (0, "")
        expected = gauge_act(ConvElement(lam.source, lam.target, n, 0, lam.components),
                             ConvElement(alpha.source, alpha.target, n, -1, alpha.components))
        payload = json.loads(out)
        assert payload["truncation"] == n
        assert payload == {**element_to_dict(expected), "maurer_cartan_preserved": True}


def _above_bound_inputs():
    """(argv, record): an A-infinity truncation one above the bound of 8."""
    structure = element_to_dict(massey_dga()[0])
    gauge = {"space": structure["space"], "truncation": 9,
             "structure": {"operations": structure["operations"]}, "gauge": {}}
    return {
        "record": (["ainf", "mc-check"], {**structure, "truncation": 9}),
        "option": (["ainf", "mc-check", "--truncation", "9"], structure),
        "gauge-act": (["ainf", "gauge-act"], gauge),
    }


@pytest.mark.parametrize("case", list(_above_bound_inputs()))
def test_ainf_truncation_above_bound_exit_2(tmp_path, capsys, case):
    verb, record = _above_bound_inputs()[case]
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(record))
    code, out, err = run(capsys, *verb, str(infile))
    assert (code, out, err) == (2, "", "error: truncation arity must be <= 8, got 9\n")
    code, out, err = run(capsys, *verb[:2], str(infile), "--truncation", "8")
    assert (code, err) == (0, "")


def _without_truncation(value):
    """A JSON value with every ``"truncation"`` field taken out."""
    if isinstance(value, dict):
        return {k: _without_truncation(v) for k, v in value.items() if k != "truncation"}
    if isinstance(value, list):
        return [_without_truncation(v) for v in value]
    return value


def test_towers_need_no_truncation_bound(tmp_path, capsys):
    # a weight-n component has degree 2n + offset, so above half the degree
    # span of the space every component is zero, and the verbs stop there
    tower = mcx.tower_to_dict(acyclic_tower())
    conjugation = {
        "space": tower["space"],
        "truncation": tower["truncation"],
        "alpha": {"operators": tower["operators"]},
        "gauge": {"operators": [{"weight": 1, "entries": [[0, 0, 0, "1/2"]]}]},
    }
    for verb, record in (("trivialize", tower), ("conjugate", conjugation), ("mc-check", tower)):
        f = tmp_path / f"{verb}.json"
        f.write_text(json.dumps(record))
        code, small, _ = run(capsys, "multicomplex", verb, str(f), "--format", "json")
        assert code == 0
        code, huge, _ = run(capsys, "multicomplex", verb, str(f), "--format", "json",
                            "--truncation", "1000000000")
        assert code == 0
        assert _without_truncation(json.loads(huge)) == _without_truncation(json.loads(small))
        assert huge.count('"truncation": 1000000000') == small.count('"truncation": 4')
