"""The names the benchmark's tracer wraps still exist in the library.

``perfbench/spans.py`` wraps every public function of each module in its
``LAYERS`` table and patches each ``METHODS`` entry on its class by name, so
deleting or renaming one of them makes ``perfbench/run.py --trace 1``
crash.  The file is read here, not imported, so that no bytecode is written
next to it.
"""

import importlib
import random
import types
from pathlib import Path

import pytest

from helpers import massey_dga, random_gauge_element
from prelie.ainf import element_from_map, find_trivializer, gauge_act, transfer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


SPANS_MODULE = _spans()


@pytest.mark.parametrize("layer", sorted(SPANS_MODULE.LAYERS))
def test_layer_module_imports(layer):
    importlib.import_module(SPANS_MODULE.LAYERS[layer])


@pytest.mark.parametrize("target", SPANS_MODULE.METHODS, ids=".".join)
def test_patched_method_resolves(target):
    layer, cls_name, method = target
    cls = getattr(importlib.import_module(SPANS_MODULE.LAYERS[layer]), cls_name)
    # the tracer patches cls.__dict__[method], so an inherited method would not do
    assert callable(vars(cls)[method])


def test_rebound_h_star_is_called_by_transfer_and_trivializer():
    """``ainf.transfer.h_star.calls`` counts through the wrapper that
    ``_rebind`` puts in every ``prelie`` namespace holding ``h_star``; the
    Psi series look the function up by name, so the wrapper sees them."""
    transfer_module = importlib.import_module("prelie.ainf.transfer")
    original = transfer_module.h_star
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    alpha, c = massey_dga(truncation=5)
    lam = random_gauge_element(alpha.source, 5, random.Random(5), nentries=3)
    SPANS_MODULE._rebind(original, counted)
    try:
        assert transfer(gauge_act(lam, alpha), c).all_green()
        assert calls
        calls.clear()
        assert find_trivializer(gauge_act(lam, element_from_map(c.d, 5))).found
        assert calls
    finally:
        SPANS_MODULE._rebind(counted, original)
    assert transfer_module.h_star is original
