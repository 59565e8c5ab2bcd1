"""The names the benchmark's tracer wraps still exist in the library.

``perfbench/spans.py`` wraps every public function of each module in its
``LAYERS`` table and patches each ``METHODS`` entry on its class by name, so
deleting or renaming one of them makes ``perfbench/run.py --trace 1``
crash.  The file is read here, not imported, so that no bytecode is written
next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

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
