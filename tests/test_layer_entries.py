"""The traced benchmark pass can wrap every method its layer list names.

``benchmarks/perf/layers.py`` times each layer by patching the methods
listed in ``ENTRIES``, and ``LayerTracer.install`` looks each one up as
``cls.__dict__[method]``.  A method renamed, deleted or moved to a base
class would raise ``KeyError`` in every traced run, so this checks the
same lookup here.
"""

import importlib
import importlib.util
import pathlib
import sys

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perf_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # Its frozen dataclass resolves annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_every_wrapped_method_is_defined_on_its_class():
    entries = _load_layers().ENTRIES
    assert entries
    missing = []
    for entry in entries:
        module, cls_name = entry.target.split(":")
        cls = getattr(importlib.import_module(module), cls_name)
        missing += [f"{entry.target}.{m}" for m in entry.methods if m not in cls.__dict__]
    assert not missing
