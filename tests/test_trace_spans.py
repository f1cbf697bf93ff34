"""The benchmark tracer (``perfbench/traced_cli.py``) wraps each function
listed in ``perfbench/layers.py`` by module and attribute name; a rename or
removal in ``src/`` must fail here rather than break a traced run."""

import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def traced_spans():
    """``layers.SPANS``, read from the file without importing it as a module
    (so nothing is written next to it)."""
    namespace = {"__name__": "layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["SPANS"]


def test_every_traced_function_resolves():
    spans = traced_spans()
    assert spans
    missing = []
    for name, module_name, attribute, _extractor in spans:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):  # "Class.method" entries patch the class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{attribute}")
    assert missing == []
