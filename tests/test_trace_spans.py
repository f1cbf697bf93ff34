"""The benchmark tracer (``perfbench/traced_cli.py``) wraps each function
listed in ``perfbench/layers.py`` by module and attribute name; a rename or
removal in ``src/`` must fail here rather than break a traced run."""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def traced_spans():
    """``layers.SPANS``, read from the file without importing it as a module
    (so nothing is written next to it)."""
    namespace = {"__name__": "layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return namespace["SPANS"]


def traced_function(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):  # "Class.method" entries patch the class
        owner = getattr(owner, part, None)
    return owner


def extractor_reads():
    """Extractor kind -> the ``(index, name)`` of each ``_arg(args, kwargs, index,
    name)`` call in its ``if kind == ...`` branch of ``layers.extract``."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    extract = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "extract")
    reads = {}
    for branch in extract.body:
        if isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare):
            kind = branch.test.comparators[0].value
            reads[kind] = [(call.args[2].value, call.args[3].value)
                           for node in branch.body for call in ast.walk(node)
                           if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_arg"]
    return reads


def test_every_traced_function_resolves():
    spans = traced_spans()
    assert spans
    missing = [f"{name}: {module_name}.{attribute}"
               for name, module_name, attribute, _extractor in spans
               if not callable(traced_function(module_name, attribute))]
    assert missing == []


def test_every_extractor_argument_names_its_parameter():
    # an extractor reads an argument by position or by name; both must name the
    # same parameter of every function it is attached to
    reads = extractor_reads()
    checked, drifted = 0, []
    for name, module_name, attribute, extractor in traced_spans():
        if extractor is None:
            continue
        assert extractor in reads, f"{name}: no branch of extract for {extractor!r}"
        params = list(inspect.signature(traced_function(module_name, attribute)).parameters)
        for index, arg_name in reads[extractor]:
            checked += 1
            if params[index:index + 1] != [arg_name]:
                drifted.append(f"{module_name}.{attribute}: parameter {index} of {params} "
                               f"is not {arg_name!r}")
    # path of read_wav, write_wav and write_csv; bank and grid of analyze; axis and
    # waveforms of robustness_sweep
    assert checked == 7
    assert drifted == []
