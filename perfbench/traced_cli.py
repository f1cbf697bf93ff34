"""Run one fbsplab command with a span around each traced layer call.

Usage: python traced_cli.py SPANS_JSON COMMAND_ID CLI_ARG...

Times ``import fbsplab.cli`` and counts the modules it loads, wraps the public
functions listed in ``layers.SPANS`` in every fbsplab module namespace that
bound them, calls ``fbsplab.cli.main`` with the CLI arguments, and on exit
writes the spans, kept in memory until then, to SPANS_JSON. Each span is
``[name, start, end, parent index, COMMAND_ID, extra]``. The exit code is the
command's.
"""

import sys
from time import perf_counter

_loaded_at_start = set(sys.modules)
_import_start = perf_counter()
import fbsplab.cli  # noqa: E402

_import_end = perf_counter()
_modules_imported = len(set(sys.modules) - _loaded_at_start)

import functools  # noqa: E402
import json  # noqa: E402

import layers  # noqa: E402


class Recorder:
    """Spans of one command, and the stack of spans still open."""

    def __init__(self, command):
        self.command = command
        self.spans = [["cli.startup", _import_start, _import_end, -1, command, None]]
        self.open = []

    def traced(self, name, fn, extractor):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1, self.command, None]
            self.open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.open.pop()
            if extractor is not None:
                span[5] = layers.extract(extractor, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        packages = [module for key, module in sys.modules.items()
                    if key == "fbsplab" or key.startswith("fbsplab.")]
        for name, module_name, attribute, extractor in layers.SPANS:
            owner = sys.modules[module_name]
            if "." in attribute:  # a method: patch the class attribute
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                setattr(owner, attribute,
                        self.traced(name, getattr(owner, attribute), extractor))
                continue
            original = getattr(owner, attribute)
            wrapper = self.traced(name, original, extractor)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv):
    out_path, command, cli_args = argv[0], argv[1], argv[2:]
    recorder = Recorder(command)
    recorder.install()
    try:
        return recorder.traced("cli.main", fbsplab.cli.main, None)(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"command": command, "modules_imported": _modules_imported,
                       "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
