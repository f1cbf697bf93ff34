"""Command-line front end.

Every subcommand takes an optional --config JSON file whose keys are the
same knobs as the flags; explicit flags win over the file, the file wins
over built-in defaults, and unknown config keys are an error. Next to each
output the tool drops a ``<out>.run.json`` sidecar recording the subcommand
and the fully resolved config, and a sidecar is itself accepted by
--config, which reruns the recorded settings.

Each knob is declared once, as a row of its subcommand's knob table
(``_GEN_KNOBS`` through ``_SWEEP_KNOBS``) giving its config key, flag, type or
choices, default and help. ``build_parser`` makes the flags from those rows,
and ``_resolve`` merges the config and types every value, flag and config
alike, by its row: a value of another type, or null where the default is not
null, fails naming its key. ``main`` then refuses a negative value of any knob
named seed, before any work. A dotted key names a knob in a section of the
config: train and sweep configs have task, features and train sections, and
sweep adds a sweep section. The features and train rows are made from the
fields of ``FeatureSpec`` and ``TrainConfig``.

Exit codes: 0 success, 1 usage error, 2 invalid input or config (out of memory
included; ``_require_memory`` alone reads physical memory and refuses work above
it, for train and sweep once, on the whole run's peak, before ``make_task``; no run
holds the corpus, since ``train`` draws each clip from its seeds as it frames it),
3 numerical failure (singular gradient, divergence, failed check).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import MISSING, fields, replace
from typing import Sequence, get_origin, get_type_hints

from fbsplab.bank import (  # the build and response bounds come with their peak factors
    _BUILD_PEAK_FACTOR,
    RESPONSE_PEAK_FACTOR,
    fbsp_kernel,
    frequency_response,
    init_params,
    load_params,
    response_to_csv,
    save_params,
)
from fbsplab.gradients import SingularGradientError, gradient_check_report
from fbsplab.perturb import (
    SWEEP_KINDS,
    _check_order,
    add_awgn,
    apply_filter,
    check_axis,
    default_axis,
    design_butterworth_lowpass,
    robustness_sweep,
    snr_power_ratio,
    sweep_to_csv,
)
from fbsplab.runio import read_json, write_json
from fbsplab.signals import (_GEN_PEAK_FACTOR, _GENERATOR_PARAMS, WindowSpec, _num_samples,
                              generate, real_number, whole_number)
from fbsplab.training import (
    ClassSpec,
    FeatureSpec,
    TrainConfig,
    TrainingDiverged,
    make_task,
    train,
)
from fbsplab.transform import DEFAULT_EPS, GROUP_ROWS, spectrogram_to_csv
from fbsplab.wavio import _READ_PEAK_FACTOR, read_wav, write_wav


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _load_config(path: str):
    doc = read_json(path)
    if isinstance(doc, dict) and set(doc) == {"command", "config"}:
        doc = doc["config"]  # a run sidecar round-trips as a config
    return doc


# ---------------------------------------------------------------------------
# knob tables
# ---------------------------------------------------------------------------
#
# A row is (config key, flag, type or choices, default, help). A list of
# strings is the choices; a type of None is text, ``list`` is numbers from a
# JSON list or comma-separated text, and "classes" and "snr_range" are the
# task's class list and its SNR (a number or a [lo, hi] pair). A key
# "section.name" is a knob inside that section of a train/sweep config; a
# section is nothing but that prefix. A row without a flag is set only by a
# config file. Flags stay None when not given, so the config or the default
# shows through.

_INPUT = ("input", "--input", None, None, "input wav")
_PARAMS_FILE = ("params_file", "--params", None, None, "bank parameter JSON (fbsp mode)")
_N_FFT = ("n_fft", "--n-fft", int, None, "default: the params file's n_fft, else 256")
_ENCODING = ("encoding", "--encoding", ["pcm16", "float32"], "pcm16", None)

_GEN_KNOBS = [
    ("kind", "--kind", sorted(_GENERATOR_PARAMS), "sine", None),
    ("duration", "--duration", float, 1.0, "seconds"),
    ("sample_rate", "--sample-rate", float, 8000.0, "Hz, a whole number"),
    ("seed", "--seed", int, 0, None),
    ("amplitude", "--amplitude", float, 0.8, None),
    ("frequency", "--frequency", float, 440.0, "sine frequency in Hz"),
    ("f_start", "--f-start", float, 300.0, "chirp start in Hz"),
    ("f_end", "--f-end", float, 3000.0, "chirp end in Hz"),
    ("low_hz", "--low-hz", float, 500.0, "band_noise lower edge in Hz"),
    ("high_hz", "--high-hz", float, 2000.0, "band_noise upper edge in Hz"),
    ("phase", "--phase", float, 0.0, "sine phase in radians"),
    _ENCODING,
]

_SPEC_KNOBS = [
    _INPUT,
    ("mode", "--mode", ["stft", "fbsp"], "stft", None),
    _PARAMS_FILE,
    _N_FFT,
    ("hop", "--hop", int, None, "default: n_fft // 2"),
    ("window", "--window", ["rectangular", "hann"], "hann", None),
    ("eps", "--eps", float, DEFAULT_EPS, "log-power floor"),
]

_RESP_KNOBS = [
    ("mode", "--mode", ["stft", "fbsp"], "fbsp", None),
    _PARAMS_FILE,
    _N_FFT,
    ("window", "--window", ["rectangular", "hann"], "rectangular", None),
    ("num_probes", "--num-probes", int, None, "default: n_fft // 2 + 1"),
]

_GRAD_KNOBS = [
    ("n_fft", "--n-fft", int, 64, None),
    ("seed", "--seed", int, 0, None),
    ("draws", "--draws", int, 5, "random admitted (m, f_b) draws"),
    ("m", "--m", float, 1.7, "fixed check point"),
    ("f_b", "--f-b", float, 0.9, "fixed check point"),
    ("step", "--step", float, 1e-6, "central difference step"),
]

_PERTURB_KNOBS = [
    _INPUT,
    ("snr_db", "--snr-db", None, None, "SNR in dB ('inf' passes through)"),
    ("cutoff_hz", "--cutoff-hz", float, None, "low-pass cutoff in Hz"),
    ("order", "--order", int, 5, "Butterworth order"),
    ("seed", "--seed", int, 0, None),
    _ENCODING,
]

def _field_rows(section: str, spec, flagged=()) -> list:
    """A row per field of the dataclass ``spec``, typed by its default; the
    fields in ``flagged`` get a flag of their name."""
    return [(f"{section}.{f.name}", "--" + f.name.replace("_", "-") if f.name in flagged
             else None, type(f.default), f.default, None) for f in fields(spec)]


_TRAIN_KNOBS = [
    ("task.classes", None, "classes", [
        {"name": "low_tone", "kind": "tone", "low_hz": 350.0, "high_hz": 650.0},
        {"name": "mid_chirp", "kind": "chirp", "low_hz": 900.0, "high_hz": 1800.0},
        {"name": "high_noise", "kind": "band_noise", "low_hz": 2200.0, "high_hz": 3200.0},
    ], None),
    ("task.samples_per_class", None, int, 40, None),
    ("task.duration", None, float, 0.75, None),
    ("task.sample_rate", None, float, 8000.0, None),
    # a top-level --seed regenerates the data; per-section seeds stay in files
    ("task.seed", "--seed", int, 0, "override the task seed"),
    ("task.snr_range", None, "snr_range", None, None),
    ("task.train_fraction", None, float, 0.8, None),
    *_field_rows("features", FeatureSpec),
    *_field_rows("train", TrainConfig, ("epochs", "lr", "lambda_fbsp", "freeze_epochs")),
]

_SWEEP_KNOBS = _TRAIN_KNOBS + [
    ("sweep.kind", "--kind", list(SWEEP_KINDS), "awgn", None),
    ("sweep.axis", "--axis", list, None, "comma-separated axis values ('inf' allowed)"),
    ("sweep.order", "--order", int, 5, "Butterworth order (lowpass)"),
    ("sweep.seed", None, int, 0, None),
]


def _numbers(value, key: str, count=None) -> list[float]:
    """A JSON list or comma-separated text of numbers, of ``count`` items if given."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, list) or count not in (None, len(items)):
        shape = "a list" if count is None else "a [lo, hi] pair"
        raise ValueError(f"{key} must be {shape} of numbers, got {value!r}")
    return [real_number(item, f"{key}[{i}]") for i, item in enumerate(items)]


def _text(value, key: str) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = str(value)  # the text its flag would have been given
    if not isinstance(value, str):
        raise ValueError(f"{key} must be text, got {value!r}")
    return value


def _checked_object(value, key: str, known, label=None) -> dict:
    """``value``, a JSON object whose keys are all ``known``; ``key`` names it
    and ``label`` (``key`` if not given) its unknown keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object, got {value!r}")
    unknown = ", ".join(sorted(set(value) - set(known)))
    if unknown:
        raise ValueError(f"unknown {label or key} config keys: {unknown}")
    return value


# ClassSpec's field types (the amplitude pair as ``tuple``) and required fields
_CLASS_KINDS = {name: get_origin(hint) or hint
                for name, hint in get_type_hints(ClassSpec).items()}
_CLASS_REQUIRED = [f.name for f in fields(ClassSpec) if f.default is MISSING]


def _class_entries(value, key: str) -> list[dict]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of class objects, got {value!r}")
    for i, entry in enumerate(value):
        _checked_object(entry, f"{key}[{i}]", _CLASS_KINDS)
        missing = [name for name in _CLASS_REQUIRED if name not in entry]
        if missing:
            raise ValueError(f"{key}[{i}] is missing {', '.join(missing)}")
    return [{name: _CASTS[_CLASS_KINDS[name]](item, f"{key}[{i}].{name}")
             for name, item in entry.items()} for i, entry in enumerate(value)]


_CASTS = {int: whole_number, float: real_number, list: _numbers, str: _text, None: _text,
          tuple: lambda value, key: tuple(_numbers(value, key, 2)), "classes": _class_entries,
          "snr_range": lambda value, key: (
              _CASTS[tuple](value, key) if isinstance(value, list) else real_number(value, key))}


def _typed(key: str, kind, default, value):
    """``value`` cast by its row's type or choices; null only where the default is null."""
    if value is None and default is None:
        return None
    if not isinstance(kind, list):
        return _CASTS[kind](value, key)
    if not (isinstance(value, str) and value in kind):
        raise ValueError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
    return value


def _resolve(args) -> dict:
    """Merge a command's defaults, its --config file and its explicit flags, and
    type every merged value by its knob row. The config and each of its sections
    must be a JSON object with no unknown key."""
    names = {}  # section ("" for the top level) -> its keys
    for key, *_ in args.knobs:
        section, _, name = key.rpartition(".")
        names.setdefault(section, []).append(name)
    top = names.pop("", [])
    given = _checked_object(_load_config(args.config) if args.config else {}, args.config,
                            top + list(names), args.command)
    sections = {section: _checked_object(given.get(section, {}), section, keys)
                for section, keys in names.items()}
    sections[""] = given
    cfg = {}
    for key, flag, kind, default, _help in args.knobs:
        section, _, name = key.rpartition(".")
        value = getattr(args, key) if flag else None
        if value is None:
            value = sections[section].get(name, default)
        (cfg.setdefault(section, {}) if section else cfg)[name] = _typed(key, kind, default, value)
    return cfg


# ---------------------------------------------------------------------------
# commands: each takes the resolved config, which it may complete with values
# it works out (the sidecar records them), and the parsed output paths
# ---------------------------------------------------------------------------


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(subject: str, verb: str, needed: float) -> None:
    """Refuse, with a MemoryError, work whose peak of ``needed`` bytes exceeds physical memory."""
    needed, available = int(needed), _physical_memory()
    if needed > available:
        raise MemoryError(f"{subject} needs about {needed} bytes to {verb}, "
                          f"more than the {available} bytes of physical memory")


def _require_bank_memory(n_fft: int, filters: int) -> None:
    """Refuse, before allocating, a (filters, n_fft) bank too large to build."""
    _require_memory(f"a bank of n_fft {n_fft}", "build", _BUILD_PEAK_FACTOR * 16 * filters * n_fft)


def _read_input(path: str):
    """``read_wav(path)``, refused first if the WAV is too large to read and process."""
    size = os.path.getsize(path)
    _require_memory(f"the input WAV of {size} bytes", "read", _READ_PEAK_FACTOR * size)
    return read_wav(path)


def _cmd_gen(cfg: dict, args) -> int:
    kind = cfg["kind"]
    samples = _num_samples(cfg["duration"], cfg["sample_rate"])
    _require_memory(f"a {kind} clip of {samples} samples", "generate",
                    _GEN_PEAK_FACTOR * 8 * samples)
    params = {key: cfg[key] for key in sorted(_GENERATOR_PARAMS[kind])}
    wf = generate(kind, params, cfg["duration"], cfg["sample_rate"], seed=cfg["seed"])
    write_wav(args.out, wf, encoding=cfg["encoding"])
    return 0


def _resolve_bank(cfg: dict):
    """Pick the analysis bank as (n_fft, filters, make) and record n_fft in
    ``cfg``, building nothing until ``make()``; a params file fixes n_fft and
    must not clash; without one, both modes build the fbsp bank at ``init_params``."""
    mode, params_file, explicit = cfg["mode"], cfg["params_file"], cfg["n_fft"]
    if mode == "fbsp" and params_file:
        params, n_fft = load_params(params_file)
        if explicit is not None and explicit != n_fft:
            raise ValueError(
                f"n_fft {explicit} conflicts with {params_file} (n_fft {n_fft})")
        filters, make = params.num_filters, lambda: fbsp_kernel(params, n_fft)
    else:
        n_fft = explicit if explicit is not None else 256
        if mode == "stft" and params_file:
            raise ValueError("a params file only applies to --mode fbsp")
        filters, make = n_fft // 2 + 1, lambda: fbsp_kernel(init_params(n_fft), n_fft)
    cfg["n_fft"] = n_fft
    return n_fft, filters, make


def _cmd_spectrogram(cfg: dict, args) -> int:
    if not cfg["input"]:
        raise ValueError("spectrogram needs an input wav (--input)")
    n_fft, filters, make_bank = _resolve_bank(cfg)
    cfg["hop"] = hop = cfg["hop"] if cfg["hop"] is not None else n_fft // 2
    wf = _read_input(cfg["input"])
    spec = FeatureSpec(n_fft=n_fft, hop=hop, window=cfg["window"], eps=cfg["eps"])
    # a clip shorter than one frame, a bank too large to build, and a render (the frames,
    # two (T, 2F) workspace buffers and the (F, T) result) beside the bank's weights and
    # matrix (32 F N bytes) and the clip it holds (8 bytes a sample) larger than memory,
    # each fail before the bank is built
    frames = spec.grid_for(len(wf)).num_frames
    _require_bank_memory(n_fft, filters)
    _require_memory(f"a spectrogram of {frames} frames at n_fft {n_fft} and hop {hop} with its "
                    f"{filters} x {n_fft} bank", "render",
                    8 * frames * (n_fft + 5 * filters) + 32 * filters * n_fft + 8 * len(wf))
    spectrogram_to_csv(args.out, spec.spectrogram(wf, make_bank()))
    return 0


def _cmd_freq_response(cfg: dict, args) -> int:
    n_fft, filters, make_bank = _resolve_bank(cfg)
    probes = cfg["num_probes"] if cfg["num_probes"] is not None else n_fft // 2 + 1
    cfg["num_probes"] = probes
    _require_bank_memory(n_fft, filters)
    _require_memory(f"the response of n_fft {n_fft} at num_probes {probes}", "compute",
                    RESPONSE_PEAK_FACTOR * 16 * (filters * n_fft + (n_fft + filters) * probes))
    response = frequency_response(make_bank(), WindowSpec(cfg["window"], n_fft), probes)
    response_to_csv(args.out, response)
    return 0


def _cmd_gradcheck(cfg: dict, args) -> int:
    report = gradient_check_report(n_fft=cfg["n_fft"], seed=cfg["seed"], draws=cfg["draws"],
                                   point=(cfg["m"], cfg["f_b"]), step=cfg["step"])
    write_json(args.out, report)
    print(f"gradcheck: {report['status']} "
          f"({len(report['checks'])} checks, {len(report['failed'])} failed)")
    return 0 if report["status"] == "pass" else 3


def _cmd_perturb(cfg: dict, args) -> int:
    if not cfg["input"]:
        raise ValueError("perturb needs an input wav (--input)")
    has_snr = cfg["snr_db"] is not None
    if has_snr == (cfg["cutoff_hz"] is not None):
        raise ValueError("choose exactly one of --snr-db or --cutoff-hz")
    _check_order(cfg["order"], "order")  # for either mode, used or not
    if has_snr:  # add_awgn's own rule, checked before the read
        snr_power_ratio(snr_db := real_number(cfg["snr_db"], "snr_db"))
        out = add_awgn(_read_input(cfg["input"]), snr_db, seed=cfg["seed"])
    else:
        wf = _read_input(cfg["input"])
        out = apply_filter(
            design_butterworth_lowpass(cfg["order"], cfg["cutoff_hz"], wf.sample_rate), wf)
        del wf  # not held through the write, as the read bound's factor assumes
    write_wav(args.out, out, encoding=cfg["encoding"])
    return 0


# What ``main`` holds through a train or sweep run before it starts: the parser of every
# subcommand, the parsed arguments and the resolved config. tracemalloc read 91-94 KB of
# them built after a warm run, and 55-70 KB held at ``make_task``'s entry of a warm main.
_MAIN_HELD_BYTES = 96 * 1024


def _section_spec(section: str, spec, values: dict):
    """``spec(**values)``; a refusal names each of its fields as the config key
    ``section.field``."""
    try:
        return spec(**values)
    except ValueError as err:
        names = "|".join(f.name for f in fields(spec))
        raise ValueError(re.sub(rf"\b({names})\b", rf"{section}.\1", str(err))) from None


def _run_inputs(cfg: dict):
    """(corpus, FeatureSpec, TrainConfig) of a train or sweep config. A clip shorter
    than one frame, then a run whose peak exceeds physical memory, is refused before
    ``make_task``. For T the clip count times ``features.grid_for`` of one clip and G one
    ``transform.clip_groups`` group's rows (at most the larger of GROUP_ROWS and one clip's
    frames), the peak is what ``main`` holds before the run, _MAIN_HELD_BYTES, beside the
    folded stacks, 8 T n_fft, the outputs and scratch, 16 F (T + G), and the bank at its
    gradient: the folded matrix with ``backward``'s (2F, N) product and the two complex
    (F, N) arrays made of it, or with the pullback's cotangent, entries and product, four
    arrays of 16 F N bytes, counted as five for numpy's buffers and the (clips, F) head
    arrays. The corpus is not counted: ``make_task`` draws no clip, and ``train`` holds
    one clip at a time, while it frames it."""
    features = _section_spec("features", FeatureSpec, cfg["features"])
    train_cfg = _section_spec("train", TrainConfig, cfg["train"])
    task = dict(cfg["task"])
    classes = [ClassSpec(**entry) for entry in task.pop("classes")]
    clips = task["samples_per_class"] * len(classes)
    clip_samples = _num_samples(task["duration"], task["sample_rate"])
    clip_frames = features.grid_for(clip_samples).num_frames
    frames, group = clips * clip_frames, min(clips * clip_frames, max(GROUP_ROWS, clip_frames))
    n_fft, filters = features.n_fft, features.n_fft // 2 + 1
    _require_memory(f"a task of {clips} clips framed at features.n_fft {n_fft} and "
                    f"features.hop {features.hop} ({frames} frames)", "train",
                    _MAIN_HELD_BYTES + 8 * frames * n_fft
                    + 16 * filters * (frames + group + 5 * n_fft))
    return make_task(classes, **task), features, train_cfg


def _cmd_train(cfg: dict, args) -> int:
    corpus, features, train_cfg = _run_inputs(cfg)
    result = train(corpus, train_cfg, features)
    save_params(args.out_params, result.params, features.n_fft)
    result.log.to_csv(args.out_log)
    final = result.log.records[-1]
    print(f"train: {train_cfg.epochs} epochs, final accuracy {final.accuracy:.3f}, "
          f"m {result.params.m:.4f}, f_b {result.params.f_b:.4f}")
    return 0


def _cmd_sweep(cfg: dict, args) -> int:
    sweep_cfg = cfg["sweep"]
    if sweep_cfg["axis"] == []:
        raise ValueError("sweep.axis must hold at least one value, got []")
    sample_rate = cfg["task"]["sample_rate"]
    if sweep_cfg["axis"] is None:
        sweep_cfg["axis"] = default_axis(sweep_cfg["kind"], sample_rate)
    _check_order(sweep_cfg["order"], "sweep.order")  # for every kind, used or not
    check_axis(sweep_cfg["kind"], sweep_cfg["axis"], sample_rate, sweep_cfg["order"])
    corpus, features, train_cfg = _run_inputs(cfg)

    frozen_cfg = replace(train_cfg, freeze_epochs=train_cfg.epochs)
    models = [
        train(corpus, frozen_cfg, features).model("stft"),
        train(corpus, train_cfg, features),
    ]
    val_wfs = [corpus.waveforms[i] for i in corpus.val_indices]
    results = robustness_sweep(sweep_cfg["kind"], sweep_cfg["axis"], models, val_wfs,
                               corpus.labels[corpus.val_indices], seed=sweep_cfg["seed"],
                               order=sweep_cfg["order"])
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    written = [f"{stem}_{result.bank_label}.csv" for result in results]
    for path, result in zip(written, results):
        sweep_to_csv(path, result)
    print("sweep wrote: " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------
# parser assembly and the shared run path
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fbsplab",
                     description="Learnable spline kernel banks over framed audio.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, run, knobs: list, outputs: list) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config (a .run.json sidecar also works)")
        dests = [p.add_argument(flag, required=True, help=out_help).dest
                 for flag, out_help in outputs]
        for key, flag, kind, _default, knob_help in knobs:
            if flag:
                p.add_argument(flag, dest=key, type=kind if kind in (int, float) else None,
                               choices=kind if isinstance(kind, list) else None, help=knob_help)
        p.set_defaults(run=run, knobs=knobs, outputs=dests)

    add("gen", "generate a test waveform", _cmd_gen, _GEN_KNOBS,
        [("--out", "output wav path")])
    add("spectrogram", "log-power spectrogram to CSV", _cmd_spectrogram, _SPEC_KNOBS,
        [("--out", "output csv path")])
    add("freq-response", "per-filter gain curves to CSV", _cmd_freq_response,
        _RESP_KNOBS, [("--out", "output csv path")])
    add("gradcheck", "analytic gradients vs central differences", _cmd_gradcheck,
        _GRAD_KNOBS, [("--out", "output JSON report path")])
    add("perturb", "add noise at an SNR or low-pass filter", _cmd_perturb,
        _PERTURB_KNOBS, [("--out", "output wav path")])
    add("train", "train the head and bank on a synthetic task", _cmd_train,
        _TRAIN_KNOBS, [("--out-params", "output bank parameter JSON"),
                       ("--out-log", "output per-epoch CSV")])
    add("sweep", "robustness sweep for stft and fbsp banks", _cmd_sweep, _SWEEP_KNOBS,
        [("--out", "output csv stem; writes <stem>_<bank>.csv")])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        cfg = _resolve(args)
        for key, *_ in args.knobs:  # numpy refuses a negative seed later, naming no key
            section, _, name = key.rpartition(".")
            if name == "seed" and (seed := (cfg[section] if section else cfg)[name]) < 0:
                raise ValueError(f"{key} must be a non-negative integer, got {seed}")
        code = args.run(cfg, args)
        for dest in args.outputs:
            write_json(getattr(args, dest) + ".run.json", {"command": args.command, "config": cfg})
        return code
    except (SingularGradientError, TrainingDiverged) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
