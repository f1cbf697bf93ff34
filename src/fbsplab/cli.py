"""Command-line front end.

Every subcommand takes an optional --config JSON file whose keys are the
same knobs as the flags; explicit flags win over the file, the file wins
over built-in defaults, and unknown config keys are an error. Next to each
output the tool drops a ``<out>.run.json`` sidecar recording the subcommand
and the fully resolved config, and a sidecar is itself accepted by
--config, which reruns the recorded settings.

Each knob is declared once, as a row of its subcommand's knob table
(``_GEN_KNOBS`` through ``_SWEEP_KNOBS``) giving its config key, flag, type
or choices, default and help. ``build_parser`` makes the flags from those
rows and ``_resolve`` the config. train and sweep configs have task,
features and train sections, and sweep adds a sweep section; the features
and train defaults are the field defaults of ``FeatureSpec`` and
``TrainConfig``.

Exit codes: 0 success, 1 usage error, 2 invalid input or config (running
out of memory included), 3 numerical failure (singular gradient,
divergence, failed check).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Sequence

from fbsplab.bank import (
    dft_kernel,
    fbsp_kernel,
    frequency_response,
    init_params,
    load_params,
    response_to_csv,
    save_params,
)
from fbsplab.gradients import SingularGradientError, gradient_check_report
from fbsplab.perturb import (
    DEFAULT_SNR_AXIS,
    add_awgn,
    apply_filter,
    design_butterworth_lowpass,
    robustness_sweep,
    sweep_to_csv,
)
from fbsplab.runio import read_json, write_json
from fbsplab.signals import _GENERATOR_PARAMS, WindowSpec, generate, whole_number
from fbsplab.training import (
    ClassSpec,
    FeatureSpec,
    TrainConfig,
    TrainingDiverged,
    make_task,
    train,
)
from fbsplab.transform import DEFAULT_EPS, spectrogram_to_csv
from fbsplab.wavio import read_wav, write_wav


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _load_config(path: str) -> dict:
    doc = read_json(path)
    if isinstance(doc, dict) and set(doc) == {"command", "config"}:
        doc = doc["config"]  # a run sidecar round-trips as a config
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return doc


def _merge(defaults: dict, config: dict, overrides: dict, where: str) -> dict:
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {where} config keys: {', '.join(unknown)}")
    merged = dict(defaults)
    merged.update(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def _write_sidecar(out_path: str, command: str, resolved: dict) -> None:
    write_json(out_path + ".run.json", {"command": command, "config": resolved})


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _from_fields(cls, section: dict):
    """Build a FeatureSpec or TrainConfig, casting each value to the type of
    its field's default; an int field takes only a whole number."""
    return cls(**{f.name: whole_number(section[f.name], f.name) if type(f.default) is int
                  else type(f.default)(section[f.name]) for f in fields(cls)})


# ---------------------------------------------------------------------------
# knob tables
# ---------------------------------------------------------------------------
#
# A row is (config key, flag, type or choices, default, help). A list of
# strings is the flag's choices; a type of None keeps the flag's text as
# typed, and ``list`` also splits it on commas. A key "section.name" is a
# knob inside that section of a train/sweep config, and a row whose default
# is a dict declares a whole section. A row without a flag is set only by
# a config file. Flags stay None when not given, so the config or the
# default shows through.

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

_DEFAULT_TASK = {
    "classes": [
        {"name": "low_tone", "kind": "tone", "low_hz": 350.0, "high_hz": 650.0},
        {"name": "mid_chirp", "kind": "chirp", "low_hz": 900.0, "high_hz": 1800.0},
        {"name": "high_noise", "kind": "band_noise",
         "low_hz": 2200.0, "high_hz": 3200.0},
    ],
    "samples_per_class": 40,
    "duration": 0.75,
    "sample_rate": 8000.0,
    "seed": 0,
    "snr_range": None,
    "train_fraction": 0.8,
}

_TRAIN_KNOBS = [
    ("task", None, None, _DEFAULT_TASK, None),
    ("features", None, None, _field_defaults(FeatureSpec), None),
    ("train", None, None, _field_defaults(TrainConfig), None),
    # a top-level --seed regenerates the data; per-section seeds stay in files
    ("task.seed", "--seed", int, _DEFAULT_TASK["seed"], "override the task seed"),
    ("train.epochs", "--epochs", int, TrainConfig.epochs, None),
    ("train.lr", "--lr", float, TrainConfig.lr, None),
    ("train.lambda_fbsp", "--lambda-fbsp", float, TrainConfig.lambda_fbsp, None),
    ("train.freeze_epochs", "--freeze-epochs", int, TrainConfig.freeze_epochs, None),
]

_SWEEP_KNOBS = _TRAIN_KNOBS + [
    ("sweep", None, None, {}, None),
    ("sweep.kind", "--kind", ["awgn", "lowpass"], "awgn", None),
    ("sweep.axis", "--axis", list, None, "comma-separated axis values ('inf' allowed)"),
    ("sweep.order", "--order", int, 5, "Butterworth order (lowpass)"),
    ("sweep.seed", None, int, 0, None),
]


def _resolve(args) -> dict:
    """Merge a command's defaults, its --config file and its explicit flags."""
    config = _load_config(args.config) if args.config else {}
    defaults, flags = {}, {}
    for key, flag, kind, default, _help in args.knobs:
        value = getattr(args, key) if flag else None
        if kind is list and value is not None:
            value = [part.strip() for part in value.split(",")]
        section, _, name = key.rpartition(".")
        if section:
            defaults[section][name] = default
            flags.setdefault(section, {})[name] = value
        elif isinstance(default, dict):
            defaults[key] = dict(default)
        else:
            defaults[key] = default
            flags[key] = value
    if not any(isinstance(value, dict) for value in defaults.values()):
        return _merge(defaults, config, flags, args.command)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config sections: {', '.join(unknown)}")
    return {name: _merge(section, config.get(name, {}), flags.get(name, {}), name)
            for name, section in defaults.items()}


# ---------------------------------------------------------------------------
# commands: each takes the resolved config, which it may complete with values
# it works out (the sidecar records them), and the parsed output paths
# ---------------------------------------------------------------------------


def _cmd_gen(cfg: dict, args) -> int:
    kind = cfg["kind"]
    if kind not in _GENERATOR_PARAMS:
        raise ValueError(f"unknown generator kind {kind!r}")
    params = {key: float(cfg[key]) for key in sorted(_GENERATOR_PARAMS[kind])}
    wf = generate(kind, params, float(cfg["duration"]),
                  float(cfg["sample_rate"]), seed=whole_number(cfg["seed"], "seed"))
    write_wav(args.out, wf, encoding=cfg["encoding"])
    return 0


def _resolve_bank(mode: str, params_file, n_fft_setting):
    """Pick the analysis bank; a params file fixes n_fft and must not clash."""
    if mode not in ("stft", "fbsp"):
        raise ValueError(f"mode must be 'stft' or 'fbsp', got {mode!r}")
    explicit = None if n_fft_setting is None else whole_number(n_fft_setting, "n_fft")
    if mode == "fbsp" and params_file:
        params, n_fft = load_params(params_file)
        if explicit is not None and explicit != n_fft:
            raise ValueError(
                f"n_fft {explicit} conflicts with {params_file} (n_fft {n_fft})")
        return fbsp_kernel(params, n_fft), n_fft
    n_fft = explicit if explicit is not None else 256
    if mode == "fbsp":
        return fbsp_kernel(init_params(n_fft), n_fft), n_fft
    if params_file:
        raise ValueError("a params file only applies to --mode fbsp")
    return dft_kernel(n_fft), n_fft


def _cmd_spectrogram(cfg: dict, args) -> int:
    if not cfg["input"]:
        raise ValueError("spectrogram needs an input wav (--input)")
    bank, n_fft = _resolve_bank(cfg["mode"], cfg["params_file"], cfg["n_fft"])
    cfg["n_fft"] = n_fft
    hop = whole_number(cfg["hop"], "hop") if cfg["hop"] is not None else n_fft // 2
    cfg["hop"] = hop
    wf = read_wav(cfg["input"])
    spec = FeatureSpec(n_fft=n_fft, hop=hop, window=cfg["window"], eps=float(cfg["eps"]))
    spectrogram_to_csv(args.out, spec.spectrogram(wf, bank))
    return 0


def _cmd_freq_response(cfg: dict, args) -> int:
    bank, n_fft = _resolve_bank(cfg["mode"], cfg["params_file"], cfg["n_fft"])
    cfg["n_fft"] = n_fft
    probes = (whole_number(cfg["num_probes"], "num_probes") if cfg["num_probes"] is not None
              else n_fft // 2 + 1)
    cfg["num_probes"] = probes
    response = frequency_response(bank, WindowSpec(cfg["window"], n_fft), probes)
    response_to_csv(args.out, response)
    return 0


def _cmd_gradcheck(cfg: dict, args) -> int:
    report = gradient_check_report(
        n_fft=whole_number(cfg["n_fft"], "n_fft"), seed=whole_number(cfg["seed"], "seed"),
        draws=whole_number(cfg["draws"], "draws"), point=(float(cfg["m"]), float(cfg["f_b"])),
        step=float(cfg["step"]),
    )
    write_json(args.out, report)
    print(f"gradcheck: {report['status']} "
          f"({len(report['checks'])} checks, {len(report['failed'])} failed)")
    return 0 if report["status"] == "pass" else 3


def _cmd_perturb(cfg: dict, args) -> int:
    if not cfg["input"]:
        raise ValueError("perturb needs an input wav (--input)")
    has_snr = cfg["snr_db"] is not None
    has_cutoff = cfg["cutoff_hz"] is not None
    if has_snr == has_cutoff:
        raise ValueError("choose exactly one of --snr-db or --cutoff-hz")
    wf = read_wav(cfg["input"])
    if has_snr:
        out = add_awgn(wf, float(cfg["snr_db"]), seed=whole_number(cfg["seed"], "seed"))
    else:
        filt = design_butterworth_lowpass(
            whole_number(cfg["order"], "order"), float(cfg["cutoff_hz"]), wf.sample_rate)
        out = apply_filter(filt, wf)
    write_wav(args.out, out, encoding=cfg["encoding"])
    return 0


_CLASS_KEYS = {"name", "kind", "low_hz", "high_hz", "amplitude"}


def _task_from_config(cfg: dict):
    classes = []
    for entry in cfg["classes"]:
        unknown = sorted(set(entry) - _CLASS_KEYS)
        if unknown:
            raise ValueError(f"unknown class config keys: {', '.join(unknown)}")
        kwargs = {
            "name": str(entry["name"]), "kind": str(entry["kind"]),
            "low_hz": float(entry["low_hz"]),
            "high_hz": float(entry["high_hz"]),
        }
        if "amplitude" in entry:
            lo, hi = entry["amplitude"]
            kwargs["amplitude"] = (float(lo), float(hi))
        classes.append(ClassSpec(**kwargs))
    snr = cfg["snr_range"]
    if isinstance(snr, (list, tuple)):
        snr = (float(snr[0]), float(snr[1]))
    elif snr is not None:
        snr = float(snr)
    return make_task(
        classes, whole_number(cfg["samples_per_class"], "samples_per_class"),
        duration=float(cfg["duration"]), sample_rate=float(cfg["sample_rate"]), snr_range=snr,
        seed=whole_number(cfg["seed"], "seed"), train_fraction=float(cfg["train_fraction"]),
    )


def _cmd_train(cfg: dict, args) -> int:
    corpus = _task_from_config(cfg["task"])
    features = _from_fields(FeatureSpec, cfg["features"])
    train_cfg = _from_fields(TrainConfig, cfg["train"])
    result = train(corpus, train_cfg, features)
    save_params(args.out_params, result.params, features.n_fft)
    result.log.to_csv(args.out_log)
    final = result.log.records[-1]
    print(f"train: {train_cfg.epochs} epochs, final accuracy {final.accuracy:.3f}, "
          f"m {result.params.m:.4f}, f_b {result.params.f_b:.4f}")
    return 0


def _default_axis(kind: str, sample_rate: float) -> list[float]:
    if kind == "awgn":
        return list(DEFAULT_SNR_AXIS)
    fractions = (0.5, 16000.0 / 44100.0, 8000.0 / 44100.0, 4000.0 / 44100.0,
                 2000.0 / 44100.0, 1000.0 / 44100.0)
    return [f * sample_rate for f in fractions]


def _cmd_sweep(cfg: dict, args) -> int:
    sweep_cfg = cfg["sweep"]
    corpus = _task_from_config(cfg["task"])
    features = _from_fields(FeatureSpec, cfg["features"])
    train_cfg = _from_fields(TrainConfig, cfg["train"])
    axis = sweep_cfg["axis"]
    axis = (_default_axis(sweep_cfg["kind"], corpus.sample_rate) if axis is None
            else [float(v) for v in axis])
    sweep_cfg["axis"] = axis
    seed = whole_number(sweep_cfg["seed"], "seed")
    order = whole_number(sweep_cfg["order"], "order")

    frozen_cfg = replace(train_cfg, freeze_epochs=train_cfg.epochs)
    models = [
        train(corpus, frozen_cfg, features).model("stft"),
        train(corpus, train_cfg, features).model("fbsp"),
    ]
    val_wfs = [corpus.waveforms[i] for i in corpus.val_indices]
    val_labels = [int(v) for v in corpus.labels[corpus.val_indices]]
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    written = []
    for model in models:
        result = robustness_sweep(sweep_cfg["kind"], axis, model, val_wfs, val_labels,
                                  seed=seed, order=order)
        path = f"{stem}_{model.bank_label}.csv"
        sweep_to_csv(path, result)
        written.append(path)
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
            if flag is None:
                continue
            if isinstance(kind, list):
                p.add_argument(flag, dest=key, choices=kind, help=knob_help)
            else:
                p.add_argument(flag, dest=key, type=None if kind is list else kind,
                               help=knob_help)
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
        code = args.run(cfg, args)
        for dest in args.outputs:
            _write_sidecar(getattr(args, dest), args.command, cfg)
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
