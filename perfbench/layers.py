"""The traced layers: which public functions get a span, and how spans become
per-layer metrics.

Standard library only, because the traced launcher imports this module after
``fbsplab.cli`` and must not add modules of its own to the import count.

A span is ``[name, start, end, parent, command, extra]``: ``parent`` is the
index of the enclosing span in the same command (-1 for none), ``command``
the id of the command that made it, and ``extra`` what the span's extractor
took from the call (bytes, frames, shapes), or None.
"""

from __future__ import annotations

import os

# (span name, module that defines the function, attribute, extractor)
SPANS = [
    ("wavio.read", "fbsplab.wavio", "read_wav", "file_size"),
    ("wavio.write", "fbsplab.wavio", "write_wav", "file_size"),
    ("signals.frame", "fbsplab.signals", "frame", "frame_count"),
    ("signals.generate", "fbsplab.signals", "generate", None),
    ("bank.build", "fbsplab.bank", "fbsp_kernel", None),
    ("bank.build", "fbsplab.bank", "dft_kernel", None),
    ("bank.freq_response", "fbsplab.bank", "frequency_response", None),
    ("transform.analyze", "fbsplab.transform", "analyze", "matmul_shape"),
    ("transform.log_power", "fbsplab.transform", "log_power", None),
    ("transform.to_csv", "fbsplab.transform", "spectrogram_to_csv", None),
    ("runio.write_csv", "fbsplab.runio", "write_csv", "file_size"),
    ("training.train", "fbsplab.training", "train", None),
    ("training.prepare_frames", "fbsplab.training", "prepare_frames", None),
    ("training.forward", "fbsplab.training", "feature_matrix", None),
    ("training.step", "fbsplab.training", "pipeline_gradients", None),
    ("training.model_spectrogram", "fbsplab.training", "TrainedModel.spectrogram", None),
    ("gradients.pullback", "fbsplab.gradients", "kernel_jacobian_vector", None),
    ("gradients.loss_gradient", "fbsplab.gradients", "loss_gradient", None),
    ("gradients.fd_oracle", "fbsplab.gradients", "finite_difference_oracle", None),
    ("gradients.draw", "fbsplab.gradients", "admissible_draw", None),
    ("gradients.clearance", "fbsplab.gradients", "sinc_zone_clearance", None),
    ("perturb.awgn", "fbsplab.perturb", "add_awgn", None),
    ("perturb.filter", "fbsplab.perturb", "apply_filter", None),
    ("perturb.sweep", "fbsplab.perturb", "robustness_sweep", "sweep_cells"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def extract(kind, args, kwargs, result):
    """Value attached to a span, taken from the call's arguments or result."""
    if kind == "file_size":  # taken after the call: the file read or written
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    if kind == "frame_count":
        return int(result.shape[0])
    if kind == "matmul_shape":
        bank = _arg(args, kwargs, 1, "bank")
        grid = _arg(args, kwargs, 2, "grid")
        return (bank.num_filters, bank.num_taps, grid.num_frames)
    if kind == "sweep_cells":
        axis = _arg(args, kwargs, 1, "axis")
        clips = _arg(args, kwargs, 3, "waveforms")
        return (len(axis), len(clips))
    raise ValueError(f"unknown extractor {kind!r}")


# Reported self times: metric name -> span name.
TIME_METRICS = {
    "cli.startup_s": "cli.startup",
    "cli.main_s": "cli.main",
    "wavio.read_s": "wavio.read",
    "wavio.write_s": "wavio.write",
    "signals.frame_s": "signals.frame",
    "signals.generate_s": "signals.generate",
    "bank.build_s": "bank.build",
    "bank.freq_response_s": "bank.freq_response",
    "transform.analyze_s": "transform.analyze",
    "transform.log_power_s": "transform.log_power",
    "transform.to_csv_s": "transform.to_csv",
    "runio.write_csv_s": "runio.write_csv",
    "training.train_s": "training.train",
    "training.prepare_frames_s": "training.prepare_frames",
    "training.forward_s": "training.forward",
    "training.step_s": "training.step",
    "gradients.pullback_s": "gradients.pullback",
    "gradients.loss_gradient_s": "gradients.loss_gradient",
    "gradients.fd_oracle_s": "gradients.fd_oracle",
    "perturb.awgn_s": "perturb.awgn",
    "perturb.filter_s": "perturb.filter",
    "perturb.sweep_s": "perturb.sweep",
}

# Reported call counts: metric name -> span name.
CALL_METRICS = {
    "cli.commands": "cli.startup",
    "wavio.read_calls": "wavio.read",
    "wavio.write_calls": "wavio.write",
    "signals.frame_calls": "signals.frame",
    "signals.generate_calls": "signals.generate",
    "bank.builds": "bank.build",
    "bank.freq_response_calls": "bank.freq_response",
    "transform.analyze_calls": "transform.analyze",
    "transform.log_power_calls": "transform.log_power",
    "transform.to_csv_calls": "transform.to_csv",
    "runio.write_csv_calls": "runio.write_csv",
    "training.train_calls": "training.train",
    "training.prepare_frames_calls": "training.prepare_frames",
    "training.feature_matrix_calls": "training.forward",
    "training.epochs": "training.step",
    "gradients.pullback_calls": "gradients.pullback",
    "gradients.loss_gradient_calls": "gradients.loss_gradient",
    "gradients.fd_oracle_calls": "gradients.fd_oracle",
    "gradients.draws": "gradients.draw",
    "perturb.awgn_calls": "perturb.awgn",
    "perturb.filter_calls": "perturb.filter",
    "perturb.sweep_calls": "perturb.sweep",
}

# Counts and ratios built from span extras and span nesting; the matmul
# figures are computed from argument shapes, not measured.
DERIVED_UNITS = {
    "cli.modules_imported": "count",
    "wavio.bytes_read": "B",
    "wavio.bytes_written": "B",
    "signals.frames": "count",
    "runio.bytes_written": "B",
    "transform.matmul_flops": "flop",
    "transform.matmul_bytes": "B",
    "bank.builds_per_epoch": "1/epoch",
    "gradients.clearance_evals": "count",
    "gradients.draw_acceptance": "ratio",
    "perturb.sweep_cells": "count",
    "perturb.spectrograms_per_cell": "1/cell",
}

# Ratios are exact like counts: both sides are counts of one deterministic run.
EXACT_METRICS = tuple(CALL_METRICS) + tuple(DERIVED_UNITS)


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(commands):
    """Per-layer metrics of one traced pass.

    ``commands`` holds one document per command, as the launcher wrote it:
    ``{"modules_imported": int, "spans": [...]}``. Times are self times
    summed over the pass; counts are summed; ratios are taken over the pass.
    """
    self_s = {}
    calls = {}
    sums = dict.fromkeys(["wavio.bytes_read", "wavio.bytes_written", "runio.bytes_written",
                          "signals.frames", "transform.matmul_flops",
                          "transform.matmul_bytes", "perturb.sweep_cells"], 0)
    in_train_builds = sweep_spectrograms = drawn_clearances = 0
    sweep_clips = 0
    modules = 0
    for doc in commands:
        modules = max(modules, doc["modules_imported"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "wavio.read":
                sums["wavio.bytes_read"] += extra
            elif name == "wavio.write":
                sums["wavio.bytes_written"] += extra
            elif name == "runio.write_csv":
                sums["runio.bytes_written"] += extra
            elif name == "signals.frame":
                sums["signals.frames"] += extra
            elif name == "transform.analyze":
                filters, taps, frames = extra
                # complex128 product: 8 real flops per multiply-add; each
                # operand read once and the result written once
                sums["transform.matmul_flops"] += 8 * filters * taps * frames
                sums["transform.matmul_bytes"] += 16 * (
                    filters * taps + taps * frames + filters * frames)
            elif name == "perturb.sweep":
                axis, clips = extra
                sums["perturb.sweep_cells"] += axis * clips
                sweep_clips += clips
            elif name == "bank.build" and "training.train" in _ancestors(spans, i):
                in_train_builds += 1
            elif name == "training.model_spectrogram" and "perturb.sweep" in _ancestors(spans, i):
                sweep_spectrograms += 1
            elif name == "gradients.clearance" and parent >= 0 and spans[parent][0] == "gradients.draw":
                drawn_clearances += 1

    metrics = {}
    for metric, span in TIME_METRICS.items():
        metrics[metric] = self_s.get(span, 0.0)
    for metric, span in CALL_METRICS.items():
        metrics[metric] = calls.get(span, 0)
    metrics.update(sums)
    metrics["cli.modules_imported"] = modules
    metrics["bank.builds_per_epoch"] = _ratio(in_train_builds, calls.get("training.step", 0))
    metrics["gradients.clearance_evals"] = drawn_clearances
    metrics["gradients.draw_acceptance"] = _ratio(calls.get("gradients.draw", 0), drawn_clearances)
    # one clean reference spectrogram per clip; the rest are per-cell work
    metrics["perturb.spectrograms_per_cell"] = _ratio(
        sweep_spectrograms - sweep_clips, sums["perturb.sweep_cells"])
    return metrics


def metric_units():
    """Unit of every per-layer metric this module reports."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in CALL_METRICS})
    units.update(DERIVED_UNITS)
    units["trace.overhead_s"] = "s"
    return units
