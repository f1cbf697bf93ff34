"""Trainable complex frequency B-spline (fbsp) time-frequency analysis.

Import each name from the module that defines it (``from fbsplab.bank import
fbsp_kernel``): signals (waveforms, generators, framing), wavio (WAV files),
bank (DFT and fbsp kernel banks), transform (log-power spectrograms),
gradients (energy loss and analytic gradients), training (synthetic tasks
and the trainer), perturb (noise, low-pass, robustness sweeps), augment
(waveform augmentation), runio (CSV/JSON output) and cli (the command line).
"""

__version__ = "0.1.0"
