"""Every frozen value type stores each array field as a read-only copy."""

import numpy as np
import pytest

from fbsplab.bank import FbspParams, FrequencyResponse, KernelBank, dft_grid, dft_kernel
from fbsplab.gradients import ParamGradient
from fbsplab.perturb import ButterworthFilter, SweepResult
from fbsplab.signals import FrameGrid, Waveform
from fbsplab.training import LinearHead, TaskCorpus
from fbsplab.transform import Spectrogram


def _clip():
    return Waveform(np.zeros(8), 8000)


# (type, dtype, its array fields, its other fields); callables so that every
# test gets fresh arrays
TYPES = [
    (Waveform, np.float64,
     lambda: {"samples": np.linspace(-0.5, 0.5, 8)},
     lambda: {"sample_rate": 8000}),
    (FbspParams, np.float64,
     lambda: {"f_c": dft_grid(8)},
     lambda: {"m": 0.0, "f_b": 1.0}),
    (KernelBank, np.complex128,
     lambda: {"weights": dft_kernel(8).weights.copy()},
     lambda: {"params": "dft", "norm_scale": 8 ** -0.5}),
    (FrequencyResponse, np.float64,
     lambda: {"probe_freqs": np.array([0.1, 0.2]), "gains": np.ones((3, 2)),
              "max_gain_curve": np.ones(2)},
     lambda: {}),
    (ParamGradient, np.float64,
     lambda: {"d_fc": np.array([0.1, -0.2])},
     lambda: {"d_m": 0.0, "d_fb": 0.5}),
    (ButterworthFilter, np.float64,
     lambda: {"sections": np.array([[0.25, 0.5, 0.25, -0.2, 0.1]])},
     lambda: {"order": 2, "cutoff_hz": 1000.0, "sample_rate": 8000.0}),
    (SweepResult, np.float64,
     lambda: {"axis": np.array([np.inf, 10.0]), "accuracy": np.array([1.0, 0.5]),
              "spectro_snr_db": np.array([np.inf, 9.5])},
     lambda: {"kind": "awgn", "bank_label": "stft", "num_clips": 2}),
    (TaskCorpus, np.int64,
     lambda: {"labels": np.array([0, 1], dtype=np.int64),
              "train_indices": np.array([0], dtype=np.int64),
              "val_indices": np.array([1], dtype=np.int64)},
     lambda: {"waveforms": (_clip(), _clip()), "class_names": ("a", "b"),
              "sample_rate": 8000.0}),
    (LinearHead, np.float64,
     lambda: {"weights": np.ones((2, 3)), "bias": np.zeros(2),
              "feat_mean": np.zeros(3), "feat_std": np.ones(3)},
     lambda: {}),
    (Spectrogram, np.float64,
     lambda: {"values": np.zeros((3, 2))},
     lambda: {"grid": FrameGrid(8, 4, 2), "bank_descriptor": "dft", "eps": 1e-10}),
]

FIELDS = [pytest.param(cls, dtype, arrays, others, name, id=f"{cls.__name__}.{name}")
          for cls, dtype, arrays, others in TYPES for name in arrays()]


@pytest.mark.parametrize("cls, dtype, arrays, others, name", FIELDS)
def test_array_field_is_a_read_only_copy(cls, dtype, arrays, others, name):
    given = arrays()
    caller = given[name]
    assert caller.dtype == dtype
    before = caller.copy()
    stored = getattr(cls(**given, **others()), name)
    assert stored is not caller and not np.shares_memory(stored, caller)
    assert stored.dtype == dtype
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[...] = 0
    caller += 1
    assert np.array_equal(stored, before)
