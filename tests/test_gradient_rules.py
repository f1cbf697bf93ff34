"""The shared envelope derivatives behind both analytic gradients, their
limits on sinc zeros at integer m, and the one exclusion rule that the
gradients and the trainer's step check apply alike."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fbsplab.bank import FbspParams, dft_grid, fbsp_kernel
from fbsplab.gradients import (
    SINC_ZONE_RADIUS,
    fbsp_loss,
    finite_difference_oracle,
    kernel_jacobian_vector,
    loss_gradient,
    sinc_zone_clearance,
)
from fbsplab.training import _params_valid


def regularizer_cotangent(params, n_fft):
    """(2/F)(||K_k||^2 - 1) conj(K_k): pairing it with dK gives d fbsp_loss."""
    weights = fbsp_kernel(params, n_fft).weights
    energy = np.sum(np.abs(weights) ** 2, axis=1)
    return (2.0 / params.num_filters) * (energy - 1.0)[:, None] * np.conj(weights)


@st.composite
def gradient_points(draw):
    n_fft = draw(st.integers(8, 96))
    f_b = draw(st.floats(0.25, 4.0))
    m = draw(st.one_of(st.just(0.0),
                       st.integers(1, 4).map(float),
                       st.floats(0.05, 4.0).filter(lambda m: not m.is_integer())))
    # admissible: far enough from the sinc zeros for a well-conditioned envelope
    assume(m.is_integer() or sinc_zone_clearance(m, f_b, n_fft) >= 1e-3)
    return FbspParams(m=m, f_b=f_b, f_c=dft_grid(n_fft)), n_fft


@settings(max_examples=200, deadline=None, database=None)
@given(gradient_points())
def test_loss_gradient_is_the_pullback_of_its_cotangent(point):
    params, n_fft = point
    direct = loss_gradient(params, n_fft)
    pulled = kernel_jacobian_vector(params, n_fft, regularizer_cotangent(params, n_fft))
    # near the unit-energy minimum g - 1 and ||K_k||^2 - 1 cancel to
    # different last bits, so values near 0 are compared absolutely
    for a, b in [(direct.d_m, pulled.d_m), (direct.d_fb, pulled.d_fb)]:
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-14), (params.m, params.f_b, n_fft)


@pytest.mark.parametrize("m, f_b", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.5)])
def test_loss_gradient_on_sinc_zeros_matches_differences(m, f_b):
    # with an odd tap count these put taps exactly on envelope zeros
    n_fft = 65
    params = FbspParams(m=m, f_b=f_b, f_c=dft_grid(64))
    assert sinc_zone_clearance(m, f_b, n_fft) == 0.0
    analytic = loss_gradient(params, n_fft)
    numeric = finite_difference_oracle(lambda p: fbsp_loss(fbsp_kernel(p, n_fft)), params)
    for a, n in [(analytic.d_m, numeric.d_m), (analytic.d_fb, numeric.d_fb)]:
        err = abs(a - n)
        assert err < 1e-8 or err / max(abs(a), abs(n)) < 1e-5
    assert math.isfinite(analytic.d_fb) and analytic.d_fb != 0.0


def gradients_evaluate(m, f_b, n_fft):
    try:
        params = FbspParams(m=m, f_b=f_b, f_c=dft_grid(64))
        loss_gradient(params, n_fft)
        kernel_jacobian_vector(params, n_fft,
                               np.zeros((params.num_filters, n_fft), dtype=complex))
    except ValueError:
        return False
    return True


# with n_fft 16 the tap t = 7.5 has sinc argument 0.8 * 7.5 / m = 6 / m
IN_ZONE = 6.0 / (4.0 + 0.5 * SINC_ZONE_RADIUS)
OUT_OF_ZONE = 6.0 / (4.0 + 2.0 * SINC_ZONE_RADIUS)


@pytest.mark.parametrize("m, f_b, n_fft, accepted", [
    (1.5, 0.8, 16, False),       # fractional m, exactly on a zero
    (IN_ZONE, 0.8, 16, False),   # fractional m, inside the exclusion radius
    (OUT_OF_ZONE, 0.8, 16, True),
    (1.7, 0.9, 64, True),
    (1.0, 1.0, 65, True),        # integer m on zeros: the limits exist
    (2.0, 1.0, 65, True),
    (2.0, 1.0, 64, True),
    (0.0, 1.3, 64, True),
    (-0.1, 1.0, 64, False),      # not a bank
    (1.7, 0.0, 64, False),
])
def test_trainer_accepts_a_step_exactly_where_gradients_evaluate(m, f_b, n_fft, accepted):
    assert gradients_evaluate(m, f_b, n_fft) is accepted
    assert _params_valid(m, f_b, dft_grid(64), n_fft) is accepted
