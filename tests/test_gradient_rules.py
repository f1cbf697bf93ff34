"""The shared log-derivatives behind both analytic gradients, their limits
on sinc zeros at integer m, and the one exclusion rule that the gradients and
the trainer's step check apply alike."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fbsplab.bank
import fbsplab.gradients
from fbsplab.bank import FbspParams, dft_grid, fbsp_kernel
from fbsplab.gradients import (
    SINC_ZONE_RADIUS,
    admissible_draw,
    energy_pairing,
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


@st.composite
def off_grid_points(draw):
    """A bank with strictly increasing centers off the DFT grid, at m = 0 or
    an admissible (m, f_b), and a random complex cotangent."""
    n_fft = draw(st.integers(8, 48))
    count = draw(st.integers(1, n_fft // 2 + 1))
    # one center per slot of width 0.5 / count, so neighbours stay at least
    # 0.05 / count apart and every f_c probe keeps the order
    offsets = draw(st.lists(st.floats(0.05, 0.95), min_size=count, max_size=count))
    f_c = (np.arange(count) + np.array(offsets)) * (0.5 / count)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m, f_b = 0.0, draw(st.floats(0.25, 4.0))
    else:
        drawn = admissible_draw(rng, n_fft)
        m, f_b = drawn.m, drawn.f_b
    cot = rng.standard_normal((count, n_fft)) + 1j * rng.standard_normal((count, n_fft))
    return FbspParams(m=m, f_b=f_b, f_c=f_c), n_fft, cot


@settings(max_examples=200, deadline=None, database=None)
@given(off_grid_points())
def test_pullback_off_the_grid_matches_differences(point):
    params, n_fft, cot = point
    analytic = kernel_jacobian_vector(params, n_fft, cot)
    numeric = finite_difference_oracle(
        lambda p: energy_pairing(cot, fbsp_kernel(p, n_fft)), params)
    if params.m == 0.0:
        assert analytic.d_m == 0.0  # the boundary convention
    else:
        assert math.isclose(analytic.d_m, numeric.d_m, rel_tol=1e-5)
    assert math.isclose(analytic.d_fb, numeric.d_fb, rel_tol=1e-5)
    assert np.allclose(analytic.d_fc, numeric.d_fc,
                       rtol=1e-5, atol=1e-6 * np.max(np.abs(analytic.d_fc)))


def test_each_gradient_forms_the_sinc_argument_at_most_three_times(monkeypatch):
    calls = []
    original = fbsplab.bank.sinc_argument

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fbsplab.bank, "sinc_argument", counted)
    monkeypatch.setattr(fbsplab.gradients, "sinc_argument", counted)
    params = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(64))
    loss_gradient(params, 64)
    assert 0 < len(calls) <= 3
    calls.clear()
    kernel_jacobian_vector(params, 64, np.ones((params.num_filters, 64), dtype=complex))
    assert 0 < len(calls) <= 3
