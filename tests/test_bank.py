import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbsplab.bank import (
    FbspParams,
    KernelBank,
    centered_taps,
    dft_grid,
    dft_kernel,
    dft_reference_bank,
    fbsp_envelope,
    fbsp_kernel,
    frequency_response,
    init_params,
    load_params,
    save_params,
)
from fbsplab.signals import WindowSpec


def scalar_kernel_entry(m, f_b, f_c, n, n_fft):
    """Independent per-entry oracle built from cmath scalars."""
    t = n - (n_fft - 1) / 2.0
    if m == 0.0:
        env = 1.0 + 0.0j
    else:
        u = f_b * t / m
        if u == 0.0:
            s = 1.0
        else:
            s = math.sin(math.pi * u) / (math.pi * u)
        if s == 0.0:
            env = 0.0 + 0.0j
        else:
            env = cmath.exp(m * cmath.log(complex(s)))  # principal branch
    return (1.0 / math.sqrt(n_fft)) * math.sqrt(f_b) * env \
        * cmath.exp(2j * math.pi * f_c * t)


class TestFbspParams:
    def test_validation(self):
        good = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            FbspParams(m=-0.1, f_b=1.0, f_c=good)
        with pytest.raises(ValueError):
            FbspParams(m=1.0, f_b=0.0, f_c=good)
        with pytest.raises(ValueError):
            FbspParams(m=1.0, f_b=1.0, f_c=np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            FbspParams(m=1.0, f_b=1.0, f_c=np.array([0.3, 0.2]))
        with pytest.raises(ValueError):
            FbspParams(m=1.0, f_b=1.0, f_c=np.array([0.1, 0.6]))
        with pytest.raises(ValueError):
            FbspParams(m=1.0, f_b=1.0, f_c=np.array([-0.01, 0.2]))

    def test_locks_and_counts(self):
        p = FbspParams(m=1.0, f_b=2.0, f_c=np.array([0.0, 0.25, 0.5]))
        assert p.num_filters == 3
        with pytest.raises(ValueError):
            p.f_c[0] = 0.1

    def test_init_params_on_dft_grid(self):
        p = init_params(16)
        assert p.m == 0.0 and p.f_b == 1.0
        assert np.array_equal(p.f_c, np.arange(9) / 16)


class TestKernelConstruction:
    @pytest.mark.parametrize("m,f_b", [(0.0, 1.0), (1.0, 1.0), (2.3, 0.7), (0.5, 1.9)])
    def test_entries_match_scalar_oracle(self, m, f_b):
        n_fft = 16
        f_c = np.array([0.0, 0.11, 0.27, 0.5])
        bank = fbsp_kernel(FbspParams(m=m, f_b=f_b, f_c=f_c), n_fft)
        for k in range(4):
            for n in range(n_fft):
                ref = scalar_kernel_entry(m, f_b, f_c[k], n, n_fft)
                assert abs(bank.weights[k, n] - ref) < 1e-14, (k, n)

    def test_envelope_zero_at_sinc_zeros(self):
        # m = 1, f_b = 1, integer taps (odd N): every nonzero tap sits on a
        # sinc zero; np.sinc leaves ~1e-16 residue there, so bound not equate
        taps = centered_taps(65)
        env = fbsp_envelope(1.0, 1.0, taps)
        assert env[32] == 1.0
        assert np.max(np.abs(env[taps != 0])) < 1e-15

    def test_init_identity_against_reference(self):
        for n_fft in (8, 64, 129, 256):
            fbsp = fbsp_kernel(init_params(n_fft), n_fft)
            ref = dft_reference_bank(n_fft)
            assert np.max(np.abs(fbsp.weights - ref.weights)) < 1e-12

    def test_row_norms_at_init(self):
        n_fft = 64
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        for k in range(bank.num_filters):
            norm_sq = sum(abs(v) ** 2 for v in bank.weights[k])
            assert abs(norm_sq - 1.0) < 1e-12

    def test_sqrt_fb_homogeneity_at_m0(self):
        # at m = 0 the envelope ignores f_b, so entries scale by sqrt(f_b'/f_b)
        f_c = dft_grid(32)
        a = fbsp_kernel(FbspParams(m=0.0, f_b=1.0, f_c=f_c), 32)
        b = fbsp_kernel(FbspParams(m=0.0, f_b=2.25, f_c=f_c), 32)
        assert np.max(np.abs(b.weights - a.weights * 1.5)) < 1e-15

    def test_dft_kernel_is_one_sided_half_of_unitary_dft(self):
        one = dft_kernel(8)
        two = np.fft.fft(np.eye(8)) / np.sqrt(8)
        assert one.weights.shape == (5, 8)
        assert np.max(np.abs(one.weights - two[:5])) < 1e-15
        # the rows are orthonormal: W W^H = I
        gram = one.weights @ one.weights.conj().T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12

    def test_bank_validation(self):
        with pytest.raises(ValueError):
            KernelBank(weights=np.zeros(4, dtype=complex), params="dft", norm_scale=1.0)
        with pytest.raises(ValueError):
            KernelBank(weights=np.array([[np.inf + 0j]]), params="dft", norm_scale=1.0)


class TestFrequencyResponse:
    def test_matched_probe_gain_is_sqrt_n(self):
        # rectangular window, probe exactly at a row's center: |sum| = N/sqrt(N)
        n_fft = 64
        bank = fbsp_kernel(init_params(n_fft), n_fft)
        resp = frequency_response(bank, WindowSpec("rectangular", n_fft), n_fft // 2 + 1)
        k = 10
        j = np.argmin(np.abs(resp.probe_freqs - bank.params.f_c[k]))
        assert abs(resp.gains[k, j] - math.sqrt(n_fft)) < 1e-9

    def test_bin_aligned_dft_curve_is_flat(self):
        n_fft = 64
        bank = dft_kernel(n_fft)
        resp = frequency_response(bank, WindowSpec("rectangular", n_fft), n_fft // 2 + 1)
        curve = resp.max_gain_curve
        assert curve.max() / curve.min() < 1.0 + 1e-12

    def test_fine_grid_scalloping_is_pi_over_2(self):
        # off-bin probes dip to 2/pi of the peak; the dense-grid ratio of the
        # rectangular DFT envelope converges to pi/2 ~ 1.5708 (> the 1.5 bound
        # that bin-centered probing satisfies)
        n_fft = 64
        bank = dft_kernel(n_fft)
        resp = frequency_response(bank, WindowSpec("rectangular", n_fft), 4097)
        interior = (resp.probe_freqs > 0.02) & (resp.probe_freqs < 0.48)
        curve = resp.max_gain_curve[interior]
        assert abs(curve.max() / curve.min() - math.pi / 2) < 2e-4

    def test_invariant_under_row_phase_rotation(self):
        n_fft = 32
        base = fbsp_kernel(FbspParams(m=1.2, f_b=0.8, f_c=dft_grid(n_fft)), n_fft)
        rng = np.random.default_rng(5)
        phases = np.exp(2j * np.pi * rng.uniform(size=base.num_filters))
        rotated = KernelBank(weights=base.weights * phases[:, None],
                             params=base.params, norm_scale=base.norm_scale)
        win = WindowSpec("hann", n_fft)
        a = frequency_response(base, win, 101)
        b = frequency_response(rotated, win, 101)
        assert np.allclose(a.gains, b.gains, atol=1e-10)

    def test_probe_validation(self):
        bank = dft_kernel(8)
        with pytest.raises(ValueError):
            frequency_response(bank, WindowSpec("rectangular", 8), 1)
        with pytest.raises(ValueError):
            frequency_response(bank, WindowSpec("rectangular", 16), 10)


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        params = FbspParams(m=1.5, f_b=0.75, f_c=np.array([0.05, 0.2, 0.45]))
        save_params(path, params, 128)
        back, n_fft = load_params(path)
        assert n_fft == 128
        assert back.m == params.m and back.f_b == params.f_b
        assert np.array_equal(back.f_c, params.f_c)

    def test_key_validation(self, tmp_path):
        path = tmp_path / "p.json"
        params = init_params(8)
        save_params(path, params, 8)
        import json
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_params(path)
        del doc["extra"], doc["m"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_params(path)

    def test_a_file_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([0.0, 1.0, [0.25], 8]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected a JSON object$"):
            load_params(path)

    @pytest.mark.parametrize("key, value, named", [
        ("m", None, "m"), ("m", True, "m"), ("f_b", [1.0], "f_b"), ("f_c", 3, "f_c"),
        ("f_c", [0.0, {"x": 1}], "f_c[1]"), ("f_c", [0.0, False], "f_c[1]"),
    ])
    def test_values_are_typed_and_named(self, tmp_path, key, value, named):
        import json
        path = tmp_path / "p.json"
        save_params(path, init_params(8), 8)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(named)} must be"):
            load_params(path)


# ---------------------------------------------------------------------------
# properties of the parameter domain and the parameter file
# ---------------------------------------------------------------------------

ORDERS = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)
BANDWIDTHS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
CENTERS = st.lists(st.floats(0.0, 0.5), min_size=1, max_size=40, unique=True).map(sorted)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=ORDERS, f_b=BANDWIDTHS, f_c=CENTERS, n_fft=st.integers(2, 2 ** 62))
def test_params_file_round_trips_bit_for_bit(tmp_path, m, f_b, f_c, n_fft):
    path = tmp_path / "p.json"
    save_params(path, FbspParams(m=m, f_b=f_b, f_c=np.array(f_c)), n_fft)
    back, back_n_fft = load_params(path)
    assert bits(back.m) == bits(m) and bits(back.f_b) == bits(f_b)
    assert bits(back.f_c) == bits(f_c)
    assert type(back_n_fft) is int and back_n_fft == n_fft


@st.composite
def bad_centers(draw):
    """A center list with one non-finite or out-of-band entry, a repeat, a
    descent, or no entries at all."""
    f_c = draw(CENTERS)
    kind = draw(st.sampled_from(["non-finite", "below", "above", "repeat", "descent", "empty"]))
    if kind == "empty":
        return []
    if kind in ("repeat", "descent"):
        if len(f_c) < 2:
            f_c = [0.0, 0.5]
        i = draw(st.integers(0, len(f_c) - 2))
        f_c[i + 1] = f_c[i] if kind == "repeat" else f_c[i] - draw(st.floats(0.0, f_c[i]))
        return f_c
    bad = {"non-finite": NON_FINITE,
           "below": st.floats(max_value=-5e-324, allow_infinity=False),
           "above": st.floats(min_value=0.5, exclude_min=True, allow_infinity=False)}[kind]
    f_c[draw(st.integers(0, len(f_c) - 1))] = draw(bad)
    return f_c


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_params_reject_values_outside_the_domain(data):
    m, f_b, f_c = data.draw(ORDERS), data.draw(BANDWIDTHS), data.draw(CENTERS)
    field = data.draw(st.sampled_from(["m", "f_b", "f_c"]))
    if field == "m":
        m = data.draw(NON_FINITE | st.floats(max_value=-5e-324))
    elif field == "f_b":
        f_b = data.draw(NON_FINITE | st.floats(max_value=0.0))
    else:
        f_c = data.draw(bad_centers())
    with pytest.raises(ValueError, match=f"^{field} "):
        FbspParams(m=m, f_b=f_b, f_c=np.array(f_c))
