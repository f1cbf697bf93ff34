import cmath
import math

import numpy as np
import pytest

from fbsplab.bank import FbspParams, dft_grid, fbsp_kernel, init_params
import fbsplab.gradients
from fbsplab.gradients import (
    CHECK_REL_TOL,
    SINC_ZONE_RADIUS,
    ParamGradient,
    SingularGradientError,
    admissible_draw,
    energy_pairing,
    fbsp_loss,
    finite_difference_oracle,
    gradient_check_report,
    kernel_jacobian_vector,
    loss_gradient,
    sinc_zone_clearance,
)

N_FFT = 64
PINNED = FbspParams(m=1.7, f_b=0.9, f_c=dft_grid(N_FFT))

# frozen against the scalar oracle below and central differences
PINNED_LOSS = 0.96192320558136279
PINNED_D_M = -0.0098172709482612138
PINNED_D_FB = -0.0022680036782121008


def scalar_loss(m, f_b, f_c_list, n_fft):
    """Pure-python loss oracle sharing no code with the vectorized path."""
    total = 0.0
    for fc in f_c_list:
        norm_sq = 0.0
        for n in range(n_fft):
            t = n - (n_fft - 1) / 2.0
            if m == 0.0:
                env = 1.0 + 0.0j
            else:
                u = f_b * t / m
                s = math.sin(math.pi * u) / (math.pi * u) if u != 0.0 else 1.0
                env = cmath.exp(m * cmath.log(complex(s))) if s != 0.0 else 0.0
            w = (1.0 / math.sqrt(n_fft)) * math.sqrt(f_b) * env \
                * cmath.exp(2j * math.pi * fc * t)
            norm_sq += abs(w) ** 2
        total += (norm_sq - 1.0) ** 2
    return total / len(f_c_list)


def loss_of(p, n_fft=N_FFT):
    return fbsp_loss(fbsp_kernel(p, n_fft))


class TestLoss:
    def test_zero_at_init(self):
        assert loss_of(init_params(N_FFT)) < 1e-24

    def test_matches_scalar_oracle(self):
        for m, f_b in [(1.7, 0.9), (0.6, 1.4), (3.1, 0.5), (0.0, 1.3)]:
            params = FbspParams(m=m, f_b=f_b, f_c=dft_grid(32))
            assert math.isclose(loss_of(params, 32),
                                scalar_loss(m, f_b, list(params.f_c), 32),
                                rel_tol=1e-13)

    def test_pinned_value(self):
        assert math.isclose(loss_of(PINNED), PINNED_LOSS, rel_tol=1e-14)

    def test_sqrt2_scaled_bank_gives_one(self):
        # doubling every row energy leaves (2 - 1)^2 = 1 per row
        from fbsplab.bank import KernelBank
        base = fbsp_kernel(init_params(N_FFT), N_FFT)
        scaled = KernelBank(weights=base.weights * math.sqrt(2.0),
                            params=base.params, norm_scale=base.norm_scale)
        assert abs(fbsp_loss(scaled) - 1.0) < 1e-12


class TestLossGradient:
    def test_pinned_values(self):
        g = loss_gradient(PINNED, N_FFT)
        assert math.isclose(g.d_m, PINNED_D_M, rel_tol=1e-12)
        assert math.isclose(g.d_fb, PINNED_D_FB, rel_tol=1e-12)

    def test_d_fc_identically_zero(self):
        g = loss_gradient(PINNED, N_FFT)
        assert np.all(g.d_fc == 0.0)
        assert g.d_fc.shape == (PINNED.num_filters,)

    def test_matches_finite_differences_on_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            params = admissible_draw(rng, N_FFT)
            analytic = loss_gradient(params, N_FFT)
            numeric = finite_difference_oracle(loss_of, params)
            for a, n in [(analytic.d_m, numeric.d_m), (analytic.d_fb, numeric.d_fb)]:
                err = abs(a - n)
                assert err < 1e-8 or err / max(abs(a), abs(n)) < 1e-5, params

    def test_m0_boundary_convention(self):
        g = loss_gradient(init_params(16), 16)
        assert (g.d_m, g.d_fb) == (0.0, 0.0)
        assert np.all(g.d_fc == 0.0)
        g = loss_gradient(FbspParams(m=0.0, f_b=1.3, f_c=dft_grid(16)), 16)
        assert g.d_m == 0.0
        assert math.isclose(g.d_fb, 0.6, rel_tol=1e-12)  # 2 (f_b - 1)

    def test_m0_fb_derivative_matches_differences(self):
        params = FbspParams(m=0.0, f_b=1.3, f_c=dft_grid(16))
        numeric = finite_difference_oracle(loss_of_16, params)
        assert math.isclose(loss_gradient(params, 16).d_fb, numeric.d_fb, rel_tol=1e-8)

    def test_m_quotient_vanishes_at_minimum(self):
        # at (m=0, f_b=1) the loss sits at its minimum; the one-sided
        # quotient decays like h log^2 h, so the boundary d_m = 0 is exact
        base = loss_of(init_params(N_FFT))
        h = 1e-8
        up = loss_of(FbspParams(m=h, f_b=1.0, f_c=dft_grid(N_FFT)))
        assert abs((up - base) / h) < 1e-4

    def test_m_quotient_diverges_off_minimum(self):
        # away from f_b = 1 the quotient tracks log h with no finite limit,
        # while the f_b direction converges; this is what forces a boundary
        # convention for d_m at m = 0
        def quotient(h):
            lo = loss_of(FbspParams(m=0.0, f_b=1.3, f_c=dft_grid(N_FFT)))
            hi = loss_of(FbspParams(m=h, f_b=1.3, f_c=dft_grid(N_FFT)))
            return (hi - lo) / h

        drift_m = abs(quotient(1e-4) - quotient(1e-8))
        assert drift_m > 1.0

        def quotient_fb(h):
            lo = loss_of(FbspParams(m=0.0, f_b=1.3 - h, f_c=dft_grid(N_FFT)))
            hi = loss_of(FbspParams(m=0.0, f_b=1.3 + h, f_c=dft_grid(N_FFT)))
            return (hi - lo) / (2 * h)

        assert abs(quotient_fb(1e-4) - quotient_fb(1e-6)) < 1e-6


def loss_of_16(p):
    return fbsp_loss(fbsp_kernel(p, 16))


class TestKernelJacobian:
    def test_pairing_scalar_definition(self):
        bank = fbsp_kernel(PINNED, N_FFT)
        rng = np.random.default_rng(0)
        cot = rng.standard_normal(bank.weights.shape) \
            + 1j * rng.standard_normal(bank.weights.shape)
        manual = 2.0 * sum(
            (cot[k, n] * bank.weights[k, n]).real
            for k in range(bank.num_filters) for n in range(bank.num_taps)
        )
        assert math.isclose(energy_pairing(cot, bank), manual, rel_tol=1e-12)

    def test_self_pairing_recovers_energy(self):
        bank = fbsp_kernel(PINNED, N_FFT)
        total = energy_pairing(np.conj(bank.weights) / 2.0, bank)
        assert math.isclose(total, float(np.sum(np.abs(bank.weights) ** 2)),
                            rel_tol=1e-12)

    def test_pullback_matches_differences(self):
        rng = np.random.default_rng(7)
        params = admissible_draw(rng, N_FFT)
        cot = rng.standard_normal((params.num_filters, N_FFT)) \
            + 1j * rng.standard_normal((params.num_filters, N_FFT))

        def paired(p):
            return energy_pairing(cot, fbsp_kernel(p, N_FFT))

        analytic = kernel_jacobian_vector(params, N_FFT, cot)
        numeric = finite_difference_oracle(paired, params)
        assert math.isclose(analytic.d_m, numeric.d_m, rel_tol=1e-5)
        assert math.isclose(analytic.d_fb, numeric.d_fb, rel_tol=1e-5)
        assert np.allclose(analytic.d_fc, numeric.d_fc,
                           rtol=1e-5, atol=1e-6 * np.max(np.abs(analytic.d_fc)))

    def test_pullback_at_m0(self):
        params = init_params(32)
        rng = np.random.default_rng(3)
        cot = rng.standard_normal((params.num_filters, 32)) \
            + 1j * rng.standard_normal((params.num_filters, 32))

        def paired(p):
            return energy_pairing(cot, fbsp_kernel(p, 32))

        analytic = kernel_jacobian_vector(params, 32, cot)
        numeric = finite_difference_oracle(paired, params)
        assert analytic.d_m == 0.0
        assert math.isclose(analytic.d_fb, numeric.d_fb, rel_tol=1e-6)
        assert np.allclose(analytic.d_fc, numeric.d_fc,
                           rtol=1e-5, atol=1e-6 * np.max(np.abs(analytic.d_fc)))

    def test_integer_m_limit_is_fd_limit(self):
        # odd tap count at m = 1, f_b = 1 puts every nonzero tap on an
        # envelope zero; the analytic value uses the patched limits and the
        # difference quotient converges to it at first order in the step
        n_fft = 65
        params = FbspParams(m=1.0, f_b=1.0, f_c=dft_grid(64))
        rng = np.random.default_rng(11)
        cot = rng.standard_normal((params.num_filters, n_fft)) \
            + 1j * rng.standard_normal((params.num_filters, n_fft))

        def paired(p):
            return energy_pairing(cot, fbsp_kernel(p, n_fft))

        an = kernel_jacobian_vector(params, n_fft, cot).d_m
        rel_coarse = abs(finite_difference_oracle(paired, params, step=1e-6).d_m - an) / abs(an)
        rel_fine = abs(finite_difference_oracle(paired, params, step=1e-8).d_m - an) / abs(an)
        assert rel_fine < 1e-6
        assert rel_fine < rel_coarse / 10.0

    def test_cotangent_shape_validation(self):
        with pytest.raises(ValueError):
            kernel_jacobian_vector(PINNED, N_FFT, np.zeros((2, 2), dtype=complex))


class TestSingularities:
    def test_clearance_values(self):
        assert sinc_zone_clearance(0.0, 1.0, 64) == math.inf
        # m=1, f_b=1, odd N: integer taps sit exactly on zeros
        assert sinc_zone_clearance(1.0, 1.0, 65) == 0.0
        # even N: half-integer taps are 0.5 away
        assert sinc_zone_clearance(1.0, 1.0, 64) == 0.5

    def test_fractional_m_in_zone_raises(self):
        # u = f_b t / m with t = 7.5: m=1.5, f_b=0.8 -> u = 4 exactly
        params = FbspParams(m=1.5, f_b=0.8, f_c=dft_grid(16))
        assert sinc_zone_clearance(1.5, 0.8, 16) < SINC_ZONE_RADIUS
        with pytest.raises(SingularGradientError):
            loss_gradient(params, 16)
        with pytest.raises(SingularGradientError):
            kernel_jacobian_vector(params, 16, np.zeros((9, 16), dtype=complex))

    def test_integer_m_never_raises(self):
        params = FbspParams(m=1.0, f_b=1.0, f_c=dft_grid(64))
        loss_gradient(params, 65)  # clearance 0 but integer m has limits

    def test_param_gradient_finite_validation(self):
        with pytest.raises(ValueError):
            ParamGradient(d_m=math.nan, d_fb=0.0, d_fc=np.zeros(3))
        with pytest.raises(ValueError):
            ParamGradient(d_m=0.0, d_fb=0.0, d_fc=np.array([1.0, math.inf]))


class TestOracleAndDraws:
    def test_oracle_on_polynomial(self):
        # d/dm (m^2 f_b + f_c[0]) etc. is known exactly
        def poly(p):
            return p.m ** 2 * p.f_b + 3.0 * p.f_c[1]

        params = FbspParams(m=1.5, f_b=2.0, f_c=np.array([0.1, 0.2, 0.3]))
        g = finite_difference_oracle(poly, params)
        assert math.isclose(g.d_m, 2.0 * 1.5 * 2.0, rel_tol=1e-9)
        assert math.isclose(g.d_fb, 1.5 ** 2, rel_tol=1e-9)
        assert abs(g.d_fc[0]) < 1e-6
        assert math.isclose(g.d_fc[1], 3.0, rel_tol=1e-9)

    def test_oracle_one_sided_at_domain_edges(self):
        # f_c[0] = 0 and f_c[-1] = 0.5 cannot be probed centrally
        def poly(p):
            return float(np.sum(p.f_c ** 2))

        params = FbspParams(m=1.0, f_b=1.0, f_c=np.array([0.0, 0.25, 0.5]))
        g = finite_difference_oracle(poly, params)
        assert abs(g.d_fc[0] - 0.0) < 1e-6
        assert math.isclose(g.d_fc[1], 0.5, rel_tol=1e-8)
        assert math.isclose(g.d_fc[2], 1.0, rel_tol=1e-8)

    def test_oracle_raises_what_the_scalar_raises_at_a_valid_probe(self):
        # m - step leaves the domain at m = 0, so the oracle steps forward;
        # the scalar's own error at m = step is not a domain exit
        def scalar(p):
            if p.m > 0.0:
                raise ValueError("boom")
            return 0.0

        with pytest.raises(ValueError, match="boom"):
            finite_difference_oracle(scalar, init_params(8))

    def test_oracle_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_oracle(lambda p: 0.0, PINNED, step=0.0)

    def test_draws_respect_admission_rules(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = admissible_draw(rng, N_FFT)
            assert sinc_zone_clearance(p.m, p.f_b, N_FFT) >= 1e-2
            assert 0.0 < p.m <= 4.0
            assert 0.25 <= p.f_b <= 4.0
            assert np.array_equal(p.f_c, dft_grid(N_FFT))


class TestGradientCheckReport:
    def test_report_passes_and_is_complete(self):
        report = gradient_check_report(n_fft=N_FFT, seed=0, draws=3)
        assert report["status"] == "pass"
        assert report["failed"] == []
        # fixed point + 3 draws, 3 checks each, + 3 pullback checks
        assert len(report["checks"]) == 4 * 3 + 3
        for check in report["checks"]:
            assert check["status"] == "pass"
            assert set(check) == {"param", "analytic", "numeric", "rel_error", "status"}

    def test_report_records_inputs(self):
        report = gradient_check_report(n_fft=32, seed=9, draws=1, step=1e-6)
        assert report["n_fft"] == 32 and report["seed"] == 9 and report["step"] == 1e-6

    def test_singular_fixed_point_raises(self):
        with pytest.raises(SingularGradientError):
            gradient_check_report(n_fft=16, draws=0, point=(1.5, 0.8))


class TestUnresolvableBandwidth:
    # the sqrt(f_b) prefactor's central difference misses by (step/f_b)^2/8
    # relative; the report refuses a fixed f_b where that reaches its tolerance

    @pytest.mark.parametrize("f_b", [1e-300, 1e-4, 1e-6 / math.sqrt(8.0 * CHECK_REL_TOL)])
    def test_refused_before_any_draw(self, monkeypatch, f_b):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the fixed point was checked")

        monkeypatch.setattr(fbsplab.gradients, "admissible_draw", no_draw)
        with pytest.raises(ValueError, match="cannot resolve f_b") as err:
            gradient_check_report(n_fft=N_FFT, draws=3, point=(1.7, f_b), step=1e-6)
        assert f"f_b {f_b}" in str(err.value) and "step 1e-06" in str(err.value)

    def test_resolvable_bandwidth_is_checked(self):
        report = gradient_check_report(n_fft=N_FFT, draws=0, point=(1.7, 1.2e-4), step=1e-6)
        assert report["status"] == "pass"
