"""Bank-energy regularization loss and analytic parameter gradients.

The loss pushes every row of an fbsp bank toward unit energy,

    L(bank) = (1/F) * sum_k (||K_k||^2 - 1)^2,

which is exactly zero at the STFT-equivalent starting point and invariant
under the per-row phases, so its f_c gradient vanishes identically.

``bank.envelope_terms`` evaluates the envelope ``sinc(f_b t / m) ** m`` once:
the envelope, its per-tap log-derivatives in (m, f_b) and its sinc arguments
u. This module keeps the chain rule, dK = K * dlog on the entries of
``bank.kernel_entries``, the exclusion rule, the oracle and the gradcheck
report. At m = 0 the envelope's log-derivatives are 0 by convention, so
d_m = 0, the loss's limiting one-sided derivative at the unit-energy minimum
(away from it a one-sided difference with step h grows like log h). At
fractional m the complex log diverges where u sits on a sinc zero: both
gradients raise ``SingularGradientError`` within 1e-6 of one of their own u,
and the trainer takes no step where ``loss_gradient`` raises.
``finite_difference_oracle``, central differences through separate
code, is the ground truth every analytic path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from fbsplab.bank import (FbspParams, KernelBank, centered_taps, dft_grid, envelope_terms,
                          fbsp_envelope, fbsp_kernel, kernel_entries, sinc_argument)
from fbsplab.signals import frozen_field

__all__ = [
    "ParamGradient",
    "SingularGradientError",
    "SINC_ZONE_RADIUS",
    "MAX_DRAW_ATTEMPTS",
    "DRAW_MARGIN",
    "MAX_CHECK_N_FFT",
    "MAX_CHECK_ENERGY",
    "MAX_FB_SPACING",
    "CHECK_REL_TOL",
    "CHECK_ABS_TOL",
    "fbsp_loss",
    "loss_gradient",
    "kernel_jacobian_vector",
    "energy_pairing",
    "finite_difference_oracle",
    "sinc_zone_clearance",
    "admissible_draw",
    "gradient_check_report",
]

SINC_ZONE_RADIUS = 1e-6

# Rejection attempts ``admissible_draw`` makes before giving up. Acceptance
# falls steeply with n_fft (about 11% at 64, 0.6% at 256, 0.02% at 1024, none
# seen at 4096); this cap sits far above what any n_fft up to 1024 needs
# while ending a hopeless search in seconds.
MAX_DRAW_ATTEMPTS = 100_000
# Least clearance from envelope zeros, in sinc-argument units, of a draw
# ``admissible_draw`` admits.
DRAW_MARGIN = 1e-2
# Largest n_fft ``gradient_check_report`` differences. The oracle rebuilds the
# whole (F, N) bank for every f_c probe, so a pass costs O(F^2 N): 0.2 s at
# n_fft 128, 1.3 s at 256, 8.8 s at 512 and 67 s at 1024 (the whole command)
# on a 2-core x86-64 VM, about 7x per doubling.
MAX_CHECK_N_FFT = 1024
# Largest row energy g = f_b mean|env|^2 of a checked point. The loss sums
# (g - 1)^2 over up to 513 rows (n_fft 1024), under 2**1009 at this bound,
# which keeps the oracle's sums and quotients 2**15 below float overflow.
MAX_CHECK_ENERGY = 2.0 ** 500


class SingularGradientError(ValueError):
    """Raised when a gradient is requested inside a sinc-zero exclusion zone."""


@dataclass(frozen=True)
class ParamGradient:
    """Gradient with respect to (m, f_b, f_c[0..F-1])."""

    d_m: float
    d_fb: float
    d_fc: np.ndarray

    def __post_init__(self) -> None:
        d_fc = frozen_field(self, "d_fc")
        if d_fc.ndim != 1:
            raise ValueError("d_fc must be 1-D")
        if not (math.isfinite(self.d_m) and math.isfinite(self.d_fb)
                and np.all(np.isfinite(d_fc))):
            raise ValueError("gradient contains non-finite components")
        object.__setattr__(self, "d_m", float(self.d_m))
        object.__setattr__(self, "d_fb", float(self.d_fb))


def fbsp_loss(bank: KernelBank) -> float:
    """Mean squared deviation of row energies from 1."""
    norms = np.sum(np.abs(bank.weights) ** 2, axis=1)
    return float(np.mean((norms - 1.0) ** 2))


# ---------------------------------------------------------------------------
# envelope derivative machinery
# ---------------------------------------------------------------------------


def _zone_clearance(u: np.ndarray) -> float:
    """Distance of sinc arguments u from the nearest nonzero integer (a zero);
    u near 0 is the smooth sinc center."""
    nearest = np.round(u)
    return float(np.min(np.where(nearest == 0.0, math.inf, np.abs(u - nearest))))


def sinc_zone_clearance(m: float, f_b: float, n_fft: int) -> float:
    """Distance (in sinc-argument units) from the nearest envelope zero.

    Returns +inf at m = 0, where no tap has a finite sinc argument.
    """
    if m == 0.0:
        return math.inf
    return _zone_clearance(sinc_argument(m, f_b, centered_taps(n_fft)))


def _kernel_terms(params: FbspParams, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The envelope on ``taps`` and the per-tap derivatives of log K_k[n] in
    (m, f_b), shape (2, N): the envelope's, plus the sqrt(f_b) prefactor's
    1 / (2 f_b). Every row shares them (f_c only rotates phases), so
    dK = K * dlog. The exclusion rule is applied to the same evaluation's u."""
    env, dlog, u = envelope_terms(params.m, params.f_b, taps)
    clearance = math.inf if params.m.is_integer() else _zone_clearance(u)
    if clearance < SINC_ZONE_RADIUS:
        raise SingularGradientError(
            f"gradient at m={params.m}, f_b={params.f_b} sits {clearance:.3g} sinc-argument "
            f"units from an envelope zero (exclusion radius {SINC_ZONE_RADIUS:g}); "
            "the complex log diverges there"
        )
    dlog[1] += 1.0 / (2.0 * params.f_b)
    return env, dlog


def loss_gradient(params: FbspParams, n_fft: int) -> ParamGradient:
    """Analytic gradient of fbsp_loss(fbsp_kernel(params, n_fft)).

    Every row has the energy g = f_b mean|env|^2, so the loss is (g - 1)^2
    and d_fc is exactly zero.
    """
    env, dlog = _kernel_terms(params, centered_taps(n_fft))
    power = np.abs(env) ** 2
    g = params.f_b * float(np.mean(power))
    # d|K|^2 = 2 |K|^2 Re dlog
    d_m, d_fb = 2.0 * (g - 1.0) * (2.0 * params.f_b * np.mean(power * dlog.real, axis=1))
    return ParamGradient(d_m=d_m, d_fb=d_fb, d_fc=np.zeros(params.num_filters))


def kernel_jacobian_vector(
    params: FbspParams,
    n_fft: int,
    cotangent: np.ndarray,
) -> ParamGradient:
    """Pull a bank-space cotangent back to parameter space.

    Returns the derivative of the pairing scalar

        phi(theta) = 2 * Re sum_{k,n} cotangent[k][n] * K_k[n](theta)

    with respect to each parameter, so composing with an outer objective's
    complex cotangent gives the chain rule through the bank. With
    cotangent = conj(K)/... the self-pairing recovers energy derivatives:
    ``energy_pairing(conj(K), bank)`` equals ``sum_k ||K_k||^2`` and this
    function with that cotangent returns its exact parameter gradient.
    """
    cot = np.asarray(cotangent, dtype=np.complex128)
    count = params.num_filters
    if cot.shape != (count, n_fft):
        raise ValueError(
            f"cotangent shape {cot.shape} does not match bank shape {(count, n_fft)}"
        )
    taps = centered_taps(n_fft)
    env, dlog = _kernel_terms(params, taps)
    # dK = K * dlog: m and f_b scale every tap of every row alike, f_c[k]
    # multiplies row k by 2 pi i t
    paired = cot * kernel_entries(params, env, taps)
    d_m, d_fb = 2.0 * np.real(dlog @ paired.sum(axis=0))
    return ParamGradient(d_m=d_m, d_fb=d_fb, d_fc=2.0 * np.real(paired @ (2j * np.pi * taps)))


def energy_pairing(cotangent: np.ndarray, bank: KernelBank) -> float:
    """The pairing scalar 2 * Re sum(cotangent * weights).

    This is the function whose parameter derivative
    ``kernel_jacobian_vector`` computes; tests difference it directly.
    """
    return 2.0 * float(np.real(np.sum(np.asarray(cotangent) * bank.weights)))


def finite_difference_oracle(
    scalar_fn: Callable[[FbspParams], float],
    params: FbspParams,
    step: float = 1e-6,
) -> ParamGradient:
    """Difference-quotient gradient of a scalar function of the parameters.

    Ground truth for the analytic paths; shares no code with them. Uses
    central differences, falling back to a second-order one-sided stencil
    when a probe is not a valid ``FbspParams`` (f_c entries at 0 or 0.5, or
    m within one step of 0), so accuracy stays O(step^2) throughout. A
    ValueError that ``scalar_fn`` raises at a valid probe propagates.
    """
    if not step > 0:  # NaN included
        raise ValueError(f"step must be positive, got {step}")

    def derivative(shift: Callable[[float], FbspParams]) -> float:
        try:
            lo, hi = shift(-step), shift(step)
        except ValueError:
            pass
        else:
            return (scalar_fn(hi) - scalar_fn(lo)) / (2.0 * step)
        base = scalar_fn(params)
        try:
            p1, p2 = shift(step), shift(2.0 * step)
        except ValueError:
            p1, p2 = shift(-step), shift(-2.0 * step)
            return (3.0 * base - 4.0 * scalar_fn(p1) + scalar_fn(p2)) / (2.0 * step)
        return (-3.0 * base + 4.0 * scalar_fn(p1) - scalar_fn(p2)) / (2.0 * step)

    def shift_fc(k: int) -> Callable[[float], FbspParams]:
        def shift(delta: float) -> FbspParams:
            moved = params.f_c.copy()
            moved[k] += delta
            return replace(params, f_c=moved)
        return shift

    d_m = derivative(lambda d: replace(params, m=params.m + d))
    d_fb = derivative(lambda d: replace(params, f_b=params.f_b + d))
    d_fc = np.array([derivative(shift_fc(k)) for k in range(params.num_filters)])
    return ParamGradient(d_m=d_m, d_fb=d_fb, d_fc=d_fc)


# ---------------------------------------------------------------------------
# randomized draw admission and the gradcheck report
# ---------------------------------------------------------------------------


def admissible_draw(
    rng: np.random.Generator,
    n_fft: int,
    step: float = 1e-6,
) -> FbspParams:
    """Draw m uniformly from [0, 4) and f_b from [0.25, 4), rejecting draws a
    difference quotient cannot resolve.

    Two conditions gate admission. The clearance from envelope zeros must be
    at least ``DRAW_MARGIN`` in sinc-argument units, since the objective's
    higher derivatives blow up against the zeros. And the probe points
    m +- 2 step, f_b +- 2 step may sweep each tap's sinc argument by at most a
    thousandth of that clearance, which caps the quadratic truncation error
    near 1e-6 relative; this rejects small m outright, where perturbing m
    slides taps across whole zero spacings. f_c is the DFT grid. After
    ``MAX_DRAW_ATTEMPTS`` rejections it raises ``SingularGradientError``.
    """
    grid = dft_grid(n_fft)
    t_max = (n_fft - 1) / 2.0
    for _ in range(MAX_DRAW_ATTEMPTS):
        m = rng.uniform(0.0, 4.0)
        f_b = rng.uniform(0.25, 4.0)
        if m <= 2.0 * step:
            continue
        clearance = sinc_zone_clearance(m, f_b, n_fft)
        if clearance < DRAW_MARGIN:
            continue
        u_max = f_b * t_max / m
        probe_sweep = 2.0 * step * u_max * max(1.0 / m, 1.0 / f_b)
        if probe_sweep > 1e-3 * clearance:
            continue
        return FbspParams(m=m, f_b=f_b, f_c=grid)
    raise SingularGradientError(
        f"no admissible (m, f_b) draw for n_fft {n_fft} "
        f"in {MAX_DRAW_ATTEMPTS} attempts")


# Relative tolerance of the report's checks.
CHECK_REL_TOL = 1e-5
# Largest float spacing of a checked point's f_b, in steps. f_b +- step rounds to a multiple
# of that spacing, and the loss's f_b quotient then missed by up to 3.9 ulp(f_b) / step (m = 0,
# n_fft 16 and 64, f_b from 2**10 to 2**19 at step 1e-6), so this keeps it below CHECK_REL_TOL.
MAX_FB_SPACING = 2e-6
# Absolute accuracy the oracle promises at its default step: its rounding
# error, about eps |f| / step, reached 5e-10 on the pairing scalar's d_m.
CHECK_ABS_TOL = 1e-8


def _compare(analytic: float, numeric: float,
             rel_tol: float = CHECK_REL_TOL, abs_tol: float = CHECK_ABS_TOL) -> tuple[float, bool]:
    err = abs(analytic - numeric)
    if err < abs_tol:
        return err, True
    rel = err / max(abs(analytic), abs(numeric))
    return rel, rel < rel_tol


def gradient_check_report(
    n_fft: int = 64,
    seed: int = 0,
    draws: int = 5,
    point: tuple[float, float] = (1.7, 0.9),
    step: float = 1e-6,
) -> dict:
    """Run the standard gradient checks and return a JSON-ready report.

    Each entry records {param, analytic, numeric, rel_error, status}; it
    passes when the two differ by less than ``CHECK_ABS_TOL`` or, relatively,
    by less than ``CHECK_REL_TOL`` (1e-8 for f_c's exact zero). The
    suite covers the loss gradient at a fixed point and at random admitted
    draws (m and f_b against central differences, f_c against exact zero),
    plus the cotangent pullback against differences of the pairing scalar.
    At a ``point`` with m = 0 the report leaves out ``point.m`` and
    ``pullback.m`` and names them in ``skipped`` (empty otherwise): ``d_m`` there
    is the convention 0, while the one-sided quotient from m = 0 has no finite
    limit off the unit-energy minimum; its f_b and f_c checks, and every draw's,
    stay. Raises ValueError, before any draw, for a negative ``draws``; an n_fft
    above ``MAX_CHECK_N_FFT``; a ``step`` that is not finite, positive and
    below 1/(2 n_fft), at which a one-sided stencil from f_c[0] = 0 would
    reach f_c[1]; a ``point`` whose f_b the step cannot resolve or whose row
    energy exceeds ``MAX_CHECK_ENERGY``; a point at m = 0 whose one-sided
    m-probe at m = step puts the sinc argument above 2**52; and an f_b whose
    float spacing exceeds ``MAX_FB_SPACING`` steps.
    """
    if draws < 0:
        raise ValueError(f"draws must be non-negative, got {draws}")
    if n_fft > MAX_CHECK_N_FFT:
        raise ValueError(f"a gradient check needs n_fft at most {MAX_CHECK_N_FFT}, "
                         f"got n_fft {n_fft}")
    grid = dft_grid(n_fft)  # refuses an n_fft below 2
    if not 0.0 < step < 0.5 / n_fft:  # NaN included
        raise ValueError(f"step must be positive and below 1/(2 n_fft) = {0.5 / n_fft} "
                         f"at n_fft {n_fft}, got {step}")

    def loss_of(p: FbspParams) -> float:
        return fbsp_loss(fbsp_kernel(p, n_fft))

    checks: list[dict] = []

    def record(param: str, analytic: float, numeric: float, rel_tol: float = CHECK_REL_TOL) -> None:
        if param in skipped:
            return
        err, ok = _compare(analytic, numeric, rel_tol)
        checks.append({
            "param": param,
            "analytic": float(analytic),
            "numeric": float(numeric),
            "rel_error": float(err),
            "status": "pass" if ok else "fail",
        })

    fixed = FbspParams(m=point[0], f_b=point[1], f_c=grid)
    # the sqrt(f_b) prefactor's central difference misses by (step/f_b)^2/8 relative
    resolvable = fixed.f_b * math.sqrt(8.0 * CHECK_REL_TOL)
    if not step < resolvable:
        raise ValueError(f"step {step} cannot resolve f_b {fixed.f_b}: a central difference "
                         f"needs a step below f_b sqrt(8 * {CHECK_REL_TOL:g}) = {resolvable:.4g}")
    env = fbsp_envelope(fixed.m, fixed.f_b, centered_taps(n_fft))
    energy = fixed.f_b * float(np.mean(np.abs(env) ** 2))
    if not energy <= MAX_CHECK_ENERGY:
        raise ValueError(f"f_b {fixed.f_b} gives every row the energy g = f_b mean|env|^2 = "
                         f"{energy:.4g} at m={fixed.m}, above 2**500: the loss (g - 1)^2 "
                         "and its differences would overflow")
    if fixed.m == 0.0:
        try:
            sinc_argument(step, fixed.f_b, centered_taps(n_fft))
        except ValueError as err:
            raise ValueError(f"the point m=0, f_b={fixed.f_b} cannot be differenced in m: its "
                             f"one-sided m-probe at m = step = {step} exceeds 2**52: {err}"
                             ) from None
    if math.ulp(fixed.f_b) > MAX_FB_SPACING * step:
        raise ValueError(f"step {step} cannot resolve f_b {fixed.f_b} from above: its float "
                         f"spacing {math.ulp(fixed.f_b):.4g} exceeds {MAX_FB_SPACING:g} x step "
                         f"= {MAX_FB_SPACING * step:.4g}")
    # d_m at m = 0 is the convention 0, which the one-sided quotient does not approach
    skipped = ["point.m", "pullback.m"] if fixed.m == 0.0 else []
    rng = np.random.default_rng(seed)
    points = [fixed] + [admissible_draw(rng, n_fft, step=step) for _ in range(draws)]

    for i, params in enumerate(points):
        tag = "point" if i == 0 else f"draw{i - 1}"
        analytic = loss_gradient(params, n_fft)
        numeric = finite_difference_oracle(loss_of, params, step=step)
        record(f"{tag}.m", analytic.d_m, numeric.d_m)
        record(f"{tag}.f_b", analytic.d_fb, numeric.d_fb)
        worst = int(np.argmax(np.abs(numeric.d_fc)))
        exact_zero = float(np.max(np.abs(analytic.d_fc)))
        record(f"{tag}.f_c[{worst}]", exact_zero, numeric.d_fc[worst], rel_tol=1e-8)

    # cotangent pullback against differences of the pairing scalar
    params = points[0]
    cot = (rng.standard_normal((params.num_filters, n_fft))
           + 1j * rng.standard_normal((params.num_filters, n_fft)))

    def paired(p: FbspParams) -> float:
        return energy_pairing(cot, fbsp_kernel(p, n_fft))

    analytic = kernel_jacobian_vector(params, n_fft, cot)
    numeric = finite_difference_oracle(paired, params, step=step)
    record("pullback.m", analytic.d_m, numeric.d_m)
    record("pullback.f_b", analytic.d_fb, numeric.d_fb)
    worst = int(np.argmax(np.abs(analytic.d_fc)))
    record(f"pullback.f_c[{worst}]", analytic.d_fc[worst], numeric.d_fc[worst])

    failed = [c["param"] for c in checks if c["status"] != "pass"]
    return {
        "n_fft": n_fft,
        "seed": seed,
        "step": step,
        "checks": checks,
        "skipped": skipped,
        "status": "fail" if failed else "pass",
        "failed": failed,
    }
