import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import fft

import bellsub as bs
from bellsub import mollify as mo
from bellsub.errors import ConfigError, InvalidInputError
from oracles import (interpolator_composite_one_leg_margins, uncropped_bump_kernel,
                     valid_convolution)

CFG = bs.BellmanConfig(Q=16.0)


@pytest.fixture(scope="module")
def moll():
    spec = mo.default_grid_spec(CFG, cells=8)
    return mo.mollify_h4(CFG.ell, spec)


def test_kernel_normalization():
    kernel = mo.bump_kernel(CFG.ell, mo.default_grid_spec(CFG, cells=8).spacing)[0]
    assert abs(kernel.sum() - 1.0) <= 1e-8
    assert (kernel >= 0.0).all()


def test_too_coarse_grid_rejected():
    spec = mo.GridSpec(lo=(0.4, 0.4, 1.1, 1.1, 0.2), hi=(0.5, 0.5, 1.2, 1.2, 0.3),
                       spacing=CFG.ell / 2.0)
    with pytest.raises(ConfigError):
        mo.mollify_h4(CFG.ell, spec)
    # `spacing <= ell/4 + 1e-15` passed spacing = 10 ell at a tiny radius: the
    # kernel had radius 0, and the 11^5 grid held H4 itself, never mollified
    lo = (0.45, 0.45, 1.15, 1.15, 0.5)
    spec = mo.GridSpec(lo=lo, hi=tuple(v + 1e-14 for v in lo), spacing=1e-15)
    with pytest.raises(ConfigError, match="too coarse"):
        mo.mollify_h4(1e-16, spec)


@pytest.mark.parametrize("field,index,bad", [
    ("lo", 0, np.nan), ("lo", 2, -np.inf), ("hi", 4, np.nan), ("hi", 0, np.inf),
    ("spacing", None, np.nan), ("spacing", None, np.inf)])
def test_grid_spec_refuses_non_finite_entries(field, index, bad):
    # these ended in numpy's bare ValueError while the grid was built
    spec = dataclasses.asdict(mo.default_grid_spec(CFG, cells=2))
    if index is None:
        spec[field] = bad
    else:
        spec[field] = spec[field][:index] + (bad,) + spec[field][index + 1:]
    with pytest.raises(InvalidInputError, match="non-finite grid"):
        mo.GridSpec(**spec)


@pytest.mark.parametrize("ell", (np.nan, np.inf))
def test_mollify_refuses_a_non_finite_radius(ell):
    with pytest.raises(InvalidInputError, match="non-finite mollification radius"):
        mo.mollify_h4(ell, mo.default_grid_spec(CFG, cells=2))


def test_padded_box_must_respect_h4_domain():
    # K axis too large: padded corner hits K^2 >= rs
    spec = mo.GridSpec(lo=(0.4, 0.4, 1.0, 1.0, 0.9), hi=(0.5, 0.5, 1.1, 1.1, 1.05),
                       spacing=CFG.ell / 4.0)
    with pytest.raises(ConfigError):
        mo.mollify_h4(CFG.ell, spec)
    # x axis touching zero after padding
    spec = mo.GridSpec(lo=(0.03, 0.4, 1.1, 1.1, 0.2), hi=(0.1, 0.5, 1.2, 1.2, 0.3),
                       spacing=CFG.ell / 4.0)
    with pytest.raises(ConfigError):
        mo.mollify_h4(CFG.ell, spec)


def test_deviation_bounded_by_ell(moll):
    dev_all, dev_far = moll.deviation_from_raw()
    # far from cuts the kink plays no role; C frozen from the measured 0.011
    assert dev_far <= 0.05 * moll.ell
    assert dev_all <= 0.5 * moll.ell


def test_pointwise_convergence_as_ell_shrinks():
    devs = []
    for ell in (0.05, 0.025, 0.0125):
        spec = mo.default_grid_spec(dataclasses.replace(CFG, ell=ell), cells=8)
        m = mo.mollify_h4(ell, spec)
        mid = tuple(len(ax) // 2 for ax in m.axes)
        raw = mo.h4_raw(*(ax[i] for ax, i in zip(m.axes, mid)))
        devs.append(abs(float(m.values[mid]) - float(raw)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05 * 0.0125


def test_second_differences_nonnegative(moll):
    # joint convexity of H4 in the five real variables survives averaging
    assert moll.second_difference_min() >= -1e-9


def test_monotone_in_k(moll):
    # -d/dK H4 >= 0: mollified grid nonincreasing along the K axis
    dk = np.diff(moll.values, axis=4)
    assert dk.max() <= 1e-12


def test_composite_one_leg_at_weakened_constant(moll):
    margins = mo.composite_one_leg_margins(moll, CFG, n_pairs=300, seed=5)
    assert len(margins) >= 100
    assert margins.min() >= -1e-6


@pytest.mark.parametrize("seed,least", [(18, 0.0981), (36, 0.269)])
def test_coincident_pair_does_not_mask_least_margin(moll, seed, least):
    # at these seeds one of the 200 pairs lands twice on one grid node; its
    # margin is 0 identically and would hide the least real margin
    margins = mo.composite_one_leg_margins(moll, CFG, seed=seed)
    assert len(margins) == 199
    assert margins.min() == pytest.approx(least, abs=5e-4)


@functools.lru_cache(maxsize=None)
def _default_grid(Q):
    cfg = bs.BellmanConfig(Q=Q)
    return cfg, mo.mollify_h4(cfg.ell, mo.default_grid_spec(cfg, cells=8))


@pytest.mark.parametrize("n_pairs", [200, 300])
@pytest.mark.parametrize("Q", [1.5, 2.0, 16.0, 256.0])
def test_composite_equals_interpolator_path_bit_for_bit(Q, n_pairs):
    # K is the only coordinate off the nodes; seeds 18 and 36 draw a
    # coincident pair at Q = 16, n_pairs = 200
    cfg, moll = _default_grid(Q)
    for seed in (0, 5, 7, 18, 36, 101):
        got = mo.composite_one_leg_margins(moll, cfg, n_pairs=n_pairs, seed=seed)
        want = interpolator_composite_one_leg_margins(moll, cfg, n_pairs=n_pairs, seed=seed)
        assert len(got) >= n_pairs // 3 and np.array_equal(got, want), (seed, len(got))


def test_h4_raw_domain_guard():
    with pytest.raises(Exception):
        mo.h4_raw(1.0, 1.0, 0.5, 0.5, 1.0)   # K^2 >= rs


def _branch_cut_spec():
    h = CFG.ell / 4.0
    # center the x axis on the cut x = y K / s for y=0.45, s=1.15, K=0.28
    y0, s0, k0 = 0.45, 1.15, 0.28
    x0 = y0 * k0 / s0          # ~0.1096
    half = 4 * h
    return mo.GridSpec(lo=(x0 - half, y0 - half, 1.1, s0 - half, k0 - half),
                       hi=(x0 + half, y0 + half, 1.1 + 2 * half, s0 + half, k0 + half),
                       spacing=h)


def test_mollification_across_a_branch_cut():
    """A box straddling the |x|s = |y|K cut: convexity of the mollified grid
    survives (second differences stay nonnegative) and the deviation from the
    raw function is O(ell) even through the kink."""
    ell = CFG.ell
    moll = mo.mollify_h4(ell, _branch_cut_spec())
    dist = moll.cut_distance()
    assert dist.min() < ell / 4          # the box really touches the cut
    dev_all, dev_far = moll.deviation_from_raw()
    assert dev_all <= 0.5 * ell          # Lipschitz bound holds through the kink
    assert moll.second_difference_min() >= -1e-9


def test_default_grid_builds_at_q256():
    # K(rs) is small at Q = 256; the K axis must start a kernel radius above 0
    cfg = bs.BellmanConfig(Q=256.0)
    spec = mo.default_grid_spec(cfg, cells=8)
    moll = mo.mollify_h4(cfg.ell, spec)
    margins = mo.composite_one_leg_margins(moll, cfg, n_pairs=300, seed=5)
    assert len(margins) >= 100
    assert margins.min() >= -1e-6
    assert np.diff(moll.values, axis=4).max() <= 1e-12


@pytest.mark.parametrize("Q", [852.0, 853.0])
def test_composite_refuses_k_off_the_axis_from_q853(Q):
    # the K axis's lower clamp, the kernel radius m h, lies above K(rs) from
    # Q = 853 on; the check refuses the grid instead of extrapolating past its end
    cfg = bs.BellmanConfig(Q=Q)
    moll = mo.mollify_h4(cfg.ell, mo.default_grid_spec(cfg, cells=8))
    for seed in (0, 1):
        if Q < 853.0:
            assert mo.composite_one_leg_margins(moll, cfg, seed=seed).min() >= -1e-6
        else:
            with pytest.raises(ConfigError, match=r"K\(rs\) leaves the grid's K axis"):
                mo.composite_one_leg_margins(moll, cfg, seed=seed)


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0, None],
                         ids=["Q2", "Q16", "Q256", "branch_cut"])
def test_circular_convolution_matches_linear_oracle(Q):
    # the oracle is the uncropped kernel on its own floor(ell/h)-padded box
    spec = (_branch_cut_spec() if Q is None
            else mo.default_grid_spec(bs.BellmanConfig(Q=Q), cells=8))
    moll = mo.mollify_h4(CFG.ell, spec)
    kernel, m = uncropped_bump_kernel(CFG.ell, spec.spacing)
    padded = np.meshgrid(*spec.axes(pad_cells=m), indexing="ij", sparse=True)
    expect = valid_convolution(mo.h4_raw(*padded), kernel)
    np.testing.assert_allclose(moll.values, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("ell,h,m", [(0.05, 0.0125, 3), (0.025, 0.00625, 3),
                                     (0.0125, 0.003125, 3), (0.05, 0.012, 4),
                                     (0.05, 0.05 / 5, 4)])
def test_bump_kernel_crops_its_zero_faces(ell, h, m):
    kernel, got_m = mo.bump_kernel(ell, h)
    assert got_m == m and kernel.shape == (2 * m + 1,) * 5
    for axis in range(5):
        assert kernel.take(0, axis=axis).any() and kernel.take(-1, axis=axis).any()
    full, n = uncropped_bump_kernel(ell, h)
    centre = (slice(n - m, n + m + 1),) * 5
    assert np.array_equal(kernel, full[centre])
    rest = full.copy()
    rest[centre] = 0.0
    assert not rest.any()
    assert abs(kernel.sum() - full.sum()) <= 1e-15


def test_padding_by_weighted_taps_only():
    # padded by the uncropped 4 cells, x would reach -0.01; the taps 4 cells
    # out weigh 0, so the box builds on the 3 cells that carry weight
    spec = mo.GridSpec(lo=(0.04, 0.4, 1.1, 1.1, 0.2), hi=(0.1, 0.5, 1.2, 1.2, 0.3),
                       spacing=0.0125)
    moll = mo.mollify_h4(CFG.ell, spec)
    assert moll.values.shape == (6, 9, 9, 9, 9)
    kernel, m = mo.bump_kernel(CFG.ell, spec.spacing)
    padded = np.meshgrid(*spec.axes(pad_cells=m), indexing="ij", sparse=True)
    expect = valid_convolution(mo.h4_raw(*padded), kernel)
    np.testing.assert_allclose(moll.values, expect, rtol=1e-13, atol=0.0)


def test_import_leaves_scipy_signal_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bs.__file__)))
    code = "import sys, bellsub; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_default_grid_spec_refuses_odd_cells():
    for cells in (7, 3):
        with pytest.raises(ConfigError):
            mo.default_grid_spec(CFG, cells=cells)
    assert mo.default_grid_spec(CFG, cells=8) == mo.GridSpec(
        lo=(0.4, 0.4, 1.0999999999999999, 1.0999999999999999, 0.1875),
        hi=(0.5, 0.5, 1.2, 1.2, 0.375), spacing=0.0125)


def _padded_box(Q):
    """(spec, padded axes, their lengths n) of the default grid."""
    cfg = bs.BellmanConfig(Q=Q)
    spec = mo.default_grid_spec(cfg, cells=8)
    axes = spec.axes(pad_cells=mo.bump_kernel(cfg.ell, spec.spacing)[1])
    return spec, axes, tuple(len(a) for a in axes)


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0])
def test_default_padded_box_is_15_wide(Q):
    assert _padded_box(Q)[2][:4] == (15, 15, 15, 15)


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0])
def test_slab_samples_equal_broadcast_h4(Q):
    _, axes, n = _padded_box(Q)
    got = np.stack(list(mo._h4_slabs(axes)))
    want = mo.h4_raw(*np.meshgrid(*axes, indexing="ij", sparse=True))
    assert got.shape == n and np.array_equal(got, want)


@pytest.mark.parametrize("n", [_padded_box(q)[2] for q in (2.0, 16.0, 256.0)]
                         + [(17, 19, 17, 21, 25)], ids=["Q2", "Q16", "Q256", "odd"])
def test_real_kernel_spectrum_matches_rfftn(n):
    kernel, m = mo.bump_kernel(CFG.ell, CFG.ell / 4.0)
    padded = np.pad(kernel, [(0, k - len(kernel)) for k in n])
    want = fft.rfftn(np.roll(padded, -m, axis=tuple(range(5))))
    got = np.stack(list(mo._kernel_spectrum(kernel, m, n)))
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(got - want.real).max() <= 1e-15 * kernel.sum()
    assert np.abs(want.imag).max() <= 1e-15


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0, None],
                         ids=["Q2", "Q16", "Q256", "branch_cut"])
def test_pruned_pipeline_matches_three_transform_oracle(Q):
    # the oracle is the circular convolution by three numpy transforms on the
    # padded box's own lengths n, with no fast-length padding: the 2m + 1 taps
    # wrap into entries 0 .. 2m-1 only, so entries 2m .. n-1 are exact
    spec = (_branch_cut_spec() if Q is None
            else mo.default_grid_spec(bs.BellmanConfig(Q=Q), cells=8))
    moll = mo.mollify_h4(CFG.ell, spec)
    kernel, m = mo.bump_kernel(CFG.ell, spec.spacing)
    padded = np.meshgrid(*spec.axes(pad_cells=m), indexing="ij", sparse=True)
    values = mo.h4_raw(*padded)
    n, axes = values.shape, range(values.ndim)
    spectrum = np.fft.rfftn(values) * np.fft.rfftn(kernel, n, axes)
    circular = np.fft.irfftn(spectrum, n, axes)
    expect = circular[tuple(slice(2 * m, k) for k in n)]
    assert np.abs(moll.values - expect).max() <= 1e-14 * np.abs(expect).max()


def test_mollify_peak_memory_is_one_half_spectrum_and_slabs():
    # the complex half-spectrum of the padded box n and a dozen arrays of one
    # x-slab of samples: h4_value holds about 8.4 at its peak, and the kernel
    # spectrum is never whole.  The layout with a real buffer and two complex
    # half-spectra of the fast lengths L >= n needed 8 prod(L) + 32 prod(L[:-1])
    # (L[-1] // 2 + 1), 1.8 times this bound at Q = 2
    spec, _, n = _padded_box(2.0)
    bound = 16 * np.prod(n[:-1]) * (n[-1] // 2 + 1) + 12 * 8 * np.prod(n[1:])
    tracemalloc.start()
    try:
        mo.mollify_h4(bs.BellmanConfig(Q=2.0).ell, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def _refused_unbuilt(build):
    """The ConfigError message of build(), which must refuse before it
    allocates more than a little bookkeeping: far below any array of nodes."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceeds MAX_NODES") as err:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 1024
    return str(err.value)


@pytest.mark.parametrize("spacing", [1e-300, CFG.ell / 40.0, CFG.ell / 14.0])
def test_oversize_kernel_box_is_refused_unbuilt(spacing):
    # 1e-300 ended in numpy's bare "Maximum allowed size exceeded"; ell/40
    # asked for 81^5 taps, about 28 GB; ell/14 is the first past 2^24 taps
    box = mo.default_grid_spec(CFG, cells=2)
    spec = mo.GridSpec(lo=box.lo, hi=box.hi, spacing=spacing)
    assert "padded grid" in _refused_unbuilt(lambda: mo.mollify_h4(CFG.ell, spec))
    assert "kernel box" in _refused_unbuilt(lambda: mo.bump_kernel(CFG.ell, spacing))


@pytest.mark.parametrize("x_hi", [50.0, 1e300])
def test_oversize_padded_grid_is_refused_unbuilt(x_hi):
    spec = mo.GridSpec(lo=(0.4, 0.4, 1.1, 1.1, 0.2), hi=(x_hi, 0.5, 1.2, 1.2, 0.3),
                       spacing=CFG.ell / 4.0)
    assert "padded grid" in _refused_unbuilt(lambda: mo.mollify_h4(CFG.ell, spec))
