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
from bellsub.bellman import domain_masks, h4_value, kn_of_t
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


def _wide_k_grid_spec(cfg, cells=8):
    """The default box as it once was: K(rs) over the (r, s) box widened by
    floor(ell/h) + 1 cells, and the K axis widened by as many again."""
    h = cfg.ell / 4.0
    half = cells // 2 * h
    lo = [0.45 - half, 0.45 - half, 1.15 - half, 1.15 - half]
    hi = [0.45 + half, 0.45 + half, 1.15 + half, 1.15 + half]
    pad = (int(np.floor(cfg.ell / h)) + 1) * h
    ts = np.array([(lo[2] - pad) * (lo[3] - pad), (hi[2] + pad) * (hi[3] + pad)])
    ks = kn_of_t(ts, cfg.Q)[0][0]
    k_lo = max(h * np.floor((ks.min() - pad) / h), mo.bump_kernel(cfg.ell, h)[1] * h)
    k_hi = h * np.ceil((ks.max() + pad) / h)
    return mo.GridSpec(lo=tuple(lo + [k_lo]), hi=tuple(hi + [k_hi]), spacing=h)


@pytest.mark.parametrize("Q", [1.3, 1.5, 2.0, 16.0, 256.0, 852.0])
def test_k_axis_keeps_every_node_the_composite_reads(Q):
    # the K axis spans K(rs) over the (r, s) box and one node on each side;
    # the wide one it replaced gives the same margins up to roundoff
    cfg, moll = _default_grid(Q)
    wide = mo.mollify_h4(cfg.ell, _wide_k_grid_spec(cfg))
    assert len(moll.axes[4]) < len(wide.axes[4])
    for n_pairs in (200, 300):
        for seed in (0, 5, 7, 18, 36, 101):
            got = mo.composite_one_leg_margins(moll, cfg, n_pairs=n_pairs, seed=seed)
            want = mo.composite_one_leg_margins(wide, cfg, n_pairs=n_pairs, seed=seed)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n_pairs, seed)
    # unless the axis starts at its floor m h (from Q = 305 on), every K(rs)
    # on a D_Q node lies between the second node and the last but one:
    # np.gradient is central at both K nodes the check reads
    h = cfg.ell / 4.0
    if moll.axes[4][0] > mo.bump_kernel(cfg.ell, h)[1] * h:
        r, s = np.meshgrid(moll.axes[2], moll.axes[3], sparse=True)
        k = kn_of_t((r * s)[domain_masks(1.0, 1.0, r, s, cfg)[0]], Q)[0][0]
        assert moll.axes[4][1] <= k.min() and k.max() <= moll.axes[4][-2]


def test_composite_refuses_a_box_without_a_pair_in_dq():
    # the default box's least rs is 1.21, past Q = 1.1; the hand-made box's
    # rs is about 9, past Q = 2.  Either ended in .min()'s bare ValueError
    cfg = bs.BellmanConfig(Q=1.1)
    boxes = [(cfg, mo.default_grid_spec(cfg, cells=8)),
             (bs.BellmanConfig(Q=2.0),
              mo.GridSpec(lo=(0.4, 0.4, 2.95, 2.95, 0.2), hi=(0.5, 0.5, 3.05, 3.05, 0.3),
                          spacing=cfg.ell / 4.0))]
    for cfg, spec in boxes:
        moll = mo.mollify_h4(cfg.ell, spec)
        with pytest.raises(ConfigError, match=r"no \(r, s\) node of the grid lies in D_Q"):
            mo.composite_one_leg_margins(moll, cfg)


def test_composite_refuses_draws_that_miss_dq():
    # at Q = 1.215 only the corner (1.1, 1.1) of the default box's 81 (r, s)
    # nodes lies in D_Q: 400 draws reach it, the 2 of n_pairs = 1 miss it
    cfg = bs.BellmanConfig(Q=1.215)
    moll = mo.mollify_h4(cfg.ell, mo.default_grid_spec(cfg, cells=8))
    assert mo.composite_one_leg_margins(moll, cfg).size
    with pytest.raises(ConfigError, match=r"fewer than two of the 2 drawn nodes \(seed 0\)"):
        mo.composite_one_leg_margins(moll, cfg, n_pairs=1, seed=0)


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


# the default boxes at Q = 1.3, 1.5 and 2, and the branch-cut box, have
# rows off R1; those at Q = 16 and 256 lie in R1
_BOX_QS = [1.3, 1.5, 2.0, 16.0, 256.0, None]
_BOX_IDS = ["Q1.3", "Q1.5", "Q2", "Q16", "Q256", "branch_cut"]


def _box(Q):
    return (_branch_cut_spec() if Q is None
            else mo.default_grid_spec(bs.BellmanConfig(Q=Q), cells=8))


@pytest.mark.parametrize("Q", _BOX_QS, ids=_BOX_IDS)
def test_circular_convolution_matches_linear_oracle(Q):
    # the oracle is the uncropped kernel on its own floor(ell/h)-padded box
    spec = _box(Q)
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
        lo=(0.4, 0.4, 1.0999999999999999, 1.0999999999999999, 0.25),
        hi=(0.5, 0.5, 1.2, 1.2, 0.3125), spacing=0.0125)


def _padded_box(Q):
    """(spec, padded axes, their lengths n) of the default grid."""
    cfg = bs.BellmanConfig(Q=Q)
    spec = mo.default_grid_spec(cfg, cells=8)
    axes = spec.axes(pad_cells=mo.bump_kernel(cfg.ell, spec.spacing)[1])
    return spec, axes, tuple(len(a) for a in axes)


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0])
def test_default_padded_box_is_15_wide(Q):
    assert _padded_box(Q)[2][:4] == (15, 15, 15, 15)


def _cut_functions(axes):
    """q1 = yr - xK and q2 = xs - yK on the padded box's sparse mesh."""
    x, y, r, s, k = np.meshgrid(*axes, indexing="ij", sparse=True)
    return y * r - x * k, x * s - y * k


@pytest.mark.parametrize("Q", [2.0, 16.0, 256.0])
def test_slab_samples_equal_broadcast_h4(Q):
    # each (x, y) row of the padded box is an (r, s, K) slab; on every slab
    # the kink is the R1 polynomial less H4 on the broadcast grid, bit for
    # bit, and exactly 0 on the R1 nodes, so a row wholly in R1 adds nothing
    _, axes, n = _padded_box(Q)
    rsk = np.meshgrid(*axes[2:], indexing="ij", sparse=True)
    p, g, rr = fields = mo._r1_fields(*rsk)
    x, y = axes[0][:, None, None, None, None], axes[1][:, None, None, None]
    h4 = mo.h4_raw(*np.meshgrid(*axes, indexing="ij", sparse=True))
    q1, q2 = _cut_functions(axes)
    want = np.where((q1 > 0.0) & (q2 > 0.0), 0.0, x * x * p - 2.0 * x * y * g + y * y * rr - h4)
    got = np.stack([[mo._kink(a, b, rsk, fields) for b in axes[1]] for a in axes[0]])
    assert got.shape == n and np.array_equal(got, want)
    assert bool(want.any()) == (Q == 2.0)


@pytest.mark.parametrize("n", [_padded_box(q)[2] for q in (2.0, 16.0, 256.0)]
                         + [(17, 19, 17, 21, 25)], ids=["Q2", "Q16", "Q256", "odd"])
def test_real_kernel_spectrum_matches_rfftn(n):
    # every (x, y) tap at (+-u, +-v) against rfftn of its (r, s, K) taps
    # centred on index 0 at the (r, s, K) lengths
    kernel, m = mo.bump_kernel(CFG.ell, CFG.ell / 4.0)
    spectra = mo._kernel_spectrum(kernel, m, n[2:])
    assert spectra.dtype == np.float64 and spectra.shape == (m + 1, m + 1) + n[2:4] + (
        n[4] // 2 + 1,)
    for a, b in np.ndindex(2 * m + 1, 2 * m + 1):
        taps = np.pad(kernel[a, b], [(0, k - 2 * m - 1) for k in n[2:]])
        want = fft.rfftn(np.roll(taps, -m, axis=(0, 1, 2)))
        got = spectra[abs(a - m), abs(b - m)]
        assert np.abs(got - want.real).max() <= 1e-15 * kernel.sum(), (a, b)
        assert np.abs(want.imag).max() <= 1e-15


@pytest.mark.parametrize("Q", [1.02] + _BOX_QS, ids=["Q1.02"] + _BOX_IDS)
def test_pruned_pipeline_matches_three_transform_oracle(Q):
    # the oracle is the circular convolution by three numpy transforms on the
    # padded box's own lengths n, with no fast-length padding: the 2m + 1 taps
    # wrap into entries 0 .. 2m-1 only, so entries 2m .. n-1 are exact.  At
    # Q = 1.02 the padded box reaches rs = K^2 up to rounding, and every row
    # is convolved as H4
    spec = _box(Q)
    moll = mo.mollify_h4(CFG.ell, spec)
    kernel, m = mo.bump_kernel(CFG.ell, spec.spacing)
    padded = np.meshgrid(*spec.axes(pad_cells=m), indexing="ij", sparse=True)
    values = mo.h4_raw(*padded)
    n, axes = values.shape, range(values.ndim)
    spectrum = np.fft.rfftn(values) * np.fft.rfftn(kernel, n, axes)
    circular = np.fft.irfftn(spectrum, n, axes)
    expect = circular[tuple(slice(2 * m, k) for k in n)]
    assert np.abs(moll.values - expect).max() <= 1e-14 * np.abs(expect).max()


def _rows_off_r1(axes):
    """How many (x, y) rows of the padded box have a node off R1, read off
    the cut functions at every node."""
    q1, q2 = _cut_functions(axes)
    return int(((q1 <= 0.0) | (q2 <= 0.0)).any(axis=(2, 3, 4)).sum())


def test_mollify_peak_memory_is_bounded_by_the_rows_off_r1():
    # the output and one 5-D temporary, the (m + 1)^2 tap spectra, real and
    # complex, one complex half-spectrum per row off R1, and a dozen arrays of
    # one row: h4_value holds about 8.4 at its peak.  The FFT path that read
    # the whole box held its complex half-spectrum, 6.5 MB, and peaked at
    # 10.6 MB
    spec, axes, n = _padded_box(2.0)
    half = np.prod(n[2:4]) * (n[4] // 2 + 1)
    out = np.prod([len(a) for a in spec.axes()])
    bound = (2 * 8 * out + (8 + 16) * 16 * half + 16 * _rows_off_r1(axes) * half
             + 12 * 8 * np.prod(n[2:]))
    tracemalloc.start()
    try:
        mo.mollify_h4(bs.BellmanConfig(Q=2.0).ell, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound <= 3e6


def test_moment_path_peak_memory_is_below_one_padded_box():
    # the 3-D correlations and the output: never a 5-D array of the padded
    # box
    spec, _, n = _padded_box(16.0)
    tracemalloc.start()
    try:
        mo.mollify_h4(bs.BellmanConfig(Q=16.0).ell, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * np.prod(n)


def _sampled_nodes(ell, spec):
    """How many nodes mollify_h4 samples h4_value on for spec's box."""
    nodes = []

    def count(*args):
        out = h4_value(*args)
        nodes.append(out.size)
        return out
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mo, "h4_value", count)
        mo.mollify_h4(ell, spec)
    return sum(nodes)


@pytest.mark.parametrize("Q,off,rows", [(1.02, 210, 225), (1.3, 142, 142), (1.5, 92, 92),
                                        (2.0, 30, 30), (4.0, 0, 0), (16.0, 0, 0), (256.0, 0, 0),
                                        (852.0, 0, 0), (None, 168, 168)],
                         ids=["Q1.02", "Q1.3", "Q1.5", "Q2", "Q4", "Q16", "Q256", "Q852",
                              "branch_cut"])
def test_h4_is_sampled_on_the_rows_off_r1_only(Q, off, rows):
    # a box in R1 samples H4 on no node; any other samples exactly its `off`
    # rows off R1, each whole: at Q = 2, 30 x 15 * 15 * 14 = 94,500 nodes,
    # where the FFT path sampled all 708,750.  The Q = 2 box's padded K axis
    # runs past K(rs): q1, q2 reach -0.0516.  At Q = 1.02, within R1_ROOM of
    # rs = K^2, every row is sampled
    spec = _box(Q)
    axes = spec.axes(pad_cells=mo.bump_kernel(CFG.ell, spec.spacing)[1])
    assert _rows_off_r1(axes) == off
    nodes = _sampled_nodes(CFG.ell, spec)
    assert nodes == rows * np.prod([len(a) for a in axes[2:]])
    assert Q != 2.0 or nodes == 94_500


def _corner_box(nudge):
    """A box of dyadic nodes, spacing 1/64 for ell = 1/16, padded by m = 3
    cells to x in [1.125, 1.25], y in [0.375, 0.5], r, s in [1.25, 1.375]
    and K in [0.25, 0.375]: at the corner (x_hi, y_lo, r_lo, K_hi), y_lo = K_hi
    and x_hi = r_lo, so q1 = y_lo r_lo - x_hi K_hi is 0 exactly.  With nudge,
    y's lower bound is one ulp higher, and so is every y node of its binade."""
    h = 1.0 / 64.0
    lo = [1.125 + 3 * h, 0.375 + 3 * h, 1.25 + 3 * h, 1.25 + 3 * h, 0.25 + 3 * h]
    if nudge:
        lo[1] = np.nextafter(lo[1], 1.0)
    return mo.GridSpec(lo=tuple(lo), hi=tuple(v + 2 * h for v in lo), spacing=h)


@pytest.mark.parametrize("nudge,sampled", [(False, True), (True, False)],
                         ids=["on_the_cut", "one_ulp_inside"])
def test_q1_corner_decides_the_path(nudge, sampled):
    # the row at (x_hi, y_lo) reaches q1 = 0 at its corner (r_lo, K_hi) and
    # leaves R1; one ulp higher, every row lies in R1 and H4 is not sampled
    ell, spec = 1.0 / 16.0, _corner_box(nudge)
    kernel, m = mo.bump_kernel(ell, spec.spacing)
    x, y, r, _, k = axes = spec.axes(pad_cells=m)
    q1 = y[0] * r[0] - x[-1] * k[-1]
    assert q1 == (np.spacing(y[0] * r[0]) if nudge else 0.0)
    assert (_sampled_nodes(ell, spec) > 0) is sampled
    assert _rows_off_r1(axes) == (1 if sampled else 0)
    padded = np.meshgrid(*axes, indexing="ij", sparse=True)
    expect = valid_convolution(mo.h4_raw(*padded), kernel)
    np.testing.assert_allclose(mo.mollify_h4(ell, spec).values, expect, rtol=1e-13, atol=0.0)


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
