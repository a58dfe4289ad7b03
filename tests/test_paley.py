import numpy as np
import pytest

from cusplab.errors import InvalidInputError, ResolutionError
from cusplab.modezero import ModeZeroField, line_grid, window_profile
from cusplab.paley import (
    ALT_PSI,
    DEFAULT_PSI,
    _block_norms,
    block_decay_exponent,
    bracket,
    dyadic_multipliers,
    holder_norm,
    interaction_decay_exponent,
    lp_block,
    max_block_index,
    norm_equivalence_report,
    random_band_limited_family,
    smoothstep_poly,
    sup_norm,
    zygmund_norm,
)


def grid_field(values, r_half=48.0, n=4096):
    r0, dr = line_grid(r_half, n)
    return ModeZeroField(r0, dr, np.asarray(values)[:, None])


def r_axis(r_half=48.0, n=4096):
    r0, dr = line_grid(r_half, n)
    return r0 + dr * np.arange(n)


# ---------------------------------------------------------------------------
# multiplier structure
# ---------------------------------------------------------------------------


def test_partition_of_unity_on_frequency_grid():
    r = r_axis()
    xi = 2 * np.pi * np.fft.fftfreq(len(r), d=r[1] - r[0])
    j_max = int(np.ceil(np.log2(bracket(xi).max()))) + 1
    total = sum(dyadic_multipliers(xi, j_max, DEFAULT_PSI))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_multiplier_support_in_dyadic_ring():
    xi = np.linspace(-300, 300, 20001)
    for j, m in enumerate(dyadic_multipliers(xi, 7, DEFAULT_PSI)):
        br = bracket(xi)
        outside = (br < 2.0 ** (j - 1) - 1e-9) | (br > 2.0 ** (j + 1) + 1e-9)
        assert np.max(np.abs(m[outside])) == 0.0


def _reference_block(fld, j, psi):
    # one block at a time, the cutoff's smoothstep evaluated on every
    # frequency: the transform each batched block must reproduce bit for bit
    def cutoff(x):
        return 1.0 - smoothstep_poly(np.abs(x) - 1.0, psi.degree)

    br = bracket(fld.frequencies())
    mult = cutoff(br * 2.0 ** (-j)) - cutoff(br * 2.0 ** (-j + 1))
    return np.fft.ifft(np.fft.fft(fld.samples, axis=0) * mult[:, None], axis=0)


@pytest.mark.parametrize("psi", [DEFAULT_PSI, ALT_PSI], ids=["psi5", "psi7"])
@pytest.mark.parametrize(
    "n, ncomp, weight", [(4096, 1, 0.0), (3000, 3, 0.0), (1000, 1, 0.3), (4096, 3, -0.2)]
)
def test_batched_blocks_equal_single_blocks_bitwise(psi, n, ncomp, weight):
    r0, dr = line_grid(20.0, n)
    r = r0 + dr * np.arange(n)
    u = np.stack(
        [np.exp(-((r / (3.0 + k)) ** 2)) * np.cos((1.5 + k) * r) for k in range(ncomp)], axis=1
    )
    fld = ModeZeroField(r0, dr, u, weight=weight)
    table = dyadic_multipliers(fld.frequencies(), max_block_index(fld), psi)
    norms = _block_norms(np.fft.fft(fld.samples, axis=0), table)
    if psi is DEFAULT_PSI:
        assert np.array_equal(zygmund_norm(fld, 0.5)[1], norms)
    for j in range(len(norms)):
        reference = _reference_block(fld, j, psi)
        assert norms[j] == np.max(np.abs(reference))
        if psi is DEFAULT_PSI:
            single = lp_block(fld, j)
            assert np.array_equal(single.samples, reference)
            assert single.weight == weight


def test_report_rows_hold_each_fields_block_norms():
    fam = random_band_limited_family(3, 2, 20.0, 1000)
    rep = norm_equivalence_report(fam, 0.4, alt_psi=ALT_PSI)
    for fld, row in zip(fam, rep["fields"]):
        value, norms = zygmund_norm(fld, 0.4)
        assert np.array_equal(row["blocks"], norms)
        assert row["zygmund"] == value
        table = dyadic_multipliers(fld.frequencies(), max_block_index(fld), ALT_PSI)
        alt = _block_norms(np.fft.fft(fld.samples, axis=0), table)
        assert row["zygmund_alt"] == np.max(alt * 2.0 ** (0.4 * np.arange(len(alt))))


def test_aliased_field_raises_from_every_block_entry_point():
    r0, dr = line_grid(12.0, 256)
    r = r0 + dr * np.arange(256)
    fld = ModeZeroField(r0, dr, np.cos(0.97 * np.pi / dr * r)[:, None])
    for call in (
        lambda: lp_block(fld, 0),
        lambda: zygmund_norm(fld, 0.5),
        lambda: norm_equivalence_report([fld], 0.5, alt_psi=ALT_PSI),
    ):
        with pytest.raises(ResolutionError) as err:
            call()
        assert err.value.diagnostics["tail_fraction"] > 1e-6


def test_blocks_sum_back_to_field():
    r = r_axis()
    u = np.exp(-((r / 7.0) ** 2)) * np.cos(3.0 * r)
    fld = grid_field(u)
    blocks = [lp_block(fld, j) for j in range(max_block_index(fld) + 1)]
    total = sum(b.samples for b in blocks)
    assert np.max(np.abs(total - fld.samples)) <= 1e-10


def test_band_limited_field_lands_in_its_block():
    # an exact grid harmonic on the dyadic sphere bracket = 2^5 sits on the
    # plateau of the j=5 multiplier (cutoff touches 1 with zero slope), so
    # that block reproduces the field and every other block vanishes
    r = r_axis()
    n, dr = len(r), r[1] - r[0]
    length = n * dr
    target = np.sqrt(32.0**2 - 1.0)
    k = round(target * length / (2 * np.pi))
    xi_star = 2 * np.pi * k / length
    u = np.cos(xi_star * r)
    fld = grid_field(u)
    norms = [sup_norm(lp_block(fld, j)) for j in range(10)]
    assert abs(norms[5] - 1.0) <= 1e-6
    block5 = lp_block(fld, 5)
    assert np.max(np.abs(block5.samples - fld.samples)) <= 1e-6
    for j in (0, 1, 2, 3, 4, 6, 7, 8, 9):
        assert norms[j] <= 1e-6


def test_windowed_constant_block_decay():
    r = r_axis()
    fld = grid_field(window_profile(r))
    _, norms = zygmund_norm(fld, 0.0)
    assert np.argmax(norms) == 0
    fitted = block_decay_exponent(norms)
    assert fitted >= 4.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_zygmund_norm_zero_and_homogeneous():
    r = r_axis()
    fld = grid_field(np.zeros_like(r))
    assert zygmund_norm(fld, 0.5)[0] == 0.0
    u = np.exp(-((r / 5.0) ** 2)) * np.cos(2 * r)
    a, _ = zygmund_norm(grid_field(u), 0.5)
    b, _ = zygmund_norm(grid_field(3.5 * u), 0.5)
    assert abs(b - 3.5 * a) <= 1e-12 * b


def test_zygmund_monotone_in_s():
    fam = random_band_limited_family(3, 5, 48.0, 4096)
    for fld in fam:
        values = [zygmund_norm(fld, s)[0] for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_half_power_cusp_blocks_follow_fourier_decay():
    # |r|^{1/2} near 0: block sup norms scale like 2^{-j/2} (spectral decay
    # |xi|^{-3/2}), so the weighted sups stay bounded at s = 0.5 and grow
    # for s > 0.5; rings extending beyond Nyquist are excluded from the fit
    r = r_axis()
    u = np.sqrt(np.abs(r)) * window_profile(r)
    fld = grid_field(u)
    _, norms = zygmund_norm(fld, 0.0)
    js = np.arange(3, 8)
    overall = np.polyfit(js, np.log2(norms[js]), 1)[0]
    assert abs(overall + 0.5) < 0.25
    w05 = norms[js] * 2.0 ** (0.5 * js)
    w08 = norms[js] * 2.0 ** (0.8 * js)
    assert w05.max() / w05.min() < 3.0
    assert w08[-1] > 2.0 * w08[0]


def test_block_norms_match_multiplier_integral_oracle():
    # synthetic even spectrum <xi>^{-3/2}: the block peak value equals the
    # multiplier-weighted spectral integral, computable independently by
    # direct summation; block sups then decay at the -1/2 rate
    r = r_axis()
    n, dr = len(r), r[1] - r[0]
    xi = 2 * np.pi * np.fft.fftfreq(n, d=dr)
    spec = bracket(xi) ** -1.5
    u = np.fft.ifft(spec).real
    fld = grid_field(np.fft.fftshift(u))  # center the peak; shifts are unitary
    # the spectrum reaches Nyquist by construction, past the aliasing guard
    # of the public entry points, so the block norms are read directly
    mults = dyadic_multipliers(xi, 7, DEFAULT_PSI)
    norms = _block_norms(np.fft.fft(fld.samples, axis=0), mults)
    for j in range(3, 7):
        oracle = np.sum(mults[j] * spec) / n
        assert abs(norms[j] - oracle) <= 1e-10 * oracle
    slope = np.polyfit(np.arange(3, 7), np.log2(norms[3:7]), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_holder_norm_constant_is_sup_norm():
    r = r_axis(8.0, 1024)
    fld = grid_field(np.full_like(r, 2.5), 8.0, 1024)
    assert abs(holder_norm(fld, 0.5) - 2.5) <= 1e-12


def test_holder_seminorm_of_half_power_is_one():
    # oracle: | |r|^s e^{-r^2/2} - 0 | / |r|^s tends to 1 as r -> 0, and the
    # Gaussian damping keeps every other pair below that (concavity of the
    # half power plus |f'| < 1 away from the cusp)
    r = r_axis(8.0, 4096)
    s = 0.5
    u = np.abs(r) ** s * np.exp(-(r**2) / 2.0) * window_profile(r)
    fld = grid_field(u, 8.0, 4096)
    hn = holder_norm(fld, s)
    semi = hn - np.max(np.abs(u))
    assert abs(semi - 1.0) <= 5e-3


def test_holder_norm_validates_inputs():
    r = r_axis(8.0, 1024)
    fld = grid_field(np.cos(r), 8.0, 1024)
    with pytest.raises(InvalidInputError):
        holder_norm(fld, 1.5)


def test_lipschitz_window_finite_for_all_s():
    r = r_axis(8.0, 2048)
    fld = grid_field(window_profile(r), 8.0, 2048)
    for s in (0.1, 0.5, 0.9):
        assert np.isfinite(holder_norm(fld, s))


# ---------------------------------------------------------------------------
# interaction decay and equivalence report
# ---------------------------------------------------------------------------


def test_block_interaction_decay_exponent():
    fam = random_band_limited_family(1, 11, 48.0, 4096)
    fitted, points = interaction_decay_exponent(fam[0])
    assert len(points) >= 3
    assert fitted >= 4.0


def test_norm_equivalence_report_stability():
    fam = random_band_limited_family(50, 7, 48.0, 4096)
    rep_half = norm_equivalence_report(fam[:25], 0.5)
    rep_full = norm_equivalence_report(fam, 0.5, alt_psi=ALT_PSI)
    assert 0 < rep_full["ratio_min"] <= rep_full["ratio_max"] < np.inf
    # interval stable within 10% when the family doubles
    assert rep_full["ratio_max"] <= rep_half["ratio_max"] * 1.10 + 1e-12
    assert rep_full["ratio_min"] >= rep_half["ratio_min"] * 0.90 - 1e-12
    # alternate admissible cutoff changes the norm by a bounded factor
    assert rep_full["cutoff_ratio_min"] > 0.2
    assert rep_full["cutoff_ratio_max"] < 5.0


def test_single_constant_family_ratio_finite():
    r = r_axis(8.0, 1024)
    fld = grid_field(np.full_like(r, 1.0), 8.0, 1024)
    rep = norm_equivalence_report([fld], 0.5)
    assert 0 < rep["ratio_min"] < np.inf


def test_zero_field_in_a_family_is_invalid_input_naming_it():
    # its Hoelder norm is 0, and the ratio once died as a ZeroDivisionError
    fam = random_band_limited_family(2, 4, 8.0, 1024)
    zero = grid_field(np.zeros(1024), 8.0, 1024)
    for fields, index in (([zero], 0), ([fam[0], zero, fam[1]], 1)):
        with pytest.raises(InvalidInputError, match=f"field {index} ") as err:
            norm_equivalence_report(fields, 0.5)
        assert err.value.diagnostics == {"field": index}


def _cosine_family(count, seed, r_half, n):
    # the same draws as random_band_limited_family, each field summed one
    # cosine per sample and mode
    rng = np.random.default_rng(seed)
    r = r_axis(r_half, n)
    out = []
    for _ in range(count):
        freqs = np.exp(rng.uniform(np.log(0.2), np.log(30.0), size=12))
        amps = rng.normal(size=12) / np.sqrt(12)
        phases = rng.uniform(0, 2 * np.pi, size=12)
        u = np.sum(amps[None, :] * np.cos(np.outer(r, freqs) + phases[None, :]), axis=1)
        out.append(u * window_profile(r))
    return out


@pytest.mark.parametrize(
    "count, seed, r_half, n",
    [(50, 7, 48.0, 4096), (16, 3, 48.0, 4096), (3, 2, 20.0, 1000), (4, 5, 8.0, 64), (5, 1, 48.0, 4097)],
)
def test_family_matches_cosine_sums_of_the_same_draws(count, seed, r_half, n):
    fam = random_band_limited_family(count, seed, r_half, n)
    want = _cosine_family(count, seed, r_half, n)
    assert len(fam) == count
    r0, dr = line_grid(r_half, n)
    for fld, u in zip(fam, want):
        assert (fld.r0, fld.dr, fld.samples.shape) == (r0, dr, (n, 1))
        assert np.max(np.abs(fld.samples[:, 0] - u)) <= 1e-12


def test_max_block_index_covers_nyquist():
    fld = grid_field(np.zeros(4096))
    j = max_block_index(fld)
    xi_nyq = np.pi / fld.dr
    assert 2.0 ** (j - 1) >= bracket(xi_nyq)
