"""Biomarker oracles: closed-form signals with known feature values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmml.biomarkers import (
    DEFAULT_BANDS,
    STANDARD_BANDS,
    TEMPORAL_FEATURES,
    BandSet,
    EegTrial,
    FeatureSelection,
    band_powers,
    channel_features,
    dfa,
    extract_trial,
    higuchi_fd,
    hjorth,
    hurst,
    petrosian_fd,
    spectral_entropy,
)
from jmml.errors import DegenerateSignal, FeatureOverflow, JmmlError, ShapeError


# ---------------------------------------------------------------------------
# Hjorth parameters


def test_hjorth_sine_oracle():
    # For x = sin(w t), var(x) = 1/2, var(dx) ~ w^2/2 (small w), so
    # mobility -> w = 2 sin(w/2) exactly for the discrete difference.
    w = 0.1
    t = np.arange(10000)
    x = np.sin(w * t)
    mobility, complexity = hjorth(x)
    expected_mob = 2.0 * np.sin(w / 2.0)
    assert mobility == pytest.approx(expected_mob, rel=1e-3)
    # a pure sine's difference is another sine of the same frequency:
    # complexity -> 1
    assert complexity == pytest.approx(1.0, rel=1e-3)


def test_hjorth_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(512)
    m1, c1 = hjorth(x)
    m2, c2 = hjorth(7.5 * x)
    assert m1 == pytest.approx(m2, rel=1e-12)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_hjorth_constant_raises():
    with pytest.raises(DegenerateSignal):
        hjorth(np.ones(100))


def test_hjorth_linear_ramp_complexity_zero():
    # first difference is constant: complexity 0 by convention
    mobility, complexity = hjorth(np.arange(100, dtype=float))
    assert complexity == 0.0
    assert mobility == 0.0  # constant first difference has zero variance


# ---------------------------------------------------------------------------
# fractal dimensions


def test_petrosian_oracle_hand_computed():
    # x = [0, 1, 0, 1, 0]: dx = [1,-1,1,-1], three sign changes.
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    n, n_delta = 5, 3
    expected = np.log10(n) / (np.log10(n) + np.log10(n / (n + 0.4 * n_delta)))
    assert petrosian_fd(x) == pytest.approx(expected, abs=1e-15)


def test_petrosian_monotone_no_sign_changes():
    # monotone signal: n_delta = 0 gives log(n)/(log(n) + log(1)) -> 1... but
    # log10(n/n) = 0 so PFD = 1 exactly.
    assert petrosian_fd(np.arange(50, dtype=float)) == pytest.approx(1.0)


def test_higuchi_line_is_one():
    # a straight line has fractal dimension 1
    assert higuchi_fd(np.arange(1024, dtype=float), k_max=8) == pytest.approx(1.0, abs=1e-6)


def test_higuchi_white_noise_near_two():
    rng = np.random.default_rng(0)
    vals = [higuchi_fd(rng.standard_normal(4096), k_max=8) for _ in range(5)]
    assert np.mean(vals) == pytest.approx(2.0, abs=0.1)


def test_higuchi_constant_raises():
    with pytest.raises(DegenerateSignal):
        higuchi_fd(np.zeros(128))


def _higuchi_reference(signal, k_max=8):
    # HFD as one strided slice -> diff -> abs -> sum per (k, m);
    # higuchi_fd must agree with it bit for bit
    x = np.asarray(signal, dtype=np.float64)
    n = x.shape[-1]
    lk = []
    for k in range(1, k_max + 1):
        lengths = []
        for m in range(k):
            sub = x[..., m::k]
            norm = (n - 1) / ((sub.shape[-1] - 1) * k)
            lengths.append(np.sum(np.abs(np.diff(sub)), axis=-1) * norm / k)
        lk.append(np.mean(np.stack(lengths, axis=-1), axis=-1))
    lk = np.stack(lk, axis=-1)
    log_x = np.log(1.0 / np.arange(1, k_max + 1))
    slopes = [np.polyfit(log_x, y, 1)[0] for y in np.reshape(np.log(lk), (-1, k_max))]
    return np.reshape(slopes, lk.shape[:-1])[()]


@pytest.mark.parametrize("k_max", [2, 5, 8])
@pytest.mark.parametrize("shape", [(7681,), (100,), (3, 7681), (4, 100), (200, 16)])
def test_higuchi_matches_reference_loop(shape, k_max):
    x = np.random.default_rng(shape[-1] + k_max).standard_normal(shape)
    np.testing.assert_array_equal(higuchi_fd(x, k_max=k_max), _higuchi_reference(x, k_max))


@pytest.mark.parametrize("k_max", [2, 5, 8])
def test_higuchi_matches_reference_loop_at_shortest_length(k_max):
    # n = 2 k_max: k = k_max leaves one difference per m
    x = np.random.default_rng(k_max).standard_normal((3, 2 * k_max))
    np.testing.assert_array_equal(higuchi_fd(x, k_max=k_max), _higuchi_reference(x, k_max))
    np.testing.assert_array_equal(higuchi_fd(x[1], k_max=k_max), _higuchi_reference(x[1], k_max))


def test_higuchi_any_memory_layout_matches_reference_loop():
    # the reference runs on C-ordered copies: it sums an F-ordered matrix's
    # rows in another order, so its rows there differ from the channels alone
    x = np.random.default_rng(9).standard_normal((32, 7681))
    np.testing.assert_array_equal(higuchi_fd(np.asfortranarray(x)), _higuchi_reference(x))
    strided = x[:, ::2]
    np.testing.assert_array_equal(higuchi_fd(strided), _higuchi_reference(strided.copy()))


# ---------------------------------------------------------------------------
# DFA and Hurst


def test_dfa_white_noise_exponent_half():
    rng = np.random.default_rng(3)
    vals = [dfa(rng.standard_normal(8192)) for _ in range(5)]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.08)


def test_dfa_brownian_exponent_three_halves():
    rng = np.random.default_rng(4)
    vals = [dfa(np.cumsum(rng.standard_normal(8192))) for _ in range(5)]
    assert np.mean(vals) == pytest.approx(1.5, abs=0.12)


def test_hurst_white_noise_half():
    rng = np.random.default_rng(5)
    vals = [hurst(rng.standard_normal(8192)) for _ in range(5)]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.1)


def test_hurst_persistent_signal_above_half():
    # integrated noise is strongly persistent
    rng = np.random.default_rng(6)
    assert hurst(np.cumsum(rng.standard_normal(8192))) > 0.8


def _dfa_lstsq(x):
    # DFA with each box detrended by np.linalg.lstsq, one signal at a time
    profile = np.cumsum(x - np.mean(x))
    log_n, log_f = [], []
    size = 4
    while size <= x.size // 4:
        n_boxes = x.size // size
        segs = profile[: n_boxes * size].reshape(n_boxes, size)
        t = np.arange(size, dtype=np.float64)
        design = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(design, segs.T, rcond=None)
        log_n.append(np.log(size))
        log_f.append(np.log(np.sqrt(np.mean((segs.T - design @ coef) ** 2))))
        size *= 2
    return np.polyfit(log_n, log_f, 1)[0]


def test_dfa_closed_form_detrend_matches_lstsq():
    rng = np.random.default_rng(8)
    for x in (rng.standard_normal(8192), np.cumsum(rng.standard_normal(3000)), rng.standard_normal(64)):
        assert dfa(x) == pytest.approx(_dfa_lstsq(x), abs=1e-12)


def test_dfa_constant_raises():
    with pytest.raises(DegenerateSignal):
        dfa(np.full(512, 3.0))


# ---------------------------------------------------------------------------
# spectral features


def test_band_powers_pure_tone_lands_in_its_band():
    fs = 128.0
    t = np.arange(int(fs * 4)) / fs
    for freq, band_idx in ((9.0, 0), (11.0, 1), (20.0, 2), (30.0, 3)):
        psi, rir = band_powers(np.sin(2 * np.pi * freq * t), fs)
        assert int(np.argmax(psi)) == band_idx
        assert rir[band_idx] > 0.95


def test_rir_sums_to_one():
    rng = np.random.default_rng(7)
    _psi, rir = band_powers(rng.standard_normal(1024), 128.0)
    assert rir.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(rir >= 0.0)


def test_spectral_entropy_bounds():
    # single-band mass: entropy 0; uniform: entropy 1
    assert spectral_entropy(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.0)
    assert spectral_entropy(np.full(4, 0.25)) == pytest.approx(1.0)


def test_spectral_entropy_needs_two_bands():
    with pytest.raises(ShapeError):
        spectral_entropy(np.array([1.0]))
    with pytest.raises(ShapeError):
        spectral_entropy(np.ones((3, 1)))


def test_selection_rejects_spectral_entropy_over_one_band():
    one_band = BandSet((("alpha", 8.0, 13.0),))
    with pytest.raises(ValueError, match="spectral_entropy"):
        FeatureSelection(bands=one_band)
    # PSI and RIR alone are fine on one band
    sel = FeatureSelection(bands=one_band, spectral=("psi", "rir"))
    assert extract_trial(_noise_trial(), sel).dim == sel.output_dim(4)


def test_band_exceeding_nyquist_rejected():
    with pytest.raises(ValueError):
        band_powers(np.random.default_rng(0).standard_normal(256), 64.0)  # gamma > 32 Hz


def test_band_set_ordering_enforced():
    with pytest.raises(ValueError):
        BandSet((("a", 8.0, 13.0), ("b", 4.0, 8.0)))


def test_default_bands_drop_theta():
    assert DEFAULT_BANDS.names == ("alpha_low", "alpha_high", "beta", "gamma")
    assert BandSet().names == tuple(b[0] for b in STANDARD_BANDS)


# ---------------------------------------------------------------------------
# trial assembly and the dimension law


def _noise_trial(n_channels=4, n_samples=512, seed=0, fs=128.0):
    rng = np.random.default_rng(seed)
    return EegTrial(rng.standard_normal((n_channels, n_samples)), fs, "t0")


def test_default_selection_dimension():
    sel = FeatureSelection()
    assert sel.dim_per_channel() == 13
    assert sel.output_dim(32) == 416


def test_extract_trial_matches_closed_form_dim():
    trial = _noise_trial()
    sel = FeatureSelection()
    vec = extract_trial(trial, sel)
    assert vec.dim == sel.output_dim(4)
    assert vec.modality == "eeg"


def test_extract_trial_channel_major_order():
    # 32 x 7680 is a DEAP trial (60 s at 128 Hz): its bands hold 120-900
    # bins each, enough for a change in summation order to show
    sel = FeatureSelection()
    per = sel.dim_per_channel()
    for n_channels, n_samples in ((3, 512), (32, 7680)):
        trial = _noise_trial(n_channels=n_channels, n_samples=n_samples)
        vec = extract_trial(trial, sel)
        for ch in range(n_channels):
            expected = channel_features(trial.channels[ch], trial.sample_rate, sel)
            np.testing.assert_array_equal(vec.values[ch * per:(ch + 1) * per], expected)
        hfd_col = sel.temporal.index("hfd")
        np.testing.assert_array_equal(vec.values[hfd_col::per], _higuchi_reference(trial.channels))


def test_extract_trial_independent_of_memory_layout():
    sel = FeatureSelection(temporal=TEMPORAL_FEATURES)
    trial = _noise_trial(n_channels=6, n_samples=1024)
    expected = extract_trial(trial, sel).values
    for channels in (np.asfortranarray(trial.channels), np.repeat(trial.channels, 2, axis=1)[:, ::2]):
        got = extract_trial(EegTrial(channels, trial.sample_rate), sel).values
        np.testing.assert_array_equal(got, expected)


def _mixed_channels():
    rng = np.random.default_rng(21)
    white = rng.standard_normal((3, 4096)) * np.array([[0.5], [3.0], [40.0]])
    brown = np.cumsum(rng.standard_normal((2, 4096)), axis=1)
    return np.vstack([white, brown])


@pytest.mark.parametrize("feature", [
    lambda x: np.stack(hjorth(x), axis=-1),
    petrosian_fd,
    higuchi_fd,
    lambda x: higuchi_fd(x, k_max=5),
    lambda x: np.concatenate(band_powers(x, 128.0), axis=-1),
    lambda x: spectral_entropy(band_powers(x, 128.0)[1]),
    dfa,
    hurst,
])
def test_feature_on_matrix_equals_row_by_row(feature):
    channels = _mixed_channels()
    rows = np.array([feature(x) for x in channels])
    np.testing.assert_array_equal(feature(channels), rows)


def test_extract_trial_reports_degenerate_channel():
    # with several, the lowest-index one
    for constant in ({1: 0.0}, {3: 2.0, 1: 0.0}):
        trial = _noise_trial(n_channels=5)
        for ch, value in constant.items():
            trial.channels[ch] = value
        with pytest.raises(DegenerateSignal) as exc:
            extract_trial(trial)
        assert exc.value.channel == 1


@pytest.mark.parametrize("feature", [hjorth, higuchi_fd, dfa, hurst, lambda x: band_powers(x, 128.0)])
def test_feature_on_matrix_names_degenerate_channel(feature):
    channels = _mixed_channels()
    channels[[2, 4]] = 1.5
    with pytest.raises(DegenerateSignal) as exc:
        feature(channels)
    assert exc.value.channel == 2
    with pytest.raises(DegenerateSignal) as exc:
        feature(channels[2])
    assert exc.value.channel is None


@pytest.mark.parametrize("amplitude", [1e160, 1e200, 1e307])
def test_extract_trial_names_overflowing_feature_and_channel(amplitude):
    # finite samples whose scale overflows float64 inside a feature: the
    # first non-finite feature and its lowest channel are named
    channels = np.clip(_noise_trial().channels, -1.0, 1.0)
    channels[[2, 3]] *= amplitude
    trial = EegTrial(channels)
    cases = [(FeatureSelection(), "hjorth_mobility")]
    if amplitude == 1e307:
        cases += [(FeatureSelection(temporal=("hfd", "pfd"), spectral=()), "hfd"),
                  (FeatureSelection(temporal=()), "psi")]
    for selection, feature in cases:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FeatureOverflow) as exc:
            extract_trial(trial, selection)
        assert isinstance(exc.value, JmmlError)
        assert exc.value.channel == 2
        assert str(exc.value) == f"{feature} is not finite (channel=2)"


def test_feature_rejects_three_dimensional_input():
    with pytest.raises(ShapeError):
        hjorth(np.zeros((2, 3, 64)))


@settings(max_examples=30, deadline=None)
@given(
    n_channels=st.integers(1, 6),
    temporal=st.sets(st.sampled_from(["hjorth_mobility", "hjorth_complexity", "hfd", "pfd"]), max_size=4),
    spectral=st.sets(st.sampled_from(["psi", "rir", "spectral_entropy"]), max_size=3),
)
def test_dimension_law_property(n_channels, temporal, spectral):
    if not temporal and not spectral:
        return
    sel = FeatureSelection(temporal=tuple(sorted(temporal)), spectral=tuple(sorted(spectral)))
    trial = _noise_trial(n_channels=n_channels, seed=11)
    assert extract_trial(trial, sel).dim == sel.output_dim(n_channels)


def test_spectral_amplitude_invariance():
    # RIR and spectral entropy are ratios: amplitude cancels
    rng = np.random.default_rng(12)
    x = rng.standard_normal(1024)
    _p1, r1 = band_powers(x, 128.0)
    _p2, r2 = band_powers(4.2 * x, 128.0)
    np.testing.assert_allclose(r1, r2, atol=1e-12)


def test_trial_validation():
    with pytest.raises(ShapeError):
        EegTrial(np.zeros(10))
    with pytest.raises(ValueError):
        EegTrial(np.zeros((2, 10)), sample_rate=0.0)
    bad = np.zeros((2, 10))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        EegTrial(bad)
