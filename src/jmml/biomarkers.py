"""Tempo-spectral EEG biomarkers.

Per-channel temporal features (Hjorth parameters, fractal dimensions, DFA,
Hurst exponent) and spectral features (band power intensity, relative
intensity ratio, spectral entropy) assembled into a fixed-order trial
feature vector.

Every feature function takes one signal or a (channels, samples) matrix and
reduces along the last axis: a value per signal, a (channels,) array per
matrix, each row equal bit for bit to that channel alone.  A degenerate row
raises :class:`DegenerateSignal` naming the lowest-index bad channel (no
channel for a single signal); in ``channel_features`` a feature that
overflows to a non-finite value raises :class:`FeatureOverflow` the same
way.

Feature ordering contract
-------------------------
``channel_features`` of a trial matrix is (channels, dim_per_channel), so
``extract_trial``, its ravel, is channel-major: all features for channel 0,
then channel 1, etc.  Within a channel the order is:

1. selected temporal features, in the order of ``TEMPORAL_FEATURES``;
2. PSI for each selected band (band order), if ``psi`` selected;
3. RIR for each selected band (band order), if ``rir`` selected;
4. spectral entropy, if selected.

With the default selection (Hjorth mobility/complexity, HFD, PFD; PSI, RIR
and spectral entropy over the four bands alpha_low..gamma) a 32-channel
trial yields 32 * (4 + 4 + 4 + 1) = 416 features.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateSignal, FeatureOverflow, ShapeError

TEMPORAL_FEATURES = (
    "hjorth_mobility",
    "hjorth_complexity",
    "hfd",
    "pfd",
    "dfa",
    "hurst",
)

SPECTRAL_FEATURES = ("psi", "rir", "spectral_entropy")

#: Standard EEG bands (Hz).
STANDARD_BANDS = (
    ("theta", 4.0, 8.0),
    ("alpha_low", 8.0, 10.0),
    ("alpha_high", 10.0, 13.0),
    ("beta", 13.0, 25.0),
    ("gamma", 25.0, 40.0),
)


@dataclass(frozen=True)
class BandSet:
    """Ordered, non-overlapping frequency bands."""

    bands: tuple = STANDARD_BANDS

    def __post_init__(self):
        prev_high = 0.0
        for name, low, high in self.bands:
            if not 0.0 < low < high:
                raise ValueError(f"band {name}: need 0 < low < high")
            if low < prev_high:
                raise ValueError(f"band {name}: bands must be ascending and non-overlapping")
            prev_high = high

    @property
    def names(self):
        return tuple(b[0] for b in self.bands)

    def __len__(self):
        return len(self.bands)

    def validate_against(self, sample_rate):
        nyquist = sample_rate / 2.0
        for name, _low, high in self.bands:
            if high >= nyquist:
                raise ValueError(f"band {name} exceeds Nyquist frequency {nyquist} Hz")


#: Four-band set used by the default feature selection (theta dropped).
DEFAULT_BANDS = BandSet(STANDARD_BANDS[1:])


@dataclass(frozen=True)
class FeatureSelection:
    """Which temporal/spectral features to extract per channel."""

    temporal: tuple = ("hjorth_mobility", "hjorth_complexity", "hfd", "pfd")
    bands: BandSet = DEFAULT_BANDS
    spectral: tuple = ("psi", "rir", "spectral_entropy")

    def __post_init__(self):
        for f in self.temporal:
            if f not in TEMPORAL_FEATURES:
                raise ValueError(f"unknown temporal feature {f!r}")
        for f in self.spectral:
            if f not in SPECTRAL_FEATURES:
                raise ValueError(f"unknown spectral feature {f!r}")
        if not self.temporal and not self.spectral:
            raise ValueError("feature selection is empty")
        if "spectral_entropy" in self.spectral and len(self.bands) < 2:
            raise ValueError("spectral_entropy needs at least 2 bands")

    def dim_per_channel(self):
        n_band_feats = sum(1 for f in ("psi", "rir") if f in self.spectral)
        n = len(self.temporal) + len(self.bands) * n_band_feats
        if "spectral_entropy" in self.spectral:
            n += 1
        return n

    def output_dim(self, n_channels):
        """Closed-form output dimension of ``extract_trial``."""
        return n_channels * self.dim_per_channel()


@dataclass
class EegTrial:
    """Raw multi-channel EEG segment.

    Parameters
    ----------
    channels : ndarray, shape (n_channels, n_samples)
    sample_rate : float
        Sampling rate in Hz.  Never inferred from data.
    trial_id : str
    """

    channels: np.ndarray
    sample_rate: float = 128.0
    trial_id: str = ""

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2 or self.channels.shape[0] < 1:
            raise ShapeError("channels must be a (n_channels, n_samples) matrix")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.isfinite(self.channels).all():
            raise ValueError("trial contains non-finite samples")


@dataclass
class FeatureVector:
    """Fixed-dimension feature vector with a modality tag."""

    values: np.ndarray
    modality: str = "eeg"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.isfinite(self.values).all():
            raise ValueError("feature vector contains non-finite entries")
        if self.modality not in ("eeg", "speech"):
            raise ValueError(f"unknown modality {self.modality!r}")

    @property
    def dim(self):
        return self.values.size


# ---------------------------------------------------------------------------
# temporal features


def hjorth(signal):
    """Hjorth mobility and complexity.

    mobility = sqrt(var(dx) / var(x)); complexity = mobility(dx) / mobility(x).
    A signal whose first difference is constant gets complexity 0 by
    convention (no curvature information, avoids a 0/0).
    """
    x = _as_signal(signal, min_len=3)
    var_x = np.var(x, axis=-1)
    _raise_rows(var_x == 0.0, "constant signal has no Hjorth parameters")
    dx = np.diff(x)
    var_dx = np.var(dx, axis=-1)
    mobility = np.sqrt(var_dx / var_x)
    with np.errstate(divide="ignore", invalid="ignore"):
        mobility_dx = np.sqrt(np.var(np.diff(dx), axis=-1) / var_dx)
        complexity = np.where(var_dx == 0.0, 0.0, mobility_dx / mobility)
    return mobility, complexity[()]


def petrosian_fd(signal):
    """Petrosian fractal dimension from sign changes of the first difference."""
    x = _as_signal(signal, min_len=2)
    dx = np.diff(x)
    n_delta = np.sum(dx[..., :-1] * dx[..., 1:] < 0, axis=-1)
    n = x.shape[-1]
    log_n = np.log10(n)
    return log_n / (log_n + np.log10(n / (n + 0.4 * n_delta)))


def higuchi_fd(signal, k_max=8):
    """Higuchi fractal dimension.

    Least-squares slope of log(L(k)) against log(1/k) over curve lengths
    L(k) for k = 1..k_max.  The lag-k absolute difference is taken once per
    k; its stride-k view from m holds exactly ``np.diff(x[..., m::k])``.
    """
    x = _as_signal(signal, min_len=2 * k_max)
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    n = x.shape[-1]
    scratch = np.empty(x.shape)
    lk = []
    for k in range(1, k_max + 1):
        dk = np.subtract(x[..., k:], x[..., :-k], out=scratch[..., : n - k])
        np.abs(dk, out=dk)
        lengths = []
        for m in range(k):
            norm = (n - 1) / ((len(range(m, n, k)) - 1) * k)
            lengths.append(np.sum(dk[..., m::k], axis=-1) * norm / k)
        lk.append(np.mean(np.stack(lengths, axis=-1), axis=-1))
    lk = np.stack(lk, axis=-1)
    _raise_rows((lk <= 0.0).any(axis=-1), "constant signal has zero curve length")
    return _loglog_slope(np.log(1.0 / np.arange(1, k_max + 1)), np.log(lk), "HFD")


def _box_sizes(n):
    """Powers of 2 from 4 up to n // 4."""
    return [2**e for e in range(2, (n // 4).bit_length())]


def _boxes(x, size):
    """The last axis cut into whole boxes of ``size``: (..., n_boxes, size)."""
    n_boxes = x.shape[-1] // size
    return x[..., : n_boxes * size].reshape(*x.shape[:-1], n_boxes, size)


def dfa(signal):
    """Detrended fluctuation analysis scaling exponent.

    Box sizes are powers of 2 from 4 to N/4; linear detrending per box.
    """
    x = _as_signal(signal, min_len=64)
    _raise_rows(np.var(x, axis=-1) == 0.0, "constant signal has no fluctuation")
    profile = np.cumsum(x - np.mean(x, axis=-1, keepdims=True), axis=-1)
    sizes = _box_sizes(x.shape[-1])
    f = []
    for size in sizes:
        segs = _boxes(profile, size)
        # per-box least-squares line: intercept at the box mean, slope <t, seg> / <t, t>
        t = np.arange(size) - (size - 1) / 2.0
        trend = segs.mean(axis=-1, keepdims=True) + (segs @ t / (t @ t))[..., None] * t
        f.append(np.sqrt(np.mean((segs - trend) ** 2, axis=(-2, -1))))
    f = np.stack(f, axis=-1)
    return _loglog_slope(np.log(sizes), np.log(np.where(f > 0.0, f, 1.0)), "DFA", keep=f > 0.0)


def hurst(signal):
    """Rescaled-range Hurst exponent over the DFA box schedule."""
    x = _as_signal(signal, min_len=64)
    _raise_rows(np.var(x, axis=-1) == 0.0, "constant signal has no Hurst exponent")
    sizes = _box_sizes(x.shape[-1])
    rs = []
    for size in sizes:
        segs = _boxes(x, size)
        z = np.cumsum(segs - segs.mean(axis=-1, keepdims=True), axis=-1)
        r = z.max(axis=-1) - z.min(axis=-1)
        s = segs.std(axis=-1)
        ok = s > 0.0
        # mean R/S over the boxes with spread; 0 (dropped below) when none has
        ratios = np.where(ok, r, 0.0) / np.where(ok, s, 1.0)
        rs.append(np.sum(ratios, axis=-1) / np.maximum(ok.sum(axis=-1), 1))
    rs = np.stack(rs, axis=-1)
    return _loglog_slope(np.log(sizes), np.log(np.where(rs > 0.0, rs, 1.0)), "Hurst", keep=rs > 0.0)


def _loglog_slope(log_x, log_y, name, keep=None):
    """Least-squares slope of each row of ``log_y`` against ``log_x``.

    ``keep`` masks the points each row fits (all by default); a row left
    with fewer than two raises DegenerateSignal.  One ``np.polyfit`` per
    row: a single 2-D fit rounds differently.
    """
    if keep is None:
        keep = np.ones_like(log_y, dtype=bool)
    _raise_rows(keep.sum(axis=-1) < 2, f"not enough non-degenerate scales for {name}")
    rows = zip(np.reshape(log_y, (-1, log_x.size)), np.reshape(keep, (-1, log_x.size)))
    slopes = [np.polyfit(log_x[k], y[k], 1)[0] for y, k in rows]
    return np.reshape(slopes, log_y.shape[:-1])[()]


# ---------------------------------------------------------------------------
# spectral features


def band_powers(signal, sample_rate, bands=DEFAULT_BANDS):
    """Power spectral intensity and relative intensity ratio per band.

    PSI sums magnitude-spectrum bins inside each band; RIR normalizes PSI
    to sum to one.  The spectrum is the plain DFT magnitude of the raw
    signal.  Both come back with the bands on the last axis.
    """
    x = _as_signal(signal, min_len=2)
    bands.validate_against(sample_rate)
    spectrum = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / sample_rate)
    # the frequencies ascend, so a band's bins [low, high) are one slice
    edges = np.searchsorted(freqs, [(low, high) for _name, low, high in bands.bands])
    psi = np.stack([spectrum[..., lo:hi].sum(axis=-1) for lo, hi in edges], axis=-1)
    total = psi.sum(axis=-1)
    _raise_rows(total == 0.0, "no spectral mass inside the requested bands")
    return psi, psi / total[..., None]


def spectral_entropy(rir):
    """Normalized Shannon entropy of band probabilities on the last axis, in [0, 1]."""
    p = np.asarray(rir, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] < 2:
        raise ShapeError(f"spectral entropy needs at least 2 bands on the last axis, got shape {p.shape}")
    p_log_p = p * np.log(np.where(p > 0.0, p, 1.0))
    return -np.sum(p_log_p, axis=-1) / np.log(p.shape[-1])


# ---------------------------------------------------------------------------
# trial assembly


def channel_features(x, sample_rate, selection, k_max=8):
    """Features of one signal, in the documented order: (dim_per_channel,).

    For a (channels, samples) matrix, one such row per channel.
    """
    features = {"hfd": partial(higuchi_fd, k_max=k_max), "pfd": petrosian_fd, "dfa": dfa, "hurst": hurst}
    pair = {}
    if {"hjorth_mobility", "hjorth_complexity"} & set(selection.temporal):
        pair = dict(zip(("hjorth_mobility", "hjorth_complexity"), hjorth(x)))
    cols = [_finite(name, (pair[name] if name in pair else features[name](x))[..., None])
            for name in TEMPORAL_FEATURES if name in selection.temporal]
    if selection.spectral:
        psi, rir = band_powers(x, sample_rate, selection.bands)
        if "psi" in selection.spectral:
            cols.append(_finite("psi", psi))
        if "rir" in selection.spectral:
            cols.append(_finite("rir", rir))
        if "spectral_entropy" in selection.spectral:
            cols.append(_finite("spectral_entropy", spectral_entropy(rir)[..., None]))
    return np.concatenate(cols, axis=-1)


def _finite(name, col):
    """``col``, a feature with its values on the last axis, unless a row is
    non-finite: then FeatureOverflow names the feature and lowest bad row."""
    _raise_rows(~np.isfinite(col).all(axis=-1), f"{name} is not finite", FeatureOverflow)
    return col


def extract_trial(trial, selection=FeatureSelection(), k_max=8):
    """Extract the selected biomarkers for every channel of a trial.

    Returns a :class:`FeatureVector` whose length equals
    ``selection.output_dim(n_channels)``.  A degenerate channel raises
    :class:`DegenerateSignal` carrying the channel index.
    """
    features = channel_features(trial.channels, trial.sample_rate, selection, k_max=k_max)
    return FeatureVector(features.ravel(), modality="eeg")


def _as_signal(signal, min_len):
    # C order: a row then reduces in the same order as that channel alone
    x = np.asarray(signal, dtype=np.float64, order="C")
    if x.ndim not in (1, 2):
        raise ShapeError(f"expected a signal or a (channels, samples) matrix, got shape {x.shape}")
    if x.shape[-1] < min_len:
        raise ValueError(f"signal too short: need at least {min_len} samples, got {x.shape[-1]}")
    return x


def _raise_rows(bad, message, error=DegenerateSignal):
    """Raise ``error`` if any row is ``bad``, naming the lowest one."""
    if np.any(bad):
        raise error(message, channel=int(np.argmax(bad)) if np.ndim(bad) else None)
