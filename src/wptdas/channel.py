"""Multipath fading channels and the deterministic link budget.

Each transmit antenna of the distributed array sees an independent
tapped-delay-line channel drawn from a shared power delay profile (PDP):
tap gains are circularly-symmetric complex Gaussian (Rayleigh amplitude,
uniform phase) with mean-square amplitude equal to the tap's mean power.
Profiles are normalized to unit total power, so all deterministic scaling
(transmit power, path loss, antenna gains) lives in :class:`LinkBudget`.

PDP files are plain text, one tap per line, ``delay_ns power_db``, with
``#`` comments; powers are renormalized to unit linear sum at load time.
The package ships ``model-E-NLOS`` (18-tap indoor NLOS profile from the
IEEE 802.11 TGn channel model document, cluster powers summed per tap),
``single-tap-flat`` and ``two-tap-test``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ValidationError, check_finite, check_integer

SPEED_OF_LIGHT = 3.0e8  # m/s, nominal round value used throughout

# 2.4 GHz channel plan: channel k sits at 2400 + 5k MHz. Channels 1..15
# carry power, channel 16 is reserved for control traffic.
IEEE_PLAN_BASE_HZ = 2400e6
IEEE_PLAN_STEP_HZ = 5e6
IEEE_PLAN_MAX_CHANNELS = 15

_BUILTIN_PROFILES = ("model-E-NLOS", "single-tap-flat", "two-tap-test")


@dataclass(frozen=True)
class TapProfile:
    """Power delay profile: tap delays and unit-sum mean linear powers."""

    name: str
    delays_s: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays_s, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "delays_s", delays)
        object.__setattr__(self, "powers", powers)
        if delays.ndim != 1 or powers.ndim != 1 or delays.size != powers.size:
            raise ValidationError("profile needs matching 1-D delay and power lists")
        if delays.size == 0:
            raise ValidationError("profile has no taps")
        if not np.all(np.isfinite(delays)) or not np.all(np.isfinite(powers)):
            raise ValidationError("profile values must be finite")
        if delays[0] < 0:
            raise ValidationError("first tap delay must be >= 0")
        if delays.size > 1 and not np.all(np.diff(delays) > 0):
            raise ValidationError("tap delays must be strictly increasing")
        if not np.all(powers > 0):
            raise ValidationError("tap powers must all be > 0")
        if abs(powers.sum() - 1.0) > 1e-9:
            raise ValidationError(
                f"tap powers must sum to 1 (got {powers.sum():.12g}); "
                "use TapProfile.normalized() to rescale"
            )

    @classmethod
    def normalized(cls, name: str, delays_s, linear_powers) -> "TapProfile":
        """Build a profile, rescaling the given linear powers to unit sum."""
        p = np.asarray(linear_powers, dtype=float)
        with np.errstate(over="ignore"):
            total = p.sum()
        if p.size == 0 or not (np.all(p > 0) and total < math.inf):
            raise ValidationError("tap powers must be a non-empty positive list with a finite sum")
        return cls(name, np.asarray(delays_s, dtype=float), p / total)

    @property
    def num_taps(self) -> int:
        return int(self.delays_s.size)


def load_tap_profile(path, name: str | None = None) -> TapProfile:
    """Load a PDP file (``delay_ns power_db`` per line, ``#`` comments)."""
    delays_ns, powers_db, linenos = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 'delay_ns power_db'")
            try:
                delays_ns.append(float(parts[0]))
                powers_db.append(float(parts[1]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            linenos.append(lineno)
    if not delays_ns:
        raise ValidationError(f"{path}: no taps found")
    delays_s = np.asarray(delays_ns) * 1e-9
    with np.errstate(over="ignore"):
        linear = 10.0 ** (np.asarray(powers_db) / 10.0)
    bad = np.flatnonzero(~(np.isfinite(delays_s) & np.isfinite(powers_db) & np.isfinite(linear)))
    if bad.size:
        raise ValidationError(f"{path}:{linenos[bad[0]]}: delay or power beyond a finite float")
    return TapProfile.normalized(name or str(path), delays_s, linear)


def builtin_profile(name: str) -> TapProfile:
    """Load one of the packaged profiles by name."""
    if name not in _BUILTIN_PROFILES:
        raise ValidationError(
            f"unknown builtin profile {name!r}; available: {', '.join(_BUILTIN_PROFILES)}"
        )
    ref = resources.files("wptdas.data").joinpath(f"{name}.pdp")
    with resources.as_file(ref) as path:
        return load_tap_profile(path, name=name)


def resolve_profile(name_or_path: str) -> TapProfile:
    """Accept a builtin profile name or a PDP file path."""
    if name_or_path in _BUILTIN_PROFILES:
        return builtin_profile(name_or_path)
    return load_tap_profile(name_or_path)


@dataclass(frozen=True)
class ChannelRealization:
    """One sampled multipath channel per transmit antenna.

    ``gains`` has shape (num_antennas, num_taps); row m holds antenna m's
    complex tap gains, paired with the shared ``delays_s``. A stack of
    realizations over the same delays has leading batch axes, (...,
    num_antennas, num_taps), and goes through :func:`response_matrix` whole.
    """

    delays_s: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays_s, dtype=float)
        gains = np.asarray(self.gains, dtype=complex)
        object.__setattr__(self, "delays_s", delays)
        object.__setattr__(self, "gains", gains)
        if gains.ndim < 2 or gains.shape[-1] != delays.size:
            raise ValidationError("gains must be (num_antennas, num_taps)")
        if not np.all(np.isfinite(gains)):
            raise ValidationError("tap gains must be finite")

    @property
    def num_antennas(self) -> int:
        return int(self.gains.shape[-2])

    @property
    def num_taps(self) -> int:
        return int(self.delays_s.size)


def gains_from_normals(profile: TapProfile, z: np.ndarray) -> np.ndarray:
    """Tap gains (..., num_antennas, num_taps) from standard normals ``z`` (...,
    num_antennas, num_taps, real/imaginary), scaled in place by sqrt(tap power
    / 2) and viewed as complex: a stack gives each draw's gains alone."""
    z *= np.sqrt(profile.powers / 2.0)[:, None]
    return z.view(complex)[..., 0]


def sample_channel(profile: TapProfile, num_antennas: int,
                   rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization per antenna from ``profile``."""
    num_antennas = check_integer("num_antennas", num_antennas, low=1)
    z = rng.standard_normal((num_antennas, profile.num_taps, 2))
    return ChannelRealization(profile.delays_s, gains_from_normals(profile, z))


def response_matrix(ch: ChannelRealization, freqs_hz: np.ndarray) -> np.ndarray:
    """(..., num_antennas, num_freqs) complex responses for positive ``freqs_hz``."""
    freqs = np.asarray(freqs_hz, dtype=float)
    phase = np.exp(-2j * np.pi * np.outer(freqs, ch.delays_s))  # (N, L)
    return (phase @ ch.gains.swapaxes(-1, -2)).swapaxes(-1, -2)  # (..., M, N)


def path_loss_db(distance_m: float, freq_hz: float,
                 tx_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0) -> float:
    """Free-space path loss in dB, net of antenna gains."""
    args = dict(distance_m=distance_m, freq_hz=freq_hz, tx_gain_dbi=tx_gain_dbi,
                rx_gain_dbi=rx_gain_dbi)
    check_finite(args, *args)
    if distance_m <= 0:
        raise ValidationError("distance must be > 0")
    if freq_hz <= 0:
        raise ValidationError("frequency must be > 0")
    fspl = 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz / SPEED_OF_LIGHT)
    return fspl - tx_gain_dbi - rx_gain_dbi


@dataclass(frozen=True)
class LinkBudget:
    """Deterministic link scaling: transmit power and net loss.

    The channel realization is unit-mean, so the full deterministic scale
    lives here. ``path_loss_db`` should already be net of antenna gains when
    the gain fields are left at 0.
    """

    tx_power_w: float = 10.0 ** ((36.0 - 30.0) / 10.0)  # 36 dBm
    path_loss_db: float = 60.046
    tx_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0

    def __post_init__(self):
        check_finite(self, "tx_power_w", "path_loss_db", "tx_gain_dbi", "rx_gain_dbi")
        if self.tx_power_w <= 0:
            raise ValidationError("tx_power_w must be > 0")
        if self.path_loss_db < 0:
            raise ValidationError("path_loss_db must be >= 0")
        if not math.isfinite(self.scale()):
            raise ValidationError(f"tx_power_w at a net gain (tx_gain_dbi + rx_gain_dbi - "
                                  f"path_loss_db) of {-self.net_loss_db:g} dB overflows")

    @property
    def net_loss_db(self) -> float:
        return self.path_loss_db - self.tx_gain_dbi - self.rx_gain_dbi

    def scale(self, extra_loss_db: float = 0.0) -> float:
        """Received power per unit channel gain, ``tx_power_w`` over the net loss
        plus ``extra_loss_db``; inf where that overflows a float."""
        try:
            return self.tx_power_w * 10.0 ** (-(self.net_loss_db + extra_loss_db) / 10.0)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class FrequencyGrid:
    """Operating frequencies, and the ``mode`` that chose them: uniform in band or the plan."""

    mode: str
    frequencies_hz: np.ndarray = field(repr=False)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies_hz, dtype=float)
        object.__setattr__(self, "frequencies_hz", freqs)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValidationError("grid needs a non-empty 1-D frequency list")
        if not np.all(freqs > 0):
            raise ValidationError("frequencies must be > 0")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            raise ValidationError("frequencies must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.frequencies_hz.size)

    @classmethod
    def uniform(cls, center_hz: float = 2.4e9, bandwidth_hz: float = 75e6,
                count: int = 15) -> "FrequencyGrid":
        """``count`` points uniformly spanning the band, endpoints included."""
        count = check_integer("count", count, low=1)
        check_finite({"center_hz": center_hz, "bandwidth_hz": bandwidth_hz},
                     "center_hz", "bandwidth_hz")
        if bandwidth_hz < 0 or center_hz <= 0:
            raise ValidationError("need center_hz > 0 and bandwidth_hz >= 0")
        if count == 1:
            freqs = np.array([center_hz])
        else:
            freqs = np.linspace(center_hz - bandwidth_hz / 2.0,
                                center_hz + bandwidth_hz / 2.0, count)
        return cls("uniform-in-band", freqs)

    @classmethod
    def ieee_plan(cls, count: int = 15) -> "FrequencyGrid":
        """Channels 1..count of the 2.4 GHz plan (2405, 2410, ... MHz)."""
        if check_integer("count", count, low=1) > IEEE_PLAN_MAX_CHANNELS:
            raise ValidationError(
                f"channel plan supports 1..{IEEE_PLAN_MAX_CHANNELS} power channels"
            )
        k = np.arange(1, count + 1)
        return cls("ieee-channel-plan", IEEE_PLAN_BASE_HZ + IEEE_PLAN_STEP_HZ * k)
