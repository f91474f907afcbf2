"""Rectifier RF-to-dc conversion, dc load voltage, and output settling.

The conversion efficiency is a nonlinear function of input RF power: it
rises from the noise floor, peaks near the diode's optimum drive, and
collapses past diode breakdown. Two representations are supported:

* ``table`` - a measured grid over (input power dBm, frequency Hz),
  queried with bilinear interpolation and clamped to edge values outside
  the grid. Table files are plain text: first row the frequency axis in
  MHz, then one row per input power (dBm followed by efficiencies).
* ``parametric`` - a closed form for a low-barrier single-diode rectifier:
  logistic rise in the dB domain, scaled so the curve passes exactly
  through ``eta_peak`` at ``peak_dbm``, with an exponential efficiency
  roll-off of ``breakdown_slope`` dB per dB above ``breakdown_dbm``.
  The defaults give 0.25 at -20 dBm and 0.40 at 0 dBm.

The dc output feeds a resistive load through a low-pass filter, so the
output voltage settles toward sqrt(P_dc * R) as a first-order exponential
with time constant ``settle_tau_s``; slots much shorter than the time
constant therefore yield ADC samples that misstate the steady state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_axis, check_finite, read_rows

# Logistic argument at the peak-power anchor: sigma(ln 9) = 0.9, which with
# the default slope ln(7)/20 puts the rise exactly through (-20 dBm, 0.25)
# when eta_peak = 0.40 at 0 dBm.
_RISE_SHOULDER = math.log(9.0)
DEFAULT_RISE_SLOPE = math.log(7.0) / 20.0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class EfficiencyCurve:
    """RF-to-dc efficiency versus input power (and frequency)."""

    source: str  # "table" or "parametric"
    # table mode
    power_axis_dbm: np.ndarray | None = None
    freq_axis_hz: np.ndarray | None = None
    table: np.ndarray | None = None
    # parametric mode
    eta_peak: float = 0.40
    peak_dbm: float = 0.0
    rise_slope: float = DEFAULT_RISE_SLOPE
    breakdown_dbm: float = 3.0
    breakdown_slope: float = 3.0

    def __post_init__(self):
        check_finite(self, "eta_peak", "peak_dbm", "rise_slope", "breakdown_dbm", "breakdown_slope")
        if self.source == "table":
            for name in ("power_axis_dbm", "freq_axis_hz"):
                object.__setattr__(self, name, check_axis(name, getattr(self, name)))
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
            p, f, t = self.power_axis_dbm, self.freq_axis_hz, self.table
            if t.shape != (p.size, f.size):
                raise ValidationError("table must be (len(power_axis), len(freq_axis))")
            if not np.all((t >= 0.0) & (t <= 1.0)):
                raise ValidationError("efficiencies must lie in [0, 1]")
        elif self.source == "parametric":
            if not 0 < self.eta_peak <= 0.9:
                # sigma(shoulder) = 0.9 caps the logistic ceiling at eta_peak/0.9
                raise ValidationError("eta_peak must be in (0, 0.9]")
            if self.rise_slope <= 0 or self.breakdown_slope <= 0:
                raise ValidationError("rise_slope and breakdown_slope must be > 0")
            if self.breakdown_dbm < self.peak_dbm:
                raise ValidationError("breakdown_dbm must be >= peak_dbm")
        else:
            raise ValidationError(f"unknown curve source {self.source!r}")

    @classmethod
    def parametric(cls, **params: float) -> "EfficiencyCurve":
        """The closed form; ``params`` override its fields' defaults."""
        return cls("parametric", **params)

    @classmethod
    def from_table(cls, power_axis_dbm, freq_axis_hz, table) -> "EfficiencyCurve":
        return cls("table", power_axis_dbm=power_axis_dbm, freq_axis_hz=freq_axis_hz,
                   table=table)

    def efficiency(self, p_rf_w, freq_hz):
        """Efficiency in [0, 1]; zero input power maps to zero. Vectorized over
        powers; ``freq_hz`` broadcasts to their shape (a scalar power is one)."""
        p = np.asarray(p_rf_w, dtype=float)
        f = np.asarray(freq_hz)
        if not np.all((p >= 0.0) & (p < math.inf)):
            raise ValidationError("p_rf_w must be finite and >= 0")
        if f.dtype.kind not in "iuf" or not np.all((f > 0) & (f < math.inf)):
            raise ValidationError(f"freq_hz must be finite numbers > 0, got {freq_hz!r}")
        scalar = p.ndim == 0 and f.ndim == 0
        p = np.atleast_1d(p)
        try:
            np.broadcast_to(f, p.shape)
        except ValueError:
            raise ValidationError(f"freq_hz of shape {f.shape} does not broadcast to "
                                  f"p_rf_w's shape {p.shape}") from None
        with np.errstate(divide="ignore"):  # zero power is -inf dBm, which both forms clamp
            p_dbm = 10.0 * np.log10(p) + 30.0
        if self.source == "table":
            out = self._lookup(p_dbm, f.astype(float, copy=False))
        else:
            out = self._closed_form(p_dbm)
        live = p > 0
        if not live.all():  # zero power maps to zero
            out[~live] = 0.0
        return float(out[0]) if scalar else out

    def _closed_form(self, p_dbm: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # a steep rise saturates the logistic at 0 or 1
            rise = _sigmoid(self.rise_slope * (p_dbm - self.peak_dbm) + _RISE_SHOULDER)
        eta = self.eta_peak * rise / _sigmoid(_RISE_SHOULDER)
        over = p_dbm > self.breakdown_dbm
        if np.any(over):
            eta[over] *= 10.0 ** (-self.breakdown_slope
                                  * (p_dbm[over] - self.breakdown_dbm) / 10.0)
        return np.clip(eta, 0.0, 1.0)

    def _lookup(self, p_dbm: np.ndarray, f_hz: np.ndarray) -> np.ndarray:
        """Bilinear lookup of the powers ``p_dbm`` at ``f_hz``, which broadcasts to
        their shape and is weighted once per frequency."""
        i0, wp = _axis_weights(self.power_axis_dbm, p_dbm)
        j0, wf = _axis_weights(self.freq_axis_hz, f_hz)
        t, n_f = self.table.ravel(), self.freq_axis_hz.size
        # on an axis longer than one the upper corner is the next entry, else the same
        lo = i0 * n_f + j0
        hi = lo + (n_f if self.power_axis_dbm.size > 1 else 0)
        dj = int(n_f > 1)
        return ((1 - wp) * (1 - wf) * t.take(lo) + (1 - wp) * wf * t.take(lo + dj)
                + wp * (1 - wf) * t.take(hi) + wp * wf * t.take(hi + dj))


def _axis_weights(axis: np.ndarray, x: np.ndarray):
    """Clamped linear-interpolation lower indices and weights along one axis."""
    if axis.size == 1:
        return np.zeros(x.shape, dtype=np.intp), np.zeros(x.shape)
    hi = np.clip(np.searchsorted(axis, x, side="right"), 1, axis.size - 1)
    lo = hi - 1
    half = 0.5 * axis  # exact: no difference overflows, and w keeps its bits above subnormals
    w = (0.5 * x - half[lo]) / (half[hi] - half[lo])
    return lo, np.clip(w, 0.0, 1.0)


def load_efficiency_table(path) -> EfficiencyCurve:
    """Load a plain-text efficiency table (see module docstring for format)."""
    rows = list(read_rows(path))
    if len(rows) < 2:
        raise ValidationError(f"{path}: need a frequency row plus at least one power row")
    (_, freq_mhz), *body = rows
    for lineno, row in body:
        if len(row) != len(freq_mhz) + 1:
            raise ValidationError(f"{path}:{lineno}: expected {len(freq_mhz) + 1} columns")
    table = np.array([row for _, row in body])
    return EfficiencyCurve.from_table(table[:, 0], [x * 1e6 for x in freq_mhz], table[:, 1:])


@dataclass(frozen=True)
class RectennaConfig:
    """Conversion curve plus the dc-side load and settling dynamics."""

    curve: EfficiencyCurve = field(default_factory=EfficiencyCurve.parametric)
    load_ohms: float = 10_000.0
    settle_tau_s: float = 0.002

    def __post_init__(self):
        check_finite(self, "load_ohms", "settle_tau_s")
        if self.load_ohms < sys.float_info.min:  # a subnormal load zeroes v * v / load
            raise ValidationError(f"load_ohms must be a normal float > 0, got {self.load_ohms!r}")
        if self.settle_tau_s <= 0:
            raise ValidationError("settle_tau_s must be > 0")


# The closed form of one settling segment, split so that a batched walk can
# step the voltage slot by slot and then take every segment's energy at
# once. ``decay`` is ``math.exp(-duration_s / tau_s)`` and ``rise`` is
# ``-math.expm1(-duration_s / tau_s)``, i.e. ``1 - decay`` without the
# cancellation of that difference when the segment is short against tau;
# the caller computes both once per (duration, time constant). Every other
# operand may be an array: each element then meets the same float
# operations, in the same order, as Python floats do, so a batched walk and
# a walk of one Python float at a time agree exactly. Squares are ``x * x``:
# Python's ``x ** 2`` calls ``pow``, which can differ from numpy's square in
# the last bit.

def settle(v_initial, v_target, decay, out=None):
    """Output voltage at the end of a segment that starts at ``v_initial``,
    written into ``out`` if given, which may be ``v_target`` itself."""
    return np.add(v_target, (v_initial - v_target) * decay, out=out)


def segment_energy(v_initial, v_target, duration_s, rise, tau_s, load_ohms):
    """Energy delivered to the load over one segment of ``duration_s > 0``."""
    delta = v_initial - v_target
    # 1 - decay**2 = rise * (1 + decay) = rise * (2 - rise)
    return (v_target * v_target * duration_s
            + 2.0 * v_target * delta * tau_s * rise
            + delta * delta * (tau_s / 2.0) * (rise * (2.0 - rise))) / load_ohms
