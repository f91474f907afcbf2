"""Scalar reference forms of the frame protocol, the ideal sweep's dc tensor
and the channel response, kept as test oracles.

The frame protocol is written one frame, one receiver and one slot at a
time with Python floats, and the dc tensor one realization and user at a
time: the forms the library had before they were batched over
realizations and users. The tests hold the library's batched code to them
with exact (``==``) comparisons, so any change to the order of the
floating-point operations, the rng draws, blanking or fallback shows up as
a mismatch. The channel response is summed one antenna, frequency and tap
at a time, the direct form of the library's response matrix. The single-value
helpers at the end (received RF power, dc power and voltage, settled
voltage, tap phases) state the rectenna and link formulas one number at a
time for the unit tests; the antenna subset and the explicit frequency grid
build a nested cell's own channel and grid.

The ideal sweep's strategy values are formed one (cell, strategy) at a
time, each cell's matrices copied out of the dc tensor, and a table
curve's efficiency weighs every entry's frequency on its own and reads each
corner with a two-index gather: the forms the library had before it
gathered a cell's strategies, and a lookup's corners, in one pass each.

The library starts every run at rest (0 V, no earlier pair, t = 0). The
oracle's frame walk takes a start voltage, a prior pair and a time offset,
which its TDMA walk carries from frame to frame, one user at a time, as
the library's engine carries them for a whole batch. That walk builds one
trace row per frame and user, the form the library's TDMA trace had before
it kept whole arrays, and writes them out one row at a time.
"""

from __future__ import annotations

import dataclasses
import io
import math
from typing import NamedTuple

import numpy as np

from wptdas.channel import ChannelRealization, FrequencyGrid, sample_channel
from wptdas.errors import ValidationError
from wptdas.experiments import TRACE_COLUMNS, _sweep_cells
from wptdas.protocol import ControlLinkModel, Event, FrameSchedule, encode_feedback, frame_log
from wptdas.rectenna import segment_energy, settle
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK, DOMAIN_TDMA, substream
from wptdas.selection import check_powers, middle_index, select_pairs
from wptdas.signal_chain import dc_power_matrix


def settling_energy(v_initial: float, v_target: float, duration_s: float,
                    cfg) -> tuple[float, float]:
    """Energy delivered to the load while settling, and the end voltage.

    Integrates v(t)^2 / R in closed form over one settling segment: the
    library's :func:`segment_energy` and :func:`settle` for one Python float.
    """
    if duration_s < 0:
        raise ValidationError("duration_s must be >= 0")
    if duration_s == 0:
        return 0.0, v_initial
    tau = cfg.settle_tau_s
    return (segment_energy(v_initial, v_target, duration_s, -math.expm1(-duration_s / tau),
                           tau, cfg.load_ohms),
            settle(v_initial, v_target, math.exp(-duration_s / tau)))


def frequency_response(ch: ChannelRealization, antenna: int, freq_hz: float) -> complex:
    """Complex channel response of 1-based ``antenna`` at ``freq_hz``.

    Sum over taps of gain * exp(-j 2 pi f delay). Negative frequencies
    return the conjugate of the positive-frequency response (real passband
    channel), so conjugate symmetry holds by construction.
    """
    if ch.gains.ndim != 2:
        raise ValidationError("frequency_response takes one realization, not a stack")
    if not 1 <= antenna <= ch.gains.shape[-2]:
        raise IndexError(f"antenna {antenna} out of range 1..{ch.gains.shape[-2]}")
    g = ch.gains[antenna - 1]
    h = complex(np.sum(g * np.exp(-2j * np.pi * abs(freq_hz) * ch.delays_s)))
    return h if freq_hz >= 0 else h.conjugate()


def select_one(values, strategy):
    """1-based (antenna, frequency, value) that ``select_pairs`` picks in one matrix."""
    v = check_powers(values)
    a, f = (int(i) for i in select_pairs(v, strategy))
    return a + 1, f + 1, v[a, f]


def deliver(link: ControlLinkModel, rng) -> bool:
    """One delivery trial. Consumes a draw only on a lossy link."""
    if link.drop_probability <= 0.0:
        return True
    if rng is None:
        raise ValidationError("a lossy control link needs an rng")
    return rng.random() >= link.drop_probability


def quantize(adc, voltage: float) -> float:
    lsb = adc.v_ref / (2 ** adc.bits - 1)
    return round(min(max(voltage, 0.0), adc.v_ref) / lsb) * lsb


def _blank_us(link: ControlLinkModel, n: int, slot_us: int) -> int:
    return min(max(link.latency_us - (n - 1) * slot_us, 0), slot_us)


def harvest_training(emissions, v_tgt, v, sched, link, rect):
    """(energy, voltage at each slot end, final voltage) over the training slots."""
    slot_us = sched.slot_us
    energy = 0.0
    v_ends = []
    for ant, n in emissions:
        blank_us = slot_us if ant is None else _blank_us(link, n, slot_us)
        if blank_us > 0:
            de, v = settling_energy(v, 0.0, blank_us * 1e-6, rect)
            energy += de
        if blank_us < slot_us:
            de, v = settling_energy(v, float(v_tgt[ant - 1, n - 1]),
                                    (slot_us - blank_us) * 1e-6, rect)
            energy += de
        v_ends.append(v)
    return energy, v_ends, v


def harvest_delivery(v, v_served, p_served, sched, link, rect):
    """(energy, end voltage) over the delivery phase."""
    wpt_us = sched.wpt_us
    blank_us = min(link.latency_us, wpt_us)
    de = 0.0
    if blank_us > 0:
        de, v = settling_energy(v, 0.0, blank_us * 1e-6, rect)
    if wpt_us > blank_us:
        v = v_served
    return de + p_served * (wpt_us - blank_us) * 1e-6, v


def _prior_pair(prior, n_total):
    if prior is None:
        return 1, middle_index(n_total)
    m, n = prior
    return int(m), int(n)


def run_frame(p_dc, rect, sched=None, link=None, prior=None, rng=None, adc=None,
              start_us=0, v_initial=0.0):
    """One frame, one slot at a time: the library's arguments plus the start
    state a walk takes (a 1-based ``prior`` pair or None, ``v_initial``) and
    a log that starts at ``start_us``; the frame as :func:`batch_frame`
    reads it from a walk."""
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    p_dc = check_powers(p_dc)
    m_total, n_total = p_dc.shape
    v_tgt = np.sqrt(p_dc * rect.load_ohms)

    slot_us = sched.slot_us
    delivered = [deliver(link, rng) for _ in range(m_total)]
    emissions = [(m if delivered[m - 1] and _blank_us(link, n, slot_us) < slot_us else None, n)
                 for m in range(1, m_total + 1) for n in range(1, n_total + 1)]
    e_train, v_ends, v = harvest_training(emissions, v_tgt, float(v_initial),
                                          sched, link, rect)
    samples = v_ends if adc is None else [quantize(adc, x) for x in v_ends]
    adc_powers = np.square(samples).reshape(m_total, n_total) / rect.load_ohms

    events = []
    slot_samples = iter(samples)
    t = int(start_us)
    for m in range(1, m_total + 1):
        events.append(Event(t, "MessageSent", antenna=m))
        if not delivered[m - 1]:
            events.append(Event(t, "MessageDropped", antenna=m))
        for n in range(1, n_total + 1):
            events.append(Event(t, "SlotStart", antenna=m, frequency=n))
            t += slot_us
            events.append(Event(t, "AdcSample", antenna=m, frequency=n,
                                value=next(slot_samples)))

    best_m, best_n, best_w = select_one(adc_powers, "joint")
    code = encode_feedback(best_m, best_n, (m_total, n_total))
    fb_delivered = deliver(link, rng)
    events.append(Event(t, "MessageSent", value=code))
    if fb_delivered:
        applied_m, applied_n = best_m, best_n
        events.append(Event(t, "FeedbackApplied", antenna=applied_m, frequency=applied_n))
    else:
        events.append(Event(t, "MessageDropped", value=code))
        applied_m, applied_n = _prior_pair(prior, n_total)

    applied_p = float(p_dc[applied_m - 1, applied_n - 1])
    events.append(Event(t, "WptPhaseStart", antenna=applied_m, frequency=applied_n))
    e_wpt, v = harvest_delivery(v, float(v_tgt[applied_m - 1, applied_n - 1]), applied_p,
                                sched, link, rect)
    events.append(Event(start_us + sched.frame_us(m_total * n_total), "FrameEnd"))

    return dict(events=events, activated=delivered, fed_back=fb_delivered, samples=samples,
                selected=(best_m, best_n), selected_w=float(best_w),
                applied=(applied_m, applied_n), applied_w=applied_p, emissions=emissions,
                training_j=e_train, wpt_j=e_wpt, voltage_v=v)


def batch_frame(batch, b, j, sched, start_us=0):
    """Frame ``j`` of run ``b`` of a library walk, for its training user, in
    the terms of :func:`run_frame`: 1-based pairs, Python numbers, each
    slot's (antenna or None when the transmitter is idle, frequency), and
    the frame's events moved ``start_us`` on from the library's t = 0; with
    every user's energies, served power and end voltage under "users", as
    :func:`run_tdma` keeps them."""
    u = j % batch.served_w.shape[-1]
    emitting = batch.emitting[b, j].tolist()
    events = [dataclasses.replace(e, t_us=e.t_us + start_us)
              for e in frame_log(batch, b, j, sched)]
    return dict(events=events,
                activated=batch.activated[b, j].tolist(),
                fed_back=bool(batch.fed_back[b, j]),
                samples=batch.samples[b, j].tolist(),
                selected=tuple((batch.selected[b, j] + 1).tolist()),
                selected_w=float(batch.selected_w[b, j]),
                applied=tuple((batch.applied[b, j] + 1).tolist()),
                applied_w=float(batch.served_w[b, j, u]),
                emissions=[(m + 1 if on else None, n + 1)
                           for m, row in enumerate(emitting) for n, on in enumerate(row)],
                training_j=float(batch.training_j[b, j, u]),
                wpt_j=float(batch.wpt_j[b, j, u]),
                voltage_v=float(batch.voltage_v[b, j, u]),
                users=list(zip(*(getattr(batch, name)[b, j].tolist() for name in
                                 ("training_j", "wpt_j", "served_w", "voltage_v")))))


def batch_fields(kept):
    """The :class:`wptdas.protocol.RoundBatch` fields of one run, (F, ...)
    arrays, from the frames :func:`run_tdma` kept."""
    m_total = len(kept[0]["activated"])
    users = np.array([frame["users"] for frame in kept])  # (F, K, 4)
    return dict(
        activated=np.array([frame["activated"] for frame in kept]),
        fed_back=np.array([frame["fed_back"] for frame in kept]),
        emitting=np.array([[m is not None for m, _n in frame["emissions"]]
                           for frame in kept]).reshape(len(kept), m_total, -1),
        samples=np.array([frame["samples"] for frame in kept]),
        selected=np.array([frame["selected"] for frame in kept]) - 1,
        selected_w=np.array([frame["selected_w"] for frame in kept]),
        applied=np.array([frame["applied"] for frame in kept]) - 1,
        training_j=users[..., 0], wpt_j=users[..., 1], served_w=users[..., 2],
        voltage_v=users[..., 3])


def _passive_harvest(rect, v, frame, p_dc, sched, link):
    """(training energy, delivery energy, steady dc power at the served pair,
    end voltage) of a passive user's replay of ``frame``'s emissions and
    served pair from voltage ``v``."""
    v_tgt = np.sqrt(p_dc * rect.load_ohms)
    e_train, _v_ends, v = harvest_training(frame["emissions"], v_tgt, v, sched, link, rect)
    served = (frame["applied"][0] - 1, frame["applied"][1] - 1)
    applied_p = float(p_dc[served])
    e_wpt, v = harvest_delivery(v, float(v_tgt[served]), applied_p, sched, link, rect)
    return e_train, e_wpt, applied_p, v


class TraceRow(NamedTuple):
    frame: int
    user_id: int
    active: bool
    antenna: int
    frequency: int
    p_dc_w: float  # frame-average dc power (frame energy / frame duration)
    energy_j: float  # cumulative harvested energy for this user


def trace_csv(rows) -> str:
    """The rows as the library's TDMA trace writes them."""
    return TRACE_COLUMNS + "\n" + "".join(
        f"{r.frame},{r.user_id},{int(r.active)},{r.antenna},"
        f"{r.frequency},{r.p_dc_w:.12g},{r.energy_j:.12g}\n" for r in rows)


def assert_same_trace(result, rows):
    """The library's TDMA arrays equal the rows' values exactly, and its trace
    writes them in the rows' order."""
    frames, users = result.p_dc_w.shape
    assert len(rows) == frames * users
    for r in rows:
        assert tuple(result.applied[r.frame].tolist()) == (r.antenna, r.frequency)
        assert result.p_dc_w[r.frame, r.user_id - 1] == r.p_dc_w
        assert result.energy_j[r.frame, r.user_id - 1] == r.energy_j
    buf = io.StringIO()
    result.to_csv(buf)
    assert buf.getvalue() == trace_csv(rows)


def run_tdma(cfg, frames, sched=None, link=None, adc=None, keep_frames=False, p_dc=None,
             rng=None):
    """Round-robin TDMA from rest over users ``1..cfg.users``, all with the
    rectenna ``cfg.rect``, one frame at a time: the trace rows in the order
    the library writes them (each frame's training user first, then the
    others in ascending order), and each frame's :func:`run_frame` result in
    frame order when ``keep_frames`` asks, with each user's (training energy,
    delivery energy, steady dc power at the served pair, end voltage) under
    "users".

    Each round draws user u's channel alone with :func:`sample_channel`, with
    ``cfg.max_antennas`` antennas, and takes its dc matrix with loss
    ``cfg.loss_for_user(u)``; the round's link draws follow, all from
    ``substream(cfg.seed, DOMAIN_TDMA)``. ``p_dc``, one list of one matrix per
    user for each round, stands in for the drawn matrices, and then the link
    draws come from ``rng``. Each user's prior pair, output voltage and
    harvest are kept here, from frame to frame.
    """
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    if p_dc is None:
        rng = substream(cfg.seed, DOMAIN_TDMA)
    rect, k = cfg.rect, cfg.users
    prior = [None] * k
    voltage = [0.0] * k
    energy = [0.0] * k
    rows, kept = [], []
    for i in range(frames):
        if i % k == 0:
            round_dc = p_dc[i // k] if p_dc is not None else [
                dc_power_matrix(sample_channel(cfg.profile, cfg.max_antennas, rng), cfg.grid,
                                cfg.budget, rect.curve, cfg.loss_for_user(u))
                for u in range(k)]
            frame_us = sched.frame_us(round_dc[0].size)
            frame_s = frame_us * 1e-6
        a = i % k
        frame = run_frame(round_dc[a], rect, sched=sched, link=link,
                          prior=prior[a], rng=rng, adc=adc,
                          start_us=i * frame_us, v_initial=voltage[a])
        antenna, frequency = prior[a] = frame["applied"]
        voltage[a] = frame["voltage_v"]
        per_user = [None] * k
        per_user[a] = (frame["training_j"], frame["wpt_j"], frame["applied_w"], voltage[a])
        e_active = frame["training_j"] + frame["wpt_j"]
        energy[a] += e_active
        rows.append(TraceRow(i, a + 1, True, antenna, frequency, e_active / frame_s, energy[a]))
        for u, u_dc in enumerate(round_dc):
            if u == a:
                continue
            e_train, e_wpt, p_served, voltage[u] = _passive_harvest(
                rect, voltage[u], frame, u_dc, sched, link)
            per_user[u] = (e_train, e_wpt, p_served, voltage[u])
            e_passive = e_train + e_wpt
            energy[u] += e_passive
            rows.append(TraceRow(i, u + 1, False, antenna, frequency,
                                 e_passive / frame_s, energy[u]))
        if keep_frames:
            kept.append(dict(frame, users=per_user))
    return rows, kept


def protocol_values(cfg, sched=None, link=None, adc=None):
    """Per-realization values {(m, k, "joint"): (R, users) array} of the protocol sweep,
    one realization, cell and frame at a time: each user's steady dc power at
    the pair served in each frame of the round, averaged over the round. Each
    cell's matrices are the slice of the realization's full-grid dc matrices
    at the cell's antennas and frequencies."""
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    cells = list(_sweep_cells(cfg))
    values = {(m, k, "joint"): np.zeros((cfg.realizations, cfg.users)) for m, k, _ in cells}
    for r in range(cfg.realizations):
        dc = dc_tensor(cfg, r, r + 1)[0]
        link_rng = substream(cfg.seed, DOMAIN_LINK, r)
        for m, k, cols in cells:
            cell_dc = [dc[u, :m][:, cols] for u in range(cfg.users)]
            rows, _frames = run_tdma(cfg, cfg.users, sched=sched, link=link, adc=adc,
                                     p_dc=[cell_dc], rng=link_rng)
            per_user = np.zeros(cfg.users)
            counts = np.zeros(cfg.users)
            for row in rows:
                per_user[row.user_id - 1] += float(
                    cell_dc[row.user_id - 1][row.antenna - 1, row.frequency - 1])
                counts[row.user_id - 1] += 1
            values[(m, k, "joint")][r] = per_user / counts
    return values


def cell_values(cfg, dc):
    """Per-realization strategy values {(m, k, strategy): (R, users) array} of a
    (R, U, M_max, N) dc tensor, one cell and strategy at a time."""
    dc = check_powers(dc)
    n_real, users = dc.shape[:2]
    rows = np.arange(n_real)[:, None, None]
    user = np.arange(users)
    out = {}
    for m, k, cols in _sweep_cells(cfg):
        sub = dc[:, :, :m][..., cols]
        for strategy in cfg.strategies:
            a, f = select_pairs(sub, strategy)
            # harvest[r, u, v]: user u's power at the pair user v selected
            harvest = sub[rows, user[:, None], a[:, None, :], f[:, None, :]]
            own = harvest[:, user, user]
            harvest[:, user, user] = 0.0
            passive = np.zeros((n_real, users))
            for v in range(users):  # one add per user, as a scalar sum would
                passive += harvest[:, :, v]
            out[(m, k, strategy)] = (own + passive) / users
    return out


def _axis_weights(axis, x):
    """Clamped linear-interpolation indices and weights along one axis."""
    if axis.size == 1:
        z = np.zeros(x.shape, dtype=int)
        return z, z, np.zeros(x.shape)
    hi = np.clip(np.searchsorted(axis, x, side="right"), 1, axis.size - 1)
    lo = hi - 1
    w = (x - axis[lo]) / (axis[hi] - axis[lo])
    return lo, hi, np.clip(w, 0.0, 1.0)


def table_efficiency(curve, p_rf_w, freq_hz):
    """A table curve's efficiency as an array of at least one dimension, each
    entry's frequency broadcast out and weighted on its own."""
    p = np.atleast_1d(np.asarray(p_rf_w, dtype=float))
    f = np.broadcast_to(np.asarray(freq_hz, dtype=float), p.shape)
    out = np.zeros(p.shape)
    live = p > 0
    if np.any(live):
        p_dbm = 10.0 * np.log10(p[live]) + 30.0
        i0, i1, wp = _axis_weights(curve.power_axis_dbm, p_dbm)
        j0, j1, wf = _axis_weights(curve.freq_axis_hz, f[live])
        t = curve.table
        out[live] = ((1 - wp) * (1 - wf) * t[i0, j0] + (1 - wp) * wf * t[i0, j1]
                     + wp * (1 - wf) * t[i1, j0] + wp * wf * t[i1, j1])
    return out


def dc_tensor(cfg, r0, r1):
    """Steady-state dc powers of realizations [r0, r1), shape (R, U, M_max, N),
    one realization and user at a time, each channel drawn as one
    (antennas, taps, real/imaginary) array of normals."""
    scale = np.sqrt(cfg.profile.powers / 2.0)
    dc = np.empty((r1 - r0, cfg.users, cfg.max_antennas, cfg.grid.count))
    for r in range(r0, r1):
        for u in range(cfg.users):
            z = substream(cfg.seed, DOMAIN_CHANNEL, r, u).standard_normal(
                (cfg.max_antennas, cfg.profile.num_taps, 2))
            ch = ChannelRealization(cfg.profile.delays_s, (z[..., 0] + 1j * z[..., 1]) * scale)
            dc[r - r0, u] = dc_power_matrix(ch, cfg.grid, cfg.budget, cfg.rect.curve,
                                            cfg.loss_for_user(u))
    return dc


def received_rf_power(budget, amplitude: float) -> float:
    """RF power in watts at the rectenna for a fading amplitude."""
    if amplitude < 0:
        raise ValidationError("amplitude must be >= 0")
    return budget.tx_power_w * 10.0 ** (-budget.net_loss_db / 10.0) * amplitude ** 2


def output_dc_power(p_rf_w, curve, freq_hz):
    """dc output power: input RF power times the efficiency at that power."""
    p = np.asarray(p_rf_w, dtype=float)
    out = p * curve.efficiency(p, freq_hz)
    return float(out) if out.ndim == 0 else out


def dc_voltage(p_dc_w, load_ohms: float):
    """Voltage across a resistive load dissipating ``p_dc_w``."""
    if load_ohms <= 0:
        raise ValidationError("load_ohms must be > 0")
    p = np.asarray(p_dc_w, dtype=float)
    if np.any(p < 0):
        raise ValidationError("p_dc_w must be >= 0")
    v = np.sqrt(p * load_ohms)
    return float(v) if v.ndim == 0 else v


def settled_voltage(v_target: float, v_initial: float, elapsed_s: float, cfg) -> float:
    """First-order settling of the output voltage after a step change."""
    if elapsed_s < 0:
        raise ValidationError("elapsed_s must be >= 0")
    if elapsed_s == 0:
        return v_initial
    return settle(v_initial, v_target, math.exp(-elapsed_s / cfg.settle_tau_s))


def subset(ch: ChannelRealization, num_antennas: int) -> ChannelRealization:
    """View of the first ``num_antennas`` antennas (nested antenna sets)."""
    if not 1 <= num_antennas <= ch.gains.shape[-2]:
        raise ValidationError("antenna subset out of range")
    return ChannelRealization(ch.delays_s, ch.gains[..., :num_antennas, :])


def grid_from_frequencies(freqs_hz, mode: str = "subset") -> FrequencyGrid:
    """Explicit frequency list, such as a nested sweep subset of a grid."""
    freqs = np.asarray(freqs_hz, dtype=float)
    if freqs.size == 0:
        raise ValidationError("frequency list is empty")
    return FrequencyGrid(mode, freqs)


def phases(ch: ChannelRealization) -> np.ndarray:
    """Tap phases of ``ch`` in [-pi, pi)."""
    p = np.angle(ch.gains)
    p[p == np.pi] = -np.pi
    return p
