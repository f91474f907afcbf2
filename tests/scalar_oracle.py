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
"""

from __future__ import annotations

import math

import numpy as np

from wptdas.channel import ChannelRealization, FrequencyGrid, sample_channel
from wptdas.errors import ValidationError
from wptdas.experiments import _sweep_cells
from wptdas.protocol import ControlLinkModel, Event, EventLog, FrameSchedule, encode_feedback
from wptdas.rectenna import settle, settling_energy
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK, substream
from wptdas.scheduler import TdmaResult, TraceRow
from wptdas.selection import SelectionDecision, check_powers, middle_index, select_pairs
from wptdas.signal_chain import dc_power_matrix


def frequency_response(ch: ChannelRealization, antenna: int, freq_hz: float) -> complex:
    """Complex channel response of 1-based ``antenna`` at ``freq_hz``.

    Sum over taps of gain * exp(-j 2 pi f delay). Negative frequencies
    return the conjugate of the positive-frequency response (real passband
    channel), so conjugate symmetry holds by construction.
    """
    if ch.gains.ndim != 2:
        raise ValidationError("frequency_response takes one realization, not a stack")
    if not 1 <= antenna <= ch.num_antennas:
        raise IndexError(f"antenna {antenna} out of range 1..{ch.num_antennas}")
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
    """One frame, one slot at a time; same signature and result as the library's."""
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
    selection = SelectionDecision(best_m, best_n, float(best_w))
    code = encode_feedback(selection.antenna, selection.frequency, (m_total, n_total))
    fb_delivered = deliver(link, rng)
    events.append(Event(t, "MessageSent", value=code))
    if fb_delivered:
        applied_m, applied_n = selection.antenna, selection.frequency
        events.append(Event(t, "FeedbackApplied", antenna=applied_m, frequency=applied_n))
    else:
        events.append(Event(t, "MessageDropped", value=code))
        applied_m, applied_n = _prior_pair(prior, n_total)

    applied_p = float(p_dc[applied_m - 1, applied_n - 1])
    events.append(Event(t, "WptPhaseStart", antenna=applied_m, frequency=applied_n))
    e_wpt, v = harvest_delivery(v, float(v_tgt[applied_m - 1, applied_n - 1]), applied_p,
                                sched, link, rect)
    events.append(Event(start_us + sched.frame_us(m_total * n_total), "FrameEnd"))

    log = EventLog(events=events, harvested_energy_training_j=e_train,
                   harvested_energy_wpt_j=e_wpt, selection=selection, applied_antenna=applied_m,
                   applied_frequency=applied_n, applied_power_w=applied_p,
                   emissions=emissions, final_voltage_v=v)
    return log, selection


def _passive_harvest(user, log, p_dc, sched, link):
    """(energy, steady dc power at the served pair) of a passive user's replay."""
    v_tgt = np.sqrt(p_dc * user.rect.load_ohms)
    e_train, _v_ends, v = harvest_training(log.emissions, v_tgt, user.voltage_v,
                                           sched, link, user.rect)
    served = (log.applied_antenna - 1, log.applied_frequency - 1)
    applied_p = float(p_dc[served])
    e_wpt, user.voltage_v = harvest_delivery(v, float(v_tgt[served]), applied_p,
                                             sched, link, user.rect)
    return e_train + e_wpt, applied_p


def run_tdma(users, frames, grid, budget, profile=None, rng=None, sched=None, link=None,
             adc=None, keep_logs=False, p_dc=None, antennas=4):
    """Round-robin TDMA, one frame at a time: the library's result, and each
    frame's event log in frame order when ``keep_logs`` asks for them.

    ``p_dc``, one matrix per user, stands in for the matrices of channels
    drawn each round from ``profile`` with ``antennas`` antennas.
    """
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    k = len(users)
    rows, logs = [], []
    for i in range(frames):
        if i % k == 0:
            round_dc = p_dc if p_dc is not None else [
                dc_power_matrix(sample_channel(profile, antennas, rng),
                                grid, budget, u.rect.curve, u.extra_loss_db)
                for u in users]
            frame_us = sched.frame_us(round_dc[0].size)
            frame_s = frame_us * 1e-6
        active = users[i % k]
        log, _sel = run_frame(round_dc[i % k], active.rect, sched=sched, link=link,
                              prior=active.prior, rng=rng, adc=adc,
                              start_us=i * frame_us, v_initial=active.voltage_v)
        if keep_logs:
            logs.append(log)
        active.prior = (log.applied_antenna, log.applied_frequency)
        active.voltage_v = log.final_voltage_v
        e_active = log.harvested_energy_training_j + log.harvested_energy_wpt_j
        active.energy_j += e_active
        rows.append(TraceRow(i, active.user_id, True, log.applied_antenna,
                             log.applied_frequency, e_active / frame_s, active.energy_j))
        for u, u_dc in zip(users, round_dc):
            if u is active:
                continue
            e_passive, _p_served = _passive_harvest(u, log, u_dc, sched, link)
            u.energy_j += e_passive
            rows.append(TraceRow(i, u.user_id, False, log.applied_antenna,
                                 log.applied_frequency, e_passive / frame_s, u.energy_j))
    return TdmaResult(rows), logs


def protocol_values(cfg, sched=None, link=None, adc=None):
    """Per-realization values {(m, k): (R, users) array} of the protocol sweep,
    one realization, cell and frame at a time: each user's steady dc power at
    the pair served in each frame of the round, averaged over the round. Each
    cell's matrices are the slice of the realization's full-grid dc matrices
    at the cell's antennas and frequencies."""
    from wptdas.scheduler import UserState

    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    cells = list(_sweep_cells(cfg))
    values = {(m, k): np.zeros((cfg.realizations, cfg.users)) for m, k, _ in cells}
    for r in range(cfg.realizations):
        dc = dc_tensor(cfg, r, r + 1)[0]
        link_rng = substream(cfg.seed, DOMAIN_LINK, r)
        for m, k, cols in cells:
            users = [UserState(user_id=u + 1, rect=cfg.rect) for u in range(cfg.users)]
            cell_dc = [dc[u, :m][:, cols] for u in range(cfg.users)]
            res, _logs = run_tdma(users, cfg.users, None, None, sched=sched, link=link,
                                  rng=link_rng, adc=adc, p_dc=cell_dc)
            per_user = np.zeros(cfg.users)
            counts = np.zeros(cfg.users)
            for row in res.rows:
                per_user[row.user_id - 1] += float(
                    cell_dc[row.user_id - 1][row.antenna - 1, row.frequency - 1])
                counts[row.user_id - 1] += 1
            values[(m, k)][r] = per_user / counts
    return values


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
    if not 1 <= num_antennas <= ch.num_antennas:
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
