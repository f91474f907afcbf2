"""Scalar reference walk of the frame protocol, kept as a test oracle.

This is the frame protocol written one frame, one receiver and one slot at
a time with Python floats: the form the library had before its walk was
batched over realizations and users. The tests hold the library's batched
engine to it with exact (``==``) comparisons, so any change to the order
of the floating-point operations, the rng draws, blanking or fallback
shows up as a mismatch.
"""

from __future__ import annotations

import numpy as np

from wptdas.channel import FrequencyGrid, sample_channel
from wptdas.errors import ValidationError
from wptdas.experiments import _sweep_cells
from wptdas.protocol import (ControlLinkModel, ControlMessage, Event, EventLog,
                             FrameSchedule, encode_feedback)
from wptdas.rectenna import settling_energy
from wptdas.rng import DOMAIN_CHANNEL, DOMAIN_LINK, substream
from wptdas.scheduler import TdmaResult, TraceRow
from wptdas.selection import (CandidateMatrix, SelectionDecision, check_powers,
                              middle_index, select_joint)
from wptdas.signal_chain import dc_power_matrix


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
    if isinstance(prior, SelectionDecision):
        return prior.antenna, prior.frequency
    m, n = prior
    return int(m), int(n)


def run_frame(p_dc, rect, sched=None, link=None, prior=None, rng=None, adc=None,
              start_us=0, v_initial=0.0):
    """One frame, one slot at a time; same signature and result as the library's."""
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    p_dc = check_powers(p_dc)
    m_total, n_total = p_dc.shape
    assert m_total * n_total == sched.training_slots
    v_tgt = np.sqrt(p_dc * rect.load_ohms)

    slot_us = sched.slot_us
    delivered = [deliver(link, rng) for _ in range(m_total)]
    emissions = [(m if delivered[m - 1] and _blank_us(link, n, slot_us) < slot_us else None, n)
                 for m in range(1, m_total + 1) for n in range(1, n_total + 1)]
    e_train, v_ends, v = harvest_training(emissions, v_tgt, float(v_initial),
                                          sched, link, rect)
    samples = v_ends if adc is None else [quantize(adc, x) for x in v_ends]
    adc_powers = np.square(samples).reshape(m_total, n_total) / rect.load_ohms

    events, messages = [], []
    slot_samples = iter(samples)
    t = int(start_us)
    for m in range(1, m_total + 1):
        messages.append(ControlMessage("activate", t, antenna=m))
        events.append(Event(t, "MessageSent", antenna=m))
        if not delivered[m - 1]:
            events.append(Event(t, "MessageDropped", antenna=m))
        for n in range(1, n_total + 1):
            events.append(Event(t, "SlotStart", antenna=m, frequency=n))
            t += slot_us
            events.append(Event(t, "AdcSample", antenna=m, frequency=n,
                                value=next(slot_samples)))

    selection = select_joint(CandidateMatrix.from_powers(adc_powers))
    code = encode_feedback(selection.antenna, selection.frequency, (m_total, n_total))
    fb_delivered = deliver(link, rng)
    messages.append(ControlMessage("feedback", t, code=code))
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
    events.append(Event(start_us + sched.frame_us, "FrameEnd"))

    log = EventLog(events=events, harvested_energy_training_j=e_train,
                   harvested_energy_wpt_j=e_wpt, frame_start_us=int(start_us),
                   schedule=sched, selection=selection, applied_antenna=applied_m,
                   applied_frequency=applied_n, applied_power_w=applied_p,
                   emissions=emissions, final_voltage_v=v, messages=messages)
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


def run_tdma(users, frames, grid, budget, sched=None, link=None, rng=None, profile=None,
             num_antennas=None, adc=None, keep_logs=False):
    """Round-robin TDMA, one frame at a time; same result as the library's."""
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    k = len(users)
    if profile is not None and num_antennas is None:
        num_antennas = sched.training_slots // grid.count
    rows, logs = [], []
    frame_s = sched.frame_s
    for i in range(frames):
        if i % k == 0:
            if profile is not None:
                for u in users:
                    u.channel = sample_channel(profile, num_antennas, rng)
            p_dc = [dc_power_matrix(u.channel, grid, budget, u.rect.curve, u.extra_loss_db)
                    for u in users]
        active = users[i % k]
        log, _sel = run_frame(p_dc[i % k], active.rect, sched=sched, link=link,
                              prior=active.prior, rng=rng, adc=adc,
                              start_us=i * sched.frame_us, v_initial=active.voltage_v)
        if keep_logs:
            logs.append(log)
        active.prior = SelectionDecision(log.applied_antenna, log.applied_frequency,
                                         log.applied_power_w, "joint")
        active.voltage_v = log.final_voltage_v
        active.frames_trained += 1
        e_active = log.harvested_energy_j
        active.energy_j += e_active
        rows.append(TraceRow(i, active.user_id, True, log.applied_antenna,
                             log.applied_frequency, e_active / frame_s,
                             active.energy_j, log.applied_power_w))
        for u, u_dc in zip(users, p_dc):
            if u is active:
                continue
            e_passive, p_served = _passive_harvest(u, log, u_dc, sched, link)
            u.energy_j += e_passive
            rows.append(TraceRow(i, u.user_id, False, log.applied_antenna,
                                 log.applied_frequency, e_passive / frame_s,
                                 u.energy_j, p_served))
    return TdmaResult(users=users, rows=rows, frames=frames, frame_logs=logs)


def protocol_values(cfg, sched=None, link=None, adc=None, keep_logs=False):
    """Per-realization values {(m, k): (R, users) array} of the protocol sweep,
    plus its frame logs, one realization, cell and frame at a time."""
    from wptdas.scheduler import UserState

    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    cells = list(_sweep_cells(cfg))
    values = {(m, k): np.zeros((cfg.realizations, cfg.users)) for m, k, _ in cells}
    logs = []
    for r in range(cfg.realizations):
        chans = [sample_channel(cfg.profile, cfg.max_antennas,
                                substream(cfg.seed, DOMAIN_CHANNEL, r, u))
                 for u in range(cfg.users)]
        link_rng = substream(cfg.seed, DOMAIN_LINK, r)
        for m, k, cols in cells:
            subgrid = FrequencyGrid.from_frequencies(
                cfg.grid.frequencies_hz[cols], mode=f"subset:{cfg.grid.mode}")
            cell_sched = FrameSchedule(sched.slot_s, m * k, sched.wpt_s)
            users = [UserState(user_id=u + 1, channel=chans[u].subset(m),
                               rect=cfg.rect, extra_loss_db=cfg.loss_for_user(u))
                     for u in range(cfg.users)]
            res = run_tdma(users, cfg.users, subgrid, cfg.budget, sched=cell_sched,
                           link=link, rng=link_rng, adc=adc, keep_logs=keep_logs)
            logs.extend(res.frame_logs)
            per_user = np.zeros(cfg.users)
            counts = np.zeros(cfg.users)
            for row in res.rows:
                per_user[row.user_id - 1] += row.wpt_power_w
                counts[row.user_id - 1] += 1
            values[(m, k)][r] = per_user / counts
    return values, logs
