"""One frame of the adaptive selection protocol.

A frame has a training phase followed by a power-delivery phase. During
training the receiver activates each transmit antenna in turn over a
reserved control channel; the active antenna sweeps the operating
frequencies, one slot each, while the receiver's ADC samples the rectenna
output at every slot end. The receiver then picks the best (antenna,
frequency) pair from its sampled candidate matrix and reports it in a
single-byte feedback message. The pair index needs 6 bits, carried
big-endian in the low bits of the byte (``code = byte & 0x3F``). The
transmitter applies the reported pair for the rest of the frame; if the
feedback is lost it falls back to the last pair it knows (or antenna 1 at
the middle frequency when there is none).

Timing uses integer microseconds throughout, so the default frame closes
at exactly 60 x 18 ms + 2.92 s = 4 s. Control messages occupy no airtime
on the frame timeline; their cost appears only in the receiver's energy
budget (:func:`wptdas.experiments.power_budget_report`). Each message -
activation or feedback - is one byte.

One engine, :func:`run_rounds`, walks the frames of a whole batch of TDMA
rounds at once: every (realization, user) row settles through the same
slots, the training user's samples feed its selection, and the passive
users harvest what the transmitter emits. The protocol sweep batches the
realizations of a cell this way; :func:`run_frame` and
:func:`wptdas.scheduler.run_tdma` walk a batch of one. Only
:func:`run_frame` builds an event log from the walk's arrays
(:func:`frame_log`); everything else reads the arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (FeedbackCapacityError, FeedbackDecodeError, ValidationError,
                     check_finite, check_integer, check_pair)
from .rectenna import RectennaConfig, segment_energy, settle
from .selection import CandidateMatrix, SelectionDecision, check_powers, default_pair, select_pairs

FEEDBACK_BITS = 6
MESSAGE_SIZE_BYTES = 1


def check_feedback_space(m_total: int, n_total: int):
    """Raise :class:`FeedbackCapacityError` unless every pair has a feedback code."""
    pairs = 2 ** FEEDBACK_BITS
    if m_total * n_total > pairs:
        raise FeedbackCapacityError(f"{m_total} antennas x {n_total} frequencies exceed the "
                                    f"{FEEDBACK_BITS}-bit feedback space ({pairs} pairs)")


def encode_feedback(antenna: int, frequency: int, dims: tuple[int, int]) -> int:
    """Pack a 1-based (antenna, frequency) pair into a row-major code."""
    m_total, n_total = dims
    check_feedback_space(m_total, n_total)
    if not 1 <= antenna <= m_total or not 1 <= frequency <= n_total:
        raise ValidationError(f"pair ({antenna},{frequency}) outside {dims}")
    return (antenna - 1) * n_total + (frequency - 1)


def decode_feedback(code: int, dims: tuple[int, int]) -> tuple[int, int]:
    """Inverse of :func:`encode_feedback`."""
    m_total, n_total = dims
    if not 0 <= code < m_total * n_total:
        raise FeedbackDecodeError(f"code {code} outside 0..{m_total * n_total - 1}")
    return code // n_total + 1, code % n_total + 1


@dataclass(frozen=True)
class FrameSchedule:
    """Frame timing: training slot length and delivery duration. A frame trains
    one slot per (antenna, frequency) pair of its matrix (:meth:`frame_us`)."""

    slot_s: float = 0.018
    wpt_s: float = 2.92

    def __post_init__(self):
        check_finite(self, "slot_s", "wpt_s")
        if not (0 < self.slot_s * 1e6 < math.inf and 0 <= self.wpt_s * 1e6 < math.inf):
            raise ValidationError("need finite slot_s > 0 and wpt_s >= 0")
        if self.slot_us < 1:
            raise ValidationError("slot_s must be at least 1 microsecond")

    @property
    def slot_us(self) -> int:
        return round(self.slot_s * 1e6)

    @property
    def wpt_us(self) -> int:
        return round(self.wpt_s * 1e6)

    def frame_us(self, slots: int) -> int:
        """Length of a frame that trains ``slots`` slots."""
        return slots * self.slot_us + self.wpt_us


@dataclass(frozen=True)
class ControlLinkModel:
    """Abstract control channel: optional i.i.d. drops and a fixed latency."""

    drop_probability: float = 0.0
    latency_s: float = 0.0

    def __post_init__(self):
        check_finite(self, "drop_probability", "latency_s")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValidationError("drop_probability must be in [0, 1]")
        if not 0 <= self.latency_s * 1e6 < math.inf:
            raise ValidationError("latency_s must be >= 0 and finite")

    @property
    def latency_us(self) -> int:
        return round(self.latency_s * 1e6)

    def draws(self, rng: np.random.Generator | None, shape) -> np.ndarray | None:
        """Uniforms for the delivery trials of ``shape`` messages, in message
        order; a message gets through when its draw is >= ``drop_probability``.
        A lossless link draws nothing and returns None."""
        if self.drop_probability <= 0.0:
            return None
        if rng is None:
            raise ValidationError("a lossy control link needs an rng")
        return rng.random(shape)


@dataclass(frozen=True)
class AdcModel:
    """Uniform ADC quantization of the sampled output voltage."""

    bits: int = 12
    v_ref: float = 3.3

    def __post_init__(self):
        check_integer("bits", self.bits)
        check_finite(self, "v_ref")
        # 2**53 levels is the most a float64 sample counts exactly
        if not (1 <= self.bits <= 53 and 0 < self.v_ref < math.inf):
            raise ValidationError("need 1 <= bits <= 53 and finite v_ref > 0")
        if self.lsb < sys.float_info.min:
            raise ValidationError(f"v_ref = {self.v_ref!r} V gives a {self.bits}-bit step "
                                  "below the smallest normal float")

    @property
    def lsb(self) -> float:
        return self.v_ref / (2 ** self.bits - 1)

    def quantize(self, voltage):
        """Nearest level (ties to even) to the voltage clamped to [0, v_ref].
        Elementwise over an array; a float in, a float out. The top level is
        ``v_ref`` itself, even where ``(2**bits - 1) * lsb`` rounds above it."""
        lsb = self.lsb
        q = np.minimum(np.rint(np.clip(voltage, 0.0, self.v_ref) / lsb) * lsb, self.v_ref)
        return float(q) if q.ndim == 0 else q


DEFAULT_ADC = AdcModel()


@dataclass(frozen=True)
class Event:
    t_us: int
    kind: str
    antenna: int | None = None
    frequency: int | None = None
    value: float | int | None = None


@dataclass
class EventLog:
    """Timestamped record of one frame, which starts at its first event, plus harvest."""

    events: list
    harvested_energy_training_j: float
    harvested_energy_wpt_j: float
    selection: SelectionDecision
    applied_antenna: int
    applied_frequency: int
    applied_power_w: float
    # per-slot true emission, (antenna or None when idle, frequency index):
    # the scalar reference replays the frame for a passive receiver from it
    emissions: list
    final_voltage_v: float

    @property
    def bytes_sent(self) -> int:
        return MESSAGE_SIZE_BYTES * sum(1 for e in self.events if e.kind == "MessageSent")

    def to_csv(self, fh):
        fh.write("t_us,event,antenna,frequency,value\n")
        for e in self.events:
            ant = "" if e.antenna is None else str(e.antenna)
            frq = "" if e.frequency is None else str(e.frequency)
            if e.value is None:
                val = ""
            elif isinstance(e.value, int):
                val = str(e.value)
            else:
                val = f"{e.value:.12g}"
            fh.write(f"{e.t_us},{e.kind},{ant},{frq},{val}\n")


def _blank_us(link: ControlLinkModel, n_total: int, slot_us: int) -> list:
    """Blanked head of each frequency's training slot, in microseconds: the
    activation sent at the start of an antenna block takes effect one link
    latency after it was sent, ``n`` slots before frequency ``n + 1``'s."""
    return [min(max(link.latency_us - n * slot_us, 0), slot_us) for n in range(n_total)]


@dataclass
class RoundBatch:
    """Arrays of ``B`` TDMA rounds walked side by side by :func:`run_rounds`.

    Frame ``j`` of a round trains user ``j``; every user of the round
    harvests in every frame. Pairs are 0-based (antenna, frequency) on the
    last axis. Shapes use ``B`` rounds, ``F`` frames, ``K`` users and
    ``M x N`` pairs.
    """

    activated: np.ndarray  # (B, F, M) activation message delivered
    fed_back: np.ndarray  # (B, F) feedback message delivered
    emitting: np.ndarray  # (B, F, M, N) the transmitter emits in the slot
    samples: np.ndarray  # (B, F, M*N) training user's sample at each slot end
    selected: np.ndarray  # (B, F, 2) the training user's choice
    selected_w: np.ndarray  # (B, F) sampled power at the selected pair
    applied: np.ndarray  # (B, F, 2) the pair served
    served_w: np.ndarray  # (B, F, K) each user's steady dc power at the served pair
    training_j: np.ndarray  # (B, F, K) energy harvested during training
    wpt_j: np.ndarray  # (B, F, K) energy harvested during delivery
    voltage_v: np.ndarray  # (B, F, K) output voltage at frame end


def run_rounds(p_dc: np.ndarray, rects: list, sched: FrameSchedule, link: ControlLinkModel,
               adc: AdcModel | None, draws: np.ndarray | None, v_initial, prior,
               frames: int) -> RoundBatch:
    """Walk ``frames`` frames of ``B`` independent rounds through the protocol.

    ``p_dc`` is (B, K, M, N): each user's steady dc power per pair, already
    through :func:`check_powers`; ``rects`` holds one rectenna per user.
    ``draws`` is (B, frames, M + 1): each frame's link uniforms, M
    activations then the feedback, or None on a lossless link. A message
    gets through when its draw is at least the drop probability.
    ``v_initial`` (B, K) are the output voltages at the round start; they
    carry from frame to frame. ``prior`` (B, K, 2) is the pair, within the
    matrix, that each user's transmitter falls back to when that user's
    feedback is lost (:func:`fallback_pair`).

    The walk steps every (round, user) row's voltage through the frame's
    settling segments together, then takes every segment's energy at once;
    each element meets the same float operations, in the same order, as a
    walk of one receiver through one frame.
    """
    n_rounds, k_users, m_total, n_total = p_dc.shape
    check_feedback_space(m_total, n_total)
    slots = m_total * n_total
    slot_us, wpt_us = sched.slot_us, sched.wpt_us
    tau = np.array([r.settle_tau_s for r in rects])
    load = np.array([r.load_ohms for r in rects])

    @functools.cache
    def decay(us: int) -> np.ndarray:
        """Per-user decay over ``us``: one exp per (duration, time constant)."""
        return np.array([math.exp(-(us * 1e-6) / t) for t in tau.tolist()])

    @functools.cache
    def rise(us: int) -> np.ndarray:
        """Per-user ``1 - decay(us)``, taken with ``expm1``."""
        return np.array([-math.expm1(-(us * 1e-6) / t) for t in tau.tolist()])

    # The frame's settling segments: one per slot, except that a slot whose
    # head is blanked splits in two, toward 0 over the head and then toward
    # the pair. A row idle in a blanked slot decays over the whole slot in
    # the head segment, where the duration term vanishes as the target is 0,
    # then holds: decay 1, rise 0 and no energy in the tail (``idle_us``).
    blank = _blank_us(link, n_total, slot_us)
    seg_slot, seg_us, idle_us, heads = [], [], [], []
    for s in range(slots):
        head = blank[s % n_total]
        if 0 < head < slot_us:
            heads.append(len(seg_slot))
            seg_slot += [s, s]
            seg_us += [head, slot_us - head]
            idle_us += [slot_us, 0]
        else:
            seg_slot.append(s)
            seg_us.append(slot_us)
            idle_us.append(slot_us)
    seg_dur = np.array(seg_us)[:, None, None] * 1e-6
    seg_decay = np.stack([decay(us) for us in seg_us])[:, None, :]
    seg_rise = np.stack([rise(us) for us in seg_us])[:, None, :]
    idle_decay = np.stack([decay(us) for us in idle_us])[:, None, :]
    idle_rise = np.stack([rise(us) for us in idle_us])[:, None, :]
    slot_end = np.searchsorted(seg_slot, np.arange(slots), side="right")
    live = np.array(blank) < slot_us
    wpt_blank = min(link.latency_us, wpt_us)

    ok = np.ones((n_rounds, frames, m_total + 1), dtype=bool) if draws is None \
        else draws >= link.drop_probability
    activated, fed_back = ok[..., :m_total], ok[..., m_total]
    prior = np.asarray(prior)[:, :frames]

    v_tgt = np.sqrt(p_dc * load[:, None, None])
    seg_tgt = v_tgt.reshape(n_rounds, k_users, slots).transpose(2, 0, 1)[seg_slot]
    seg_tgt[heads] = 0.0  # (segments, B, K); every row settles toward 0 over a head
    rows = np.arange(n_rounds)[:, None]
    users = np.arange(k_users)
    v = np.array(v_initial, dtype=float)
    out = {}
    for j in range(frames):
        emitting = activated[:, j, :, None] & live
        emits = emitting.reshape(n_rounds, slots)
        on = emits.T[seg_slot, :, None]
        tgt = np.where(on, seg_tgt, 0.0)
        dec = np.where(on, seg_decay, idle_decay)
        ris = np.where(on, seg_rise, idle_rise)
        volts = np.empty((len(seg_slot) + 1, n_rounds, k_users))
        volts[0] = v
        for g in range(len(seg_slot)):
            volts[g + 1] = settle(volts[g], tgt[g], dec[g])
        # summed in segment order, as a walk adds them
        energy = np.add.accumulate(segment_energy(volts[:-1], tgt, seg_dur, ris, tau, load))[-1]
        v = volts[-1]

        ends = volts[slot_end, :, j].T
        samples = ends if adc is None else adc.quantize(ends)
        sampled_w = check_powers(np.square(samples).reshape(n_rounds, m_total, n_total)
                                 / load[j])
        selected = np.stack(select_pairs(sampled_w, "joint"), axis=-1)
        applied = np.where(fed_back[:, j, None], selected, prior[:, j])
        served = (rows, users, applied[:, :1], applied[:, 1:])
        de = 0.0
        if wpt_blank > 0:
            de = segment_energy(v, 0.0, wpt_blank * 1e-6, rise(wpt_blank), tau, load)
            v = settle(v, 0.0, decay(wpt_blank))
        if wpt_us > wpt_blank:
            v = v_tgt[served]
        frame = dict(emitting=emitting, samples=samples, selected=selected,
                     selected_w=sampled_w[rows[:, 0], selected[:, 0], selected[:, 1]],
                     applied=applied, served_w=p_dc[served], training_j=energy,
                     wpt_j=de + p_dc[served] * (wpt_us - wpt_blank) * 1e-6, voltage_v=v)
        for key, value in frame.items():
            if key not in out:
                out[key] = np.empty((n_rounds, frames) + value.shape[1:], value.dtype)
            out[key][:, j] = value
    return RoundBatch(activated=activated, fed_back=fed_back, **out)


def frame_log(batch: RoundBatch, b: int, j: int, sched: FrameSchedule,
              start_us: int = 0) -> EventLog:
    """The event log of frame ``j`` of round ``b`` of a walk, for its training user."""
    _, _, m_total, n_total = batch.emitting.shape
    slot_us = sched.slot_us
    activated = batch.activated[b, j].tolist()
    emitting = batch.emitting[b, j].tolist()
    samples = iter(batch.samples[b, j].tolist())
    events: list[Event] = []
    t = int(start_us)
    for m in range(1, m_total + 1):
        events.append(Event(t, "MessageSent", antenna=m))
        if not activated[m - 1]:
            events.append(Event(t, "MessageDropped", antenna=m))
        for n in range(1, n_total + 1):
            events.append(Event(t, "SlotStart", antenna=m, frequency=n))
            t += slot_us
            events.append(Event(t, "AdcSample", antenna=m, frequency=n, value=next(samples)))

    sel_m, sel_n = (batch.selected[b, j] + 1).tolist()
    selection = SelectionDecision(sel_m, sel_n, float(batch.selected_w[b, j]))
    code = encode_feedback(sel_m, sel_n, (m_total, n_total))
    applied_m, applied_n = (batch.applied[b, j] + 1).tolist()
    events.append(Event(t, "MessageSent", value=code))
    if batch.fed_back[b, j]:
        events.append(Event(t, "FeedbackApplied", antenna=applied_m, frequency=applied_n))
    else:
        events.append(Event(t, "MessageDropped", value=code))
    events.append(Event(t, "WptPhaseStart", antenna=applied_m, frequency=applied_n))
    events.append(Event(start_us + sched.frame_us(m_total * n_total), "FrameEnd"))

    return EventLog(
        events=events,
        harvested_energy_training_j=float(batch.training_j[b, j, j]),
        harvested_energy_wpt_j=float(batch.wpt_j[b, j, j]),
        selection=selection,
        applied_antenna=applied_m,
        applied_frequency=applied_n,
        applied_power_w=float(batch.served_w[b, j, j]),
        emissions=[(m + 1 if emitting[m][n] else None, n + 1)
                   for m in range(m_total) for n in range(n_total)],
        final_voltage_v=float(batch.voltage_v[b, j, j]),
    )


def fallback_pair(prior, m_total: int, n_total: int) -> tuple[int, int]:
    """0-based pair served when the feedback is lost: the 1-based ``prior``
    pair, checked against the matrix, or :func:`default_pair` when None."""
    pair = check_pair("prior", prior, (m_total, n_total))
    return default_pair(n_total) if pair is None else (pair[0] - 1, pair[1] - 1)


def run_frame(p_dc: np.ndarray, rect: RectennaConfig, sched: FrameSchedule = FrameSchedule(),
              link: ControlLinkModel = ControlLinkModel(), prior=None,
              rng: np.random.Generator | None = None,
              adc: AdcModel | None = DEFAULT_ADC, start_us: int = 0,
              v_initial: float = 0.0) -> tuple[EventLog, SelectionDecision]:
    """Simulate one frame; returns the event log and the receiver's selection.

    ``p_dc`` is the receiver's steady dc power in watts per (antenna,
    frequency) pair, as :func:`wptdas.signal_chain.dc_power_matrix` gives it.
    The transmitter sweep is aligned to the receiver's slot grid; a link
    latency only blanks the start of each activation block. A dropped
    activation leaves the transmitter idle for that antenna's whole block
    (the receiver still samples every slot). A dropped feedback makes the
    transmitter fall back to ``prior`` - the last pair it applied - or to
    (antenna 1, middle frequency) when there is no prior.
    """
    p_dc = CandidateMatrix.from_powers(p_dc).values
    m_total, n_total = p_dc.shape
    fallback = [[fallback_pair(prior, m_total, n_total)]]
    check_finite({"v_initial": v_initial}, "v_initial", low=0)
    batch = run_rounds(p_dc[None, None], [rect], sched, link, adc,
                       link.draws(rng, (1, 1, m_total + 1)), [[float(v_initial)]],
                       fallback, frames=1)
    log = frame_log(batch, 0, 0, sched, start_us)
    return log, log.selection

