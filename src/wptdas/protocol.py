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
budget. Each message - activation or feedback - is one byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, LinkBudget
from .errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from .rectenna import RectennaConfig, settling_energy
from .selection import CandidateMatrix, SelectionDecision, middle_index, select_joint
from .signal_chain import dc_power_matrix

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
    """Frame timing: training slot length, slot count, delivery duration."""

    slot_s: float = 0.018
    training_slots: int = 60
    wpt_s: float = 2.92

    def __post_init__(self):
        if self.training_slots < 1:
            raise ValidationError("training_slots must be >= 1")
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

    @property
    def training_us(self) -> int:
        return self.training_slots * self.slot_us

    @property
    def frame_us(self) -> int:
        return self.training_us + self.wpt_us

    @property
    def frame_s(self) -> float:
        return self.frame_us * 1e-6


@dataclass(frozen=True)
class ControlLinkModel:
    """Abstract control channel: optional i.i.d. drops and a fixed latency."""

    drop_probability: float = 0.0
    latency_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValidationError("drop_probability must be in [0, 1]")
        if not 0 <= self.latency_s * 1e6 < math.inf:
            raise ValidationError("latency_s must be >= 0 and finite")

    @property
    def latency_us(self) -> int:
        return round(self.latency_s * 1e6)

    def deliver(self, rng: np.random.Generator | None) -> bool:
        """One delivery trial. Consumes a draw only on a lossy link."""
        if self.drop_probability <= 0.0:
            return True
        if rng is None:
            raise ValidationError("a lossy control link needs an rng")
        return rng.random() >= self.drop_probability


@dataclass(frozen=True)
class ControlMessage:
    """One-byte control message: antenna activation or selection feedback."""

    kind: str  # "activate" or "feedback"
    t_us: int
    antenna: int | None = None
    code: int | None = None
    size_bytes: int = MESSAGE_SIZE_BYTES

    def to_byte(self) -> int:
        """Wire format: activation carries the antenna index, feedback the
        pair code in the big-endian low 6 bits of the byte."""
        if self.kind == "activate":
            return self.antenna & 0xFF
        return self.code & 0x3F


@dataclass(frozen=True)
class AdcModel:
    """Uniform ADC quantization of the sampled output voltage."""

    bits: int = 12
    v_ref: float = 3.3

    def __post_init__(self):
        if self.bits < 1 or self.v_ref <= 0:
            raise ValidationError("need bits >= 1 and v_ref > 0")

    def quantize(self, voltage: float) -> float:
        lsb = self.v_ref / (2 ** self.bits - 1)
        return round(min(max(voltage, 0.0), self.v_ref) / lsb) * lsb


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
    """Timestamped record of one simulated frame plus harvest accounting."""

    events: list
    harvested_energy_training_j: float
    harvested_energy_wpt_j: float
    frame_start_us: int
    schedule: FrameSchedule
    selection: SelectionDecision
    applied_antenna: int
    applied_frequency: int
    applied_power_w: float
    # per-slot true emission: (antenna or None when the transmitter idled,
    # frequency index); used to replay the frame against other receivers
    emissions: list
    final_voltage_v: float
    messages: list | None = None  # ControlMessage send attempts, in order

    @property
    def frame_end_us(self) -> int:
        return self.frame_start_us + self.schedule.frame_us

    @property
    def frame_s(self) -> float:
        return self.schedule.frame_s

    @property
    def harvested_energy_j(self) -> float:
        return self.harvested_energy_training_j + self.harvested_energy_wpt_j

    @property
    def bytes_sent(self) -> int:
        return MESSAGE_SIZE_BYTES * sum(1 for e in self.events if e.kind == "MessageSent")

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def require_complete(self):
        if not self.events or self.events[-1].kind != "FrameEnd":
            raise ValidationError("event log is incomplete (no FrameEnd)")

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


def _blank_us(link: ControlLinkModel, n: int, slot_us: int) -> int:
    """Blanked head of frequency ``n``'s training slot: the activation sent at
    the start of its antenna block, ``n - 1`` slots earlier, takes effect one
    link latency after it was sent."""
    return min(max(link.latency_us - (n - 1) * slot_us, 0), slot_us)


def harvest_training(emissions: list, v_tgt: np.ndarray, v: float, sched: FrameSchedule,
                     link: ControlLinkModel,
                     rect: RectennaConfig) -> tuple[float, list, float]:
    """Settle one receiver from voltage ``v`` through the training slots of
    :attr:`EventLog.emissions`, given its steady voltage ``v_tgt`` per pair.

    An idle slot settles toward 0; an emitting slot settles toward 0 over
    its blanked head, then toward the pair's target. Returns (energy,
    voltage at each slot end, final voltage).
    """
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


def harvest_delivery(v: float, v_served: float, p_served: float, sched: FrameSchedule,
                     link: ControlLinkModel, rect: RectennaConfig) -> tuple[float, float]:
    """Energy and end voltage of one receiver over the delivery phase: it
    settles toward 0 until the feedback takes effect one link latency in,
    then harvests the served pair's steady power ``p_served`` and ends at
    its steady voltage ``v_served``."""
    wpt_us = sched.wpt_us
    blank_us = min(link.latency_us, wpt_us)
    de = 0.0
    if blank_us > 0:
        de, v = settling_energy(v, 0.0, blank_us * 1e-6, rect)
    if wpt_us > blank_us:
        v = v_served
    return de + p_served * (wpt_us - blank_us) * 1e-6, v


def _prior_pair(prior, n_total: int) -> tuple[int, int]:
    if prior is None:
        return 1, middle_index(n_total)
    if isinstance(prior, SelectionDecision):
        return prior.antenna, prior.frequency
    m, n = prior
    return int(m), int(n)


def run_frame(ch: ChannelRealization, grid: FrequencyGrid, budget: LinkBudget,
              rect: RectennaConfig, sched: FrameSchedule | None = None,
              link: ControlLinkModel | None = None, prior=None,
              rng: np.random.Generator | None = None,
              adc: AdcModel | None = DEFAULT_ADC, start_us: int = 0,
              v_initial: float = 0.0,
              extra_loss_db: float = 0.0) -> tuple[EventLog, SelectionDecision]:
    """Simulate one frame; returns the event log and the receiver's selection.

    The transmitter sweep is aligned to the receiver's slot grid; a link
    latency only blanks the start of each activation block. A dropped
    activation leaves the transmitter idle for that antenna's whole block
    (the receiver still samples every slot). A dropped feedback makes the
    transmitter fall back to ``prior`` - the last pair it applied - or to
    (antenna 1, middle frequency) when there is no prior.
    """
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    m_total, n_total = ch.num_antennas, grid.count
    if m_total * n_total != sched.training_slots:
        raise ValidationError(
            f"schedule has {sched.training_slots} slots but the candidate set is "
            f"{m_total}x{n_total}"
        )

    p_dc = dc_power_matrix(ch, grid, budget, rect.curve, extra_loss_db)
    v_tgt = np.sqrt(p_dc * rect.load_ohms)

    slot_us = sched.slot_us
    delivered = [link.deliver(rng) for _ in range(m_total)]
    emissions = [(m if delivered[m - 1] and _blank_us(link, n, slot_us) < slot_us else None, n)
                 for m in range(1, m_total + 1) for n in range(1, n_total + 1)]
    e_train, v_ends, v = harvest_training(emissions, v_tgt, float(v_initial),
                                          sched, link, rect)
    samples = v_ends if adc is None else [adc.quantize(x) for x in v_ends]
    adc_powers = np.square(samples).reshape(m_total, n_total) / rect.load_ohms

    events: list[Event] = []
    messages: list[ControlMessage] = []
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
    fb_delivered = link.deliver(rng)
    messages.append(ControlMessage("feedback", t, code=code))
    events.append(Event(t, "MessageSent", value=code))
    if fb_delivered:
        applied_m, applied_n = selection.antenna, selection.frequency
        events.append(Event(t, "FeedbackApplied", antenna=applied_m, frequency=applied_n))
    else:
        events.append(Event(t, "MessageDropped", value=code))
        applied_m, applied_n = _prior_pair(prior, n_total)
        if not (1 <= applied_m <= m_total and 1 <= applied_n <= n_total):
            raise ValidationError(f"prior pair ({applied_m},{applied_n}) out of range")

    applied_p = float(p_dc[applied_m - 1, applied_n - 1])
    events.append(Event(t, "WptPhaseStart", antenna=applied_m, frequency=applied_n))
    e_wpt, v = harvest_delivery(v, float(v_tgt[applied_m - 1, applied_n - 1]), applied_p,
                                sched, link, rect)

    end_us = start_us + sched.frame_us
    events.append(Event(end_us, "FrameEnd"))

    log = EventLog(
        events=events,
        harvested_energy_training_j=e_train,
        harvested_energy_wpt_j=e_wpt,
        frame_start_us=int(start_us),
        schedule=sched,
        selection=selection,
        applied_antenna=applied_m,
        applied_frequency=applied_n,
        applied_power_w=applied_p,
        emissions=emissions,
        final_voltage_v=v,
        messages=messages,
    )
    return log, selection


@dataclass(frozen=True)
class ReceiverConsumption:
    """Receiver-side consumption constants for the energy budget."""

    soc_power_w: float = 2.6e-6
    radio_power_w: float = 0.048
    radio_bitrate_bps: float = 250e3
    bytes_sent: int | None = None  # None: take the count from the event log

    def __post_init__(self):
        if self.soc_power_w < 0 or self.radio_power_w < 0:
            raise ValidationError("consumption powers must be >= 0")
        if self.radio_bitrate_bps <= 0:
            raise ValidationError("radio_bitrate_bps must be > 0")


@dataclass(frozen=True)
class EnergyBudget:
    """Per-frame receiver energy ledger."""

    e_dc_j: float
    e_soc_j: float
    e_radio_j: float
    e_consumed_j: float
    e_net_j: float
    efficiency: float
    t_radio_s: float
    frame_s: float
    bytes_sent: int


def energy_budget(harvested_training_j: float, harvested_wpt_j: float,
                  frame_s: float, consumption: ReceiverConsumption,
                  bytes_sent: int) -> EnergyBudget:
    e_dc = harvested_training_j + harvested_wpt_j
    e_soc = frame_s * consumption.soc_power_w
    t_radio = 8.0 * bytes_sent / consumption.radio_bitrate_bps
    e_radio = t_radio * consumption.radio_power_w
    e_consumed = e_soc + e_radio
    e_net = e_dc - e_consumed
    eff = e_net / e_dc if e_dc > 0 else math.nan
    return EnergyBudget(e_dc, e_soc, e_radio, e_consumed, e_net, eff,
                        t_radio, frame_s, bytes_sent)


def receiver_energy_budget(log: EventLog,
                           consumption: ReceiverConsumption) -> EnergyBudget:
    """Energy ledger for one completed frame."""
    log.require_complete()
    nbytes = consumption.bytes_sent if consumption.bytes_sent is not None else log.bytes_sent
    return energy_budget(log.harvested_energy_training_j,
                         log.harvested_energy_wpt_j,
                         log.frame_s, consumption, nbytes)
