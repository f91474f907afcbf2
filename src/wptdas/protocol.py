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
activation or feedback - is one byte, so a frame sends
:func:`control_bytes`.

One engine, :func:`run_rounds`, walks every frame of a whole batch of
independent TDMA runs at once: every (run, user) row settles through the
same slots, the training user's samples feed its selection, and the
passive users harvest what the transmitter emits. Every run starts at
rest (0 V, no earlier pair), and the engine alone carries each output
voltage and each user's fallback pair from frame to frame. A walk may
hold several cells (candidate-matrix shapes) side by side in lanes: each
cell's frame is a start step, which loads the cell's own voltage, then one
settling step per segment, the delivery phase's blanked head last, and
every lane steps at once. Each cell gets its own :class:`RoundBatch` of
views into the walk's arrays; the training and delivery energies are None
when the caller skips them, and then only the training user's column is
stepped unless delivery is fully blanked. A batch is the result of every
caller, each of which makes one call: the protocol sweep walks all its
cells over all realizations without the energies,
:func:`wptdas.experiments.run_tdma` walks all its rounds and
:func:`run_frame` one frame. Event logs are built only on request, from
the batch's arrays (:func:`frame_log`, written by :func:`write_events`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (FeedbackCapacityError, FeedbackDecodeError, ValidationError,
                     check_finite, check_integer)
from .rectenna import RectennaConfig, segment_energy, settle
from .selection import CandidateMatrix, check_powers, default_pair, select_pairs

FEEDBACK_BITS = 6
MESSAGE_SIZE_BYTES = 1


def control_bytes(m_total: int) -> int:
    """Control bytes a frame of ``m_total`` antennas sends: one activation per
    antenna, then the feedback."""
    return MESSAGE_SIZE_BYTES * (m_total + 1)


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


def write_events(fh, events: list):
    """Write a frame's events as CSV, one row per event; a missing field is
    empty and a float has 12 significant digits."""
    fh.write("t_us,event,antenna,frequency,value\n")
    for e in events:
        ant, frq, val = ("" if x is None else f"{x:.12g}" if isinstance(x, float) else str(x)
                         for x in (e.antenna, e.frequency, e.value))
        fh.write(f"{e.t_us},{e.kind},{ant},{frq},{val}\n")


def _blank_us(link: ControlLinkModel, n_total: int, slot_us: int) -> list:
    """Blanked head of each frequency's training slot, in microseconds: the
    activation sent at the start of an antenna block takes effect one link
    latency after it was sent, ``n`` slots before frequency ``n + 1``'s."""
    return [min(max(link.latency_us - n * slot_us, 0), slot_us) for n in range(n_total)]


def _segments(m_total: int, blank: list, slot_us: int, wpt_blank: int) -> list:
    """A frame's settling segments for ``m_total`` antennas in time order, as
    (slot, us, head), given each frequency's blanked head (:func:`_blank_us`).

    One per slot, except that a slot whose head is blanked splits in two for
    every row: toward 0 over the head, then toward the row's target, which
    is 0 where the transmitter is idle. A slot ends with its one segment
    that is not a head. Last comes the delivery phase's head of ``wpt_blank``
    us, dark and ending no slot; at 0 us it holds the voltage.
    """
    segs = []
    for s in range(m_total * len(blank)):
        head = blank[s % len(blank)]
        segs += ([(s, head, True), (s, slot_us - head, False)]
                 if 0 < head < slot_us else [(s, slot_us, False)])
    return segs + [(0, wpt_blank, True)]


def _pack_lanes(steps: list) -> tuple[int, list]:
    """First-fit-decreasing packing of cells of ``steps`` steps each into lanes
    as long as the longest cell: the longest cell first (ties in cell order),
    each into the first lane it fits. Returns the lane count and each cell's
    (lane, first step); every lane starts with a cell at step 0."""
    length, ends, place = max(steps), [], [None] * len(steps)
    for c in sorted(range(len(steps)), key=lambda c: -steps[c]):
        lane = next((i for i, end in enumerate(ends) if end + steps[c] <= length), len(ends))
        if lane == len(ends):
            ends.append(0)
        place[c] = (lane, ends[lane])
        ends[lane] += steps[c]
    return len(ends), place


@dataclass
class RoundBatch:
    """Arrays of ``B`` independent runs of one cell, walked side by side by
    :func:`run_rounds`.

    Frame ``f`` of a run trains user ``f % K`` in round ``f // K``; every
    user of the run harvests in every frame. Pairs are 0-based (antenna,
    frequency) on the last axis. Shapes use ``B`` runs, ``F`` frames (whole
    rounds), ``K`` users and ``M x N`` pairs. The cells of one walk share
    its arrays: each cell's batch is a set of views into them. The two
    energies are None when the walk was run with ``energy=False``.
    """

    activated: np.ndarray  # (B, F, M) activation message delivered
    fed_back: np.ndarray  # (B, F) feedback message delivered
    emitting: np.ndarray  # (B, F, M, N) the transmitter emits in the slot
    samples: np.ndarray  # (B, F, M*N) training user's sample at each slot end
    selected: np.ndarray  # (B, F, 2) the training user's choice
    selected_w: np.ndarray  # (B, F) sampled power at the selected pair
    applied: np.ndarray  # (B, F, 2) the pair served
    served_w: np.ndarray  # (B, F, K) each user's steady dc power at the served pair
    training_j: np.ndarray | None  # (B, F, K) energy harvested during training
    wpt_j: np.ndarray | None  # (B, F, K) energy harvested during delivery
    voltage_v: np.ndarray  # (B, F, K) output voltage at frame end


def run_rounds(p_dc: list, rect: RectennaConfig, sched: FrameSchedule, link: ControlLinkModel,
               adc: AdcModel | None, draws: list, *, energy: bool = True) -> list[RoundBatch]:
    """Walk ``R`` whole rounds of ``B`` independent runs of each of a list of
    cells through the protocol, from rest; one :class:`RoundBatch` per cell.

    A cell is one candidate-matrix shape. Each of the per-cell lists holds one
    entry per cell: ``p_dc`` (B, R, K, M, N), each user's steady dc power per
    pair in each of ``R`` rounds, already through :func:`check_powers`, and
    ``draws`` (B, R K, M + 1), each frame's link uniforms, M activations then
    the feedback, or None on a lossless link (a message gets through when its
    draw is at least the drop probability). Frame ``f`` trains user ``f % K``
    with round ``f // K``'s powers. Every user of every cell harvests through
    the one rectenna ``rect``. With ``energy=False`` the walk skips the training
    and delivery energies and returns them as None. Before the walk, a cell
    whose ``p_dc`` is not 5-D or does not share the first cell's B, R and K, or
    whose ``draws`` do not fit it, is rejected, and so is a load whose output
    voltage ``sqrt(p * load)`` would overflow.

    Every run starts at rest: each output at 0 V, and each user's
    transmitter falls back to :func:`default_pair` when its feedback is
    lost. The output voltage carries from frame to frame, and the pair a
    frame serves becomes its training user's fallback.

    Each cell's frame is a run of settling steps: a start step, which loads
    the cell's voltage (decay 0, target v: ``v + (0 - v) * 0 == v``), then
    one step per segment (:func:`_segments`), the last the delivery phase's
    head, dark until the feedback takes effect. A step's decay depends only
    on its duration; whether the transmitter emits sets only each row's
    target, so a dropped activation is a zero-power emission. The cells are
    packed side by side into lanes as long as the longest cell's run
    (:func:`_pack_lanes`), and a lane's unused tail holds its voltage (decay
    1, target 0). Each frame steps every lane at once, then takes every
    step's energy in one pass: a cell's training energy sums its steps
    before the head, its delivery energy is the head's plus the served
    power over the rest of the phase. Each element meets the same float
    operations, in the same order, as a walk of one receiver through one
    frame of one cell. When the walk skips the energies and delivery is not
    fully blanked, every frame-end voltage is the served pair's steady
    voltage, so only the training user's column is walked.
    """
    n_cells = len(p_dc)
    if not n_cells == len(draws) >= 1:
        raise ValidationError("need one p_dc and one draws entry per cell")
    dims = np.shape(p_dc[0])[:3]
    for c, p in enumerate(p_dc):
        if np.ndim(p) != 5 or p.shape[:3] != dims:
            raise ValidationError(f"cell {c}: p_dc {np.shape(p)} is not (runs, rounds, users, "
                                  f"M, N) with the first cell's {dims}")
        check_feedback_space(*p.shape[3:])
    n_runs, n_rounds, k_users = dims
    frames = n_rounds * k_users
    shapes = [p.shape[3:] for p in p_dc]
    for c, (d, (m_total, _)) in enumerate(zip(draws, shapes)):
        if d is not None and np.shape(d) != (n_runs, frames, m_total + 1):
            raise ValidationError(f"cell {c}: draws {np.shape(d)} do not fit {n_runs} runs, "
                                  f"{frames} frames and {m_total} antennas")
    slot_us, wpt_us = sched.slot_us, sched.wpt_us
    tau, load = rect.settle_tau_s, rect.load_ohms
    # no voltage exceeds sqrt(p * load), so no energy term exceeds a few p * load
    # times the longest segment or tau
    p_max = max(float(p.max(initial=0.0)) for p in p_dc)
    if not p_max * load * 4.0 * (1.0 + slot_us * 1e-6 + tau) < math.inf:
        raise ValidationError(f"load_ohms = {load!r} overflows the output voltage "
                              f"sqrt(p * load) at p = {p_max!r} W")
    wpt_blank = _blank_us(link, 1, wpt_us)[0]
    trim = not energy and wpt_us > wpt_blank  # walk only the training user's column

    # The step tables, (steps, lanes): the pair (and slot) each step settles
    # toward, its duration's code, and whether its target is 0 whatever is
    # emitted (heads, start steps and tails).
    blanks = {n: _blank_us(link, n, slot_us) for _, n in shapes}
    segs = [_segments(m, blanks[n], slot_us, wpt_blank) for m, n in shapes]
    n_lanes, place = _pack_lanes([len(cell) + 1 for cell in segs])
    length = max(len(cell) for cell in segs) + 1
    durations = sorted({us for cell in segs for _, us, _ in cell} | {0})
    code = {us: i for i, us in enumerate(durations)}
    start = len(durations)  # the start step's decay, 0
    table = [(0, code[0], True)] * (length * n_lanes)  # a tail holds
    slot_ant, slot_live, slot_end = [], [], []
    slot_off = np.cumsum([0] + [m * n for m, n in shapes])
    antenna0 = 0
    for c, ((m_total, n_total), (lane, first)) in enumerate(zip(shapes, place)):
        table[first * n_lanes + lane] = (0, start, True)
        for step, (s, us, head) in enumerate(segs[c], first + 1):
            table[step * n_lanes + lane] = (int(slot_off[c]) + s, code[us], head)
            if not head:
                slot_end.append(step * n_lanes + lane)
        slot_ant += [antenna0 + s // n_total for s in range(m_total * n_total)]
        slot_live += [blanks[n_total][s % n_total] < slot_us for s in range(m_total * n_total)]
        antenna0 += m_total
    step_pair, seg_code, dark = np.array(table).reshape(length, n_lanes, 3).transpose(2, 0, 1)
    dark = dark.astype(bool)[..., None, None]
    cell_lane, cell_first = np.array(place).T
    cell_last = cell_first + [len(cell) for cell in segs]  # each cell's delivery head

    # one exp (and expm1) per duration, then a row per step
    decay = np.array([math.exp(-(us * 1e-6) / tau) for us in durations] + [0.0])
    seg_decay = decay[seg_code][..., None, None]
    if energy:  # a start step takes 0 us
        rise = np.array([-math.expm1(-(us * 1e-6) / tau) for us in durations + [0]])
        seg_rise = rise[seg_code][..., None, None]
        seg_dur = np.array(durations + [0])[seg_code][..., None, None] * 1e-6

    ok = [np.ones((n_runs, frames, m + 1), dtype=bool) if d is None
          else d >= link.drop_probability for d, (m, _) in zip(draws, shapes)]
    fed_back = np.stack([o[..., m] for o, (m, _) in zip(ok, shapes)])  # (C, B, F)
    emits = (np.concatenate([o[..., :m] for o, (m, _) in zip(ok, shapes)], axis=-1)
             [..., slot_ant] & np.array(slot_live))  # (B, F, slots)

    # each user's powers pair by pair, (R, pairs, B, K), over every cell's pairs
    p_pairs = np.concatenate([p.reshape(n_runs, n_rounds, k_users, -1).transpose(1, 3, 0, 2)
                              for p in p_dc], axis=1)
    n_cols = np.array([n for _, n in shapes])[:, None]
    rows = np.arange(n_runs)
    users = np.arange(k_users)
    width = 1 if trim else k_users
    tgt = np.empty((length, n_lanes, n_runs, width))
    # a lean walk reads no target after its step, so the voltages overwrite them
    volts = tgt if trim else np.empty_like(tgt)
    samples = np.empty((n_runs, frames, slot_off[-1]))
    v = np.zeros((n_cells, n_runs, k_users))  # every output starts at 0 V
    last = np.empty((n_cells, n_runs, k_users, 2), dtype=np.intp)  # each user's fallback
    last[...] = np.array([default_pair(n) for _, n in shapes])[:, None, None]
    out = {}  # (C, B, F, ...) per key
    for f in range(frames):
        r, j = divmod(f, k_users)  # the round and its training user
        p_round = p_pairs[r]
        cols = slice(j, j + 1) if trim else slice(None)
        np.take(p_round[..., cols], step_pair, axis=0, out=tgt, mode="clip")
        tgt *= load
        np.sqrt(tgt, out=tgt)
        np.copyto(tgt, 0.0, where=dark | ~emits[:, f, step_pair].transpose(1, 2, 0)[..., None])
        tgt[cell_first, cell_lane] = v[..., cols]
        volts[0] = tgt[0]  # every lane opens with a start step
        for s in range(1, length):
            volts[s] = settle(volts[s - 1], tgt[s], seg_decay[s])

        ends = volts.reshape(-1, n_runs, width)[slot_end, :, 0 if trim else j].T
        samples[:, f] = ends if adc is None else adc.quantize(ends)
        sampled_w = check_powers(np.square(samples[:, f]) / load)
        picks = np.array([select_pairs(sampled_w[:, s0:s1].reshape(n_runs, m, n), "joint")
                          for (m, n), s0, s1 in zip(shapes, slot_off, slot_off[1:])])
        selected = picks.transpose(0, 2, 1)  # (C, B, 2)
        applied = last[:, :, j] = np.where(fed_back[:, :, f, None], selected, last[:, :, j])
        served_w = p_round[(slot_off[:-1, None] + applied[..., 0] * n_cols
                            + applied[..., 1])[..., None], rows[:, None], users]  # (C, B, K)
        frame = dict(selected=selected, applied=applied, served_w=served_w,
                     selected_w=sampled_w[rows, slot_off[:-1, None] + picks[:, 0] * n_cols
                                          + picks[:, 1]])
        if not trim:
            v = volts[cell_last, cell_lane]
        if energy:  # every step's energy at once, each cell's training summed in order
            energy_j = segment_energy(volts[:-1], tgt[1:], seg_dur[1:], seg_rise[1:], tau, load)
            frame["training_j"] = np.stack([
                np.add.accumulate(energy_j[f0:l0 - 1, lane])[-1]
                for lane, f0, l0 in zip(cell_lane, cell_first, cell_last)])
            frame["wpt_j"] = (energy_j[cell_last - 1, cell_lane]
                              + served_w * (wpt_us - wpt_blank) * 1e-6)
        if wpt_us > wpt_blank:
            v = np.sqrt(served_w * load)
        frame["voltage_v"] = v
        for key, value in frame.items():
            if key not in out:
                out[key] = np.empty((n_cells, n_runs, frames) + value.shape[2:], value.dtype)
            out[key][:, :, f] = value

    return [RoundBatch(activated=o[..., :m], fed_back=o[..., m],
                       emitting=emits[..., s0:s1].reshape(n_runs, frames, m, n),
                       samples=samples[..., s0:s1],
                       **{"training_j": None, "wpt_j": None}
                       | {key: arr[c] for key, arr in out.items()})
            for c, (o, (m, n), s0, s1) in enumerate(zip(ok, shapes, slot_off, slot_off[1:]))]


def frame_log(batch: RoundBatch, b: int, j: int, sched: FrameSchedule) -> list[Event]:
    """The events of frame ``j`` of run ``b`` of a walk, for its training user,
    from t = 0."""
    _, _, m_total, n_total = batch.emitting.shape
    slot_us = sched.slot_us
    activated = batch.activated[b, j].tolist()
    samples = iter(batch.samples[b, j].tolist())
    events: list[Event] = []
    t = 0
    for m in range(1, m_total + 1):
        events.append(Event(t, "MessageSent", antenna=m))
        if not activated[m - 1]:
            events.append(Event(t, "MessageDropped", antenna=m))
        for n in range(1, n_total + 1):
            events.append(Event(t, "SlotStart", antenna=m, frequency=n))
            t += slot_us
            events.append(Event(t, "AdcSample", antenna=m, frequency=n, value=next(samples)))

    code = encode_feedback(*(batch.selected[b, j] + 1).tolist(), (m_total, n_total))
    applied_m, applied_n = (batch.applied[b, j] + 1).tolist()
    events.append(Event(t, "MessageSent", value=code))
    if batch.fed_back[b, j]:
        events.append(Event(t, "FeedbackApplied", antenna=applied_m, frequency=applied_n))
    else:
        events.append(Event(t, "MessageDropped", value=code))
    events.append(Event(t, "WptPhaseStart", antenna=applied_m, frequency=applied_n))
    events.append(Event(sched.frame_us(m_total * n_total), "FrameEnd"))
    return events


def run_frame(p_dc: np.ndarray, rect: RectennaConfig, sched: FrameSchedule = FrameSchedule(),
              link: ControlLinkModel = ControlLinkModel(), rng: np.random.Generator | None = None,
              adc: AdcModel | None = DEFAULT_ADC) -> RoundBatch:
    """Simulate one frame from rest: the :func:`run_rounds` batch of one run,
    one round, one user and one frame, whose events :func:`frame_log` lists.

    ``p_dc`` is the receiver's steady dc power in watts per (antenna,
    frequency) pair, as :func:`wptdas.signal_chain.dc_power_matrix` gives it.
    The transmitter sweep is aligned to the receiver's slot grid; a link
    latency only blanks the start of each activation block. A dropped
    activation leaves the transmitter idle for that antenna's whole block
    (the receiver still samples every slot). A dropped feedback makes the
    transmitter fall back to (antenna 1, middle frequency).
    """
    p_dc = CandidateMatrix.from_powers(p_dc).values
    return run_rounds([p_dc[None, None, None]], rect, sched, link, adc,
                      [link.draws(rng, (1, 1, p_dc.shape[0] + 1))])[0]
