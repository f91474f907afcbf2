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

One engine, :func:`run_rounds`, walks every frame of a batch of independent
TDMA runs at once, from rest (0 V, no earlier pair): every (run, user) row
settles through the same slots, the training user's samples feed its
selection, and the passive users harvest what the transmitter emits. The
engine alone carries each output voltage and each user's fallback pair
from frame to frame. Its cells, walked side by side in lanes, are candidate
sets: offsets into every M x N matrix of one dc tensor. Each gets a
:class:`RoundBatch` of views into the walk's arrays. The protocol sweep
walks its nested cells over all realizations in one call without the
energies; :func:`wptdas.experiments.run_tdma` and :func:`run_frame` walk one
cell that covers the whole matrix. Event logs are built only on request,
from the batch's arrays (:func:`frame_log`, written by :func:`write_events`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (FeedbackCapacityError, FeedbackDecodeError, ValidationError,
                     check_finite, check_integer)
from .rectenna import RectennaConfig, segment_energy, settle
from .selection import CandidateMatrix, check_powers, default_pair

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


def _segments(blank: list, slot_us: int, wpt_blank: int) -> list:
    """One antenna block's settling segments in time order, as (frequency,
    us, head), given each frequency's blanked head (:func:`_blank_us`); a
    frame of M antennas runs M such blocks.

    One per slot, except that a slot whose head is blanked splits in two for
    every row: toward 0 over the head, then toward the row's target, which
    is 0 where the transmitter is idle. A slot ends with its one segment
    that is not a head. Last comes the delivery phase's head of ``wpt_blank``
    us, dark and ending no slot; at 0 us it holds the voltage.
    """
    segs = []
    for n, head in enumerate(blank):
        segs += ([(n, head, True), (n, slot_us - head, False)]
                 if 0 < head < slot_us else [(n, slot_us, False)])
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


def run_rounds(p_dc: np.ndarray, cells: list, rect: RectennaConfig, sched: FrameSchedule,
               link: ControlLinkModel, adc: AdcModel | None, draws: np.ndarray | None, *,
               energy: bool = True) -> list[RoundBatch]:
    """Walk ``R`` whole rounds of ``B`` independent runs of each of a list of
    cells through the protocol, from rest; one :class:`RoundBatch` per cell.

    ``p_dc`` (B, R, K, M, N) holds each user's steady dc power per pair in
    each round, already through :func:`check_powers`; frame ``f`` trains user
    ``f % K`` with round ``f // K``'s powers. A cell is an (m, n) integer
    array: entry (a, i) is the offset, in a user's flattened M x N matrix, of
    the pair it trains as antenna a + 1 at frequency i + 1. ``draws`` (B, R,
    K S), S the sum of the cells' m + 1, holds the link uniforms in stream
    order (cell by cell, user by user, m activations then the feedback), or
    is None on a lossless link; a message gets through when its draw is at
    least the drop probability. Every user harvests through the one
    rectenna ``rect``. With ``energy=False`` the walk skips the training and
    delivery energies and returns them as None. Rejected before the walk: a
    tensor that is not 5-D, no cell, a cell that is not a non-empty 2-D
    array of offsets into the matrix within the feedback space, draws that
    do not fit or are None on a lossy link, and a load whose output voltage
    ``sqrt(p * load)`` would overflow at a cell's pair.

    Every run starts at rest: each output at 0 V, and each user's
    transmitter falls back to :func:`default_pair` when its feedback is
    lost. The output voltage carries from frame to frame, and the pair a
    frame serves becomes its training user's fallback.

    The walk numbers the cells' pairs one after another as slots and reads
    each slot's power through its offset from one transposed copy of
    ``p_dc``. A cell's frame is a run of settling steps: a start step, which
    loads the cell's voltage (decay 0, target v: ``v + (0 - v) * 0 == v``),
    then one step per segment (:func:`_segments`), the last the delivery
    phase's head, dark until the feedback takes effect. A step's decay
    depends only on its duration; whether the transmitter emits sets only
    each row's target, so a dropped activation is a zero-power emission. The
    cells are packed side by side into lanes as long as the longest cell's
    run (:func:`_pack_lanes`), and a lane's unused tail holds its voltage
    (decay 1, target 0). Each frame steps every lane at once, then picks
    every cell's pair in one pass: its largest sampled power, then the first
    of its slots that holds it, so a tie goes to the lowest antenna, then
    frequency, as in :func:`wptdas.selection.select_pairs`. With the
    energies, one pass takes every step's energy: a cell's training energy
    sums its steps before the head, its delivery energy is the head's plus
    the served power over the rest of the phase. Each element meets the same
    float operations, in the same order, as a walk of one receiver through
    one frame of one cell. Without the energies, unless delivery is fully
    blanked, every frame-end voltage is the served pair's steady voltage, so
    only the training user's column is walked.
    """
    if np.ndim(p_dc) != 5:
        raise ValidationError(f"p_dc {np.shape(p_dc)} is not (runs, rounds, users, M, N)")
    n_runs, n_rounds, k_users, m_dc, n_dc = p_dc.shape
    frames, n_cells = n_rounds * k_users, len(cells)
    if not n_cells:
        raise ValidationError("need at least one cell")
    cells = [np.asarray(c) for c in cells]
    for c, cell in enumerate(cells):
        if cell.ndim != 2:
            raise ValidationError(f"cell {c}: offsets {cell.shape} are not (m, n)")
        if not cell.size:
            raise ValidationError(f"cell {c} trains no pair")
        if cell.dtype.kind not in "iu" or not 0 <= cell.min() <= cell.max() < m_dc * n_dc:
            raise ValidationError(f"cell {c}: offsets must be integers in 0..{m_dc * n_dc - 1}")
        check_feedback_space(*cell.shape)
    ms, ns = np.array([cell.shape for cell in cells]).T
    msgs = int((ms + 1).sum())  # a frame's messages over every cell
    if draws is None and link.drop_probability > 0.0:
        raise ValidationError("a lossy control link needs draws, got None")
    if draws is not None and np.shape(draws) != (n_runs, n_rounds, k_users * msgs):
        raise ValidationError(f"draws {np.shape(draws)} do not fit the walk's "
                              f"{(n_runs, n_rounds, k_users * msgs)}")
    slot_us, wpt_us = sched.slot_us, sched.wpt_us
    tau, load = rect.settle_tau_s, rect.load_ohms
    # each user's powers pair by pair (R, M N, B, K); each slot's pair, cell by cell
    p_pairs = p_dc.reshape(n_runs, n_rounds, k_users, m_dc * n_dc).transpose(1, 3, 0, 2).copy()
    slot_at = np.concatenate([cell.ravel() for cell in cells])
    # no voltage exceeds sqrt(p * load), so no energy term exceeds a few p * load
    # times the longest segment or tau
    p_max = float(p_pairs.max(axis=(0, 2, 3), initial=0.0)[slot_at].max())
    if not p_max * load * 4.0 * (1.0 + slot_us * 1e-6 + tau) < math.inf:
        raise ValidationError(f"load_ohms = {load!r}, settle_tau_s = {tau!r} or slot_s = "
                              f"{sched.slot_s!r} overflows the energy bound at p = {p_max!r} W")
    wpt_blank = _blank_us(link, 1, wpt_us)[0]
    trim = not energy and wpt_us > wpt_blank  # walk only the training user's column

    # The step tables, (steps, lanes): the slot each step settles toward, its
    # duration's code, and whether its target is 0 whatever is emitted (heads,
    # start steps and tails). Cell (m, n) runs m copies of the first n
    # frequencies of one antenna block for the most frequencies, ``block``,
    # whose delivery head comes last and start step after it (index -1).
    blank = _blank_us(link, ns.max(), slot_us)
    block = _segments(blank, slot_us, wpt_blank) + [(0, 0, True)]
    blk_freq = np.array([s for s, _, _ in block])
    blk_head = np.array([head for _, _, head in block])
    # Python ints, code 0 a lane's tail: slot_us can pass int64
    durations = [0] + [us for _, us, _ in block[:-1]]
    per = np.searchsorted(blk_freq[:-2], ns)  # segments per antenna
    steps = ms * per + 2  # a start step, the slots' segments, the delivery head
    n_lanes, place = _pack_lanes(steps.tolist())
    cell_lane, cell_first = np.array(place).T
    cell_last = cell_first + steps - 1  # each cell's delivery head
    length = steps.max()
    cell = np.repeat(np.arange(n_cells), steps)  # each step's cell and index in it
    i = np.arange(cell.size) - np.repeat(np.cumsum(steps) - steps, steps)
    a, t = np.divmod(i - 1, per[cell])  # antenna and block segment of a step in a slot
    t[i == 0], t[i == steps[cell] - 1] = len(block) - 1, len(block) - 2
    slot_off = np.concatenate([[0], np.cumsum(ms * ns)])
    at = (cell_first[cell] + i) * n_lanes + cell_lane[cell]
    step_pair, seg_code = np.zeros((2, length, n_lanes), np.intp)
    dark = np.ones((length, n_lanes, 1, 1), bool)
    step_pair.flat[at] = np.where(blk_head[t], 0, slot_off[cell] + a * ns[cell] + blk_freq[t])
    seg_code.flat[at], dark.flat[at] = t + 1, blk_head[t]
    slot_end = at[~blk_head[t]]
    step_at = slot_at[step_pair]  # the offset of each step's pair in a matrix

    # each slot's cell, 0-based pair and activation message, and whether it
    # emits at all when its activation gets through
    slot_cell = np.repeat(np.arange(n_cells), ms * ns)
    slot_pair = np.stack(np.divmod(np.arange(slot_off[-1]) - slot_off[slot_cell],
                                   ns[slot_cell]), axis=-1)
    msg_off = np.cumsum(ms + 1) - ms - 1  # each cell's first message in a frame
    # where user j's frame messages sit in its round's draws, (K, msgs)
    in_round = np.hstack([k_users * m0 + np.arange(k_users * (m + 1)).reshape(k_users, m + 1)
                          for m, m0 in zip(ms, msg_off)])
    ok = (np.ones((n_runs, frames, msgs), bool) if draws is None else
          (draws >= link.drop_probability)[..., in_round].reshape(n_runs, frames, msgs))
    emits = ok[..., msg_off[slot_cell] + slot_pair[:, 0]] & np.array(
        [b < slot_us for b in blank])[slot_pair[:, 1]]  # (B, F, slots)
    fed_back = ok[..., msg_off + ms].transpose(2, 0, 1)  # (C, B, F)

    # one exp (and expm1) per duration, then a row per step
    decay = np.array([math.exp(-(us * 1e-6) / tau) for us in durations] + [0.0])
    seg_decay = decay[seg_code][..., None, None]
    if energy:  # a start step takes 0 us
        rise = np.array([-math.expm1(-(us * 1e-6) / tau) for us in durations + [0]])
        seg_rise = rise[seg_code][..., None, None]
        seg_dur = np.array(durations + [0])[seg_code][..., None, None] * 1e-6

    rows = np.arange(n_runs)
    firsts = slot_off[:-1]
    width = 1 if trim else k_users
    tgt = np.empty((length, n_lanes, n_runs, width))
    # a lean walk reads no target after its step, so the voltages overwrite them
    volts = tgt if trim else np.empty_like(tgt)
    samples = np.empty((n_runs, frames, slot_off[-1]))
    v = np.zeros((n_cells, n_runs, k_users))  # every output starts at 0 V
    antenna, frequency = default_pair(ns)
    last = np.empty((n_cells, n_runs, k_users), np.intp)  # each user's fallback slot
    last[...] = (firsts + antenna * ns + frequency)[:, None, None]
    picks, served = np.empty((2, n_cells, n_runs, frames), np.intp)  # slots, (C, B, F)
    selected_w = np.empty((n_cells, n_runs, frames))
    served_w, voltage_v = np.empty((2, n_cells, n_runs, frames, k_users))
    training_j = wpt_j = None
    if energy:
        training_j, wpt_j = np.empty((2, n_cells, n_runs, frames, k_users))
    # each step's rows, as views made once: every frame reuses the buffers
    step_rows = list(zip(volts[:-1], tgt[1:], seg_decay[1:], volts[1:]))
    slot_ids = np.arange(slot_off[-1])[:, None]
    ends = np.empty((slot_off[-1], n_runs))  # each frame's slot-end voltages, then powers
    for f in range(frames):
        r, j = divmod(f, k_users)  # the round and its training user
        p_round = p_pairs[r]
        cols = slice(j, j + 1) if trim else slice(None)
        np.take(p_round[..., cols], step_at, axis=0, out=tgt, mode="clip")
        tgt *= load
        np.sqrt(tgt, out=tgt)
        np.copyto(tgt, 0.0, where=dark | ~emits[:, f, step_pair].transpose(1, 2, 0)[..., None])
        tgt[cell_first, cell_lane] = v[..., cols]
        volts[0] = tgt[0]  # every lane opens with a start step
        for start, target, decay_s, end in step_rows:
            settle(start, target, decay_s, out=end)

        np.take(volts.reshape(-1, n_runs, width)[..., 0 if trim else j], slot_end, axis=0,
                out=ends, mode="clip")
        sampled = ends if adc is None else adc.quantize(ends)
        samples[:, f] = sampled.T
        sampled_w = check_powers(np.divide(np.square(sampled, out=ends), load, out=ends))
        del sampled  # the next frame's quantization need not hold this one's samples
        # each cell's largest sampled power, and its first slot that holds it:
        # the lowest antenna, then frequency
        top = selected_w[:, :, f] = np.maximum.reduceat(sampled_w, firsts)  # (C, B)
        pick = picks[:, :, f] = np.minimum.reduceat(
            np.where(sampled_w == top[slot_cell], slot_ids, slot_off[-1]), firsts)
        serve = served[:, :, f] = last[..., j] = np.where(fed_back[..., f], pick, last[..., j])
        p_served = served_w[:, :, f] = p_round[slot_at[serve], rows]  # (C, B, K)
        if energy:  # every step's energy at once, each cell's training summed in order
            energy_j = segment_energy(volts[:-1], tgt[1:], seg_dur[1:], seg_rise[1:], tau, load)
            for c, (lane, f0, l0) in enumerate(zip(cell_lane, cell_first, cell_last)):
                training_j[c, :, f] = np.add.accumulate(energy_j[f0:l0 - 1, lane])[-1]
            wpt_j[:, :, f] = (energy_j[cell_last - 1, cell_lane]
                              + p_served * (wpt_us - wpt_blank) * 1e-6)
        v = np.sqrt(p_served * load) if wpt_us > wpt_blank else volts[cell_last, cell_lane]
        voltage_v[:, :, f] = v

    selected, applied = slot_pair[picks], slot_pair[served]
    return [RoundBatch(activated=ok[..., m0:m0 + m], fed_back=ok[..., m0 + m],
                       emitting=emits[..., s0:s1].reshape(n_runs, frames, m, n),
                       samples=samples[..., s0:s1], selected=selected[c],
                       selected_w=selected_w[c], applied=applied[c], served_w=served_w[c],
                       training_j=None if training_j is None else training_j[c],
                       wpt_j=None if wpt_j is None else wpt_j[c], voltage_v=voltage_v[c])
            for c, (m, n, m0, s0, s1) in enumerate(zip(ms, ns, msg_off, slot_off, slot_off[1:]))]


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
    m_total, n_total = p_dc.shape
    return run_rounds(p_dc[None, None, None], [np.arange(m_total * n_total).reshape(p_dc.shape)],
                      rect, sched, link, adc, link.draws(rng, (1, 1, m_total + 1)))[0]
