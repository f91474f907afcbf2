"""Round-robin TDMA orchestration for multiple harvesting receivers.

Users take turns training: in frame i the user ``i mod K`` runs the full
training/feedback cycle and the transmitter serves its selection, while
every other user passively harvests whatever the transmitter emits -
slot by slot during training, then the selected pair for the delivery
phase - through its own channel and rectenna.

When a tap profile is supplied, every user's channel is redrawn at the
start of each round (one round = K consecutive frames), so one round is
one Monte Carlo realization: each user trains exactly once per
realization and the channel is block-static within it. Redraws consume
the supplied stream in user order, before any frame of the round runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, LinkBudget, TapProfile, sample_channel
from .errors import ValidationError
from .protocol import (
    DEFAULT_ADC,
    AdcModel,
    ControlLinkModel,
    EventLog,
    FrameSchedule,
    check_dc_matrix,
    frame_log,
    prior_pair,
    run_rounds,
)
from .rectenna import RectennaConfig
from .selection import SelectionDecision
from .signal_chain import dc_power_matrix

TRACE_COLUMNS = "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"


@dataclass
class UserState:
    """One receiver: its channel, rectenna, and accumulated harvest."""

    user_id: int
    channel: ChannelRealization | None = None
    rect: RectennaConfig = field(default_factory=RectennaConfig)
    extra_loss_db: float = 0.0  # deployment disparity (distance, blockage)
    prior: SelectionDecision | None = None
    energy_j: float = 0.0
    voltage_v: float = 0.0
    frames_trained: int = 0


@dataclass(frozen=True)
class TraceRow:
    frame: int
    user_id: int
    active: bool
    antenna: int
    frequency: int
    p_dc_w: float  # frame-average dc power (frame energy / frame duration)
    energy_j: float  # cumulative harvested energy for this user
    wpt_power_w: float = 0.0  # steady dc power at the served pair, this user's channel


@dataclass
class TdmaResult:
    users: list
    rows: list
    frames: int
    frame_logs: list

    def user_average_power_w(self, user_id: int) -> float:
        powers = [r.p_dc_w for r in self.rows if r.user_id == user_id]
        return float(np.mean(powers))

    def sum_power_per_frame_w(self) -> np.ndarray:
        out = np.zeros(self.frames)
        for r in self.rows:
            out[r.frame] += r.p_dc_w
        return out

    def to_csv(self, fh):
        fh.write(TRACE_COLUMNS + "\n")
        for r in self.rows:
            fh.write(f"{r.frame},{r.user_id},{int(r.active)},{r.antenna},"
                     f"{r.frequency},{r.p_dc_w:.12g},{r.energy_j:.12g}\n")


def run_tdma(users: list, frames: int, grid: FrequencyGrid, budget: LinkBudget,
             sched: FrameSchedule | None = None,
             link: ControlLinkModel | None = None,
             rng: np.random.Generator | None = None,
             profile: TapProfile | None = None,
             num_antennas: int | None = None,
             adc: AdcModel | None = DEFAULT_ADC,
             keep_logs: bool = False) -> TdmaResult:
    """Run ``frames`` TDMA frames over the given users.

    With a ``profile``, channels are redrawn per round from ``rng``
    (``num_antennas`` antennas, defaulting to the active channel size);
    otherwise the channels already held by the users are used throughout.
    Each round is one call of :func:`wptdas.protocol.run_rounds`; event logs
    are built from its arrays only when ``keep_logs`` asks for them.
    """
    if not users:
        raise ValidationError("need at least one user")
    if frames < 1:
        raise ValidationError("frames must be >= 1")
    sched = sched if sched is not None else FrameSchedule()
    link = link if link is not None else ControlLinkModel()
    k = len(users)
    if profile is None:
        for u in users:
            if u.channel is None:
                raise ValidationError(f"user {u.user_id} has no channel and no profile given")
    else:
        if rng is None:
            raise ValidationError("channel redraws need an rng")
        if num_antennas is None:
            num_antennas = sched.training_slots // grid.count

    rows: list[TraceRow] = []
    logs: list[EventLog] = []
    frame_s = sched.frame_s

    for start in range(0, frames, k):
        if profile is not None:
            for u in users:
                u.channel = sample_channel(profile, num_antennas, rng)
        # the channels hold for the round, and so does each user's dc matrix
        p_dc = [check_dc_matrix(dc_power_matrix(u.channel, grid, budget, u.rect.curve,
                                                u.extra_loss_db), sched)
                for u in users]
        if len({p.shape for p in p_dc}) > 1:
            raise ValidationError("every user's dc matrix must have the same shape")
        m_total, n_total = p_dc[0].shape
        count = min(k, frames - start)
        fallback = [[np.subtract(prior_pair(u.prior, n_total), 1) for u in users]]
        batch = run_rounds(np.stack(p_dc)[None], [u.rect for u in users], sched, link, adc,
                           link.draws(rng, (1, count, m_total + 1)),
                           [[u.voltage_v for u in users]], fallback, count)
        for j in range(count):
            i = start + j
            active = users[j]
            if keep_logs:
                logs.append(frame_log(batch, 0, j, sched, i * sched.frame_us))
            antenna, frequency = (batch.applied[0, j] + 1).tolist()
            served = batch.served_w[0, j].tolist()
            energy = [e_train + e_wpt for e_train, e_wpt in
                      zip(batch.training_j[0, j].tolist(), batch.wpt_j[0, j].tolist())]
            active.prior = SelectionDecision(antenna, frequency, served[j], "joint")
            active.frames_trained += 1
            for u_idx in [j] + [v for v in range(k) if v != j]:
                u = users[u_idx]
                u.energy_j += energy[u_idx]
                rows.append(TraceRow(i, u.user_id, u is active, antenna, frequency,
                                     energy[u_idx] / frame_s, u.energy_j, served[u_idx]))
            for u, v in zip(users, batch.voltage_v[0, j].tolist()):
                u.voltage_v = v

    return TdmaResult(users=users, rows=rows, frames=frames, frame_logs=logs)
