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
    harvest_delivery,
    harvest_training,
    run_frame,
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


def _passive_harvest(user: UserState, log: EventLog, grid: FrequencyGrid,
                     budget: LinkBudget, sched: FrameSchedule,
                     link: ControlLinkModel) -> tuple[float, float]:
    """Replay one frame's emissions against a passive user.

    Returns (harvested energy, steady dc power at the served pair).
    """
    p_dc = dc_power_matrix(user.channel, grid, budget, user.rect.curve,
                           user.extra_loss_db)
    v_tgt = np.sqrt(p_dc * user.rect.load_ohms)
    e_train, _v_ends, v = harvest_training(log.emissions, v_tgt, user.voltage_v,
                                           sched, link, user.rect)
    served = (log.applied_antenna - 1, log.applied_frequency - 1)
    applied_p = float(p_dc[served])
    e_wpt, user.voltage_v = harvest_delivery(v, float(v_tgt[served]), applied_p,
                                             sched, link, user.rect)
    return e_train + e_wpt, applied_p


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

    for i in range(frames):
        if profile is not None and i % k == 0:
            for u in users:
                u.channel = sample_channel(profile, num_antennas, rng)
        active = users[i % k]
        log, _sel = run_frame(active.channel, grid, budget, active.rect,
                              sched=sched, link=link, prior=active.prior,
                              rng=rng, adc=adc, start_us=i * sched.frame_us,
                              v_initial=active.voltage_v,
                              extra_loss_db=active.extra_loss_db)
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

        for u in users:
            if u is active:
                continue
            e_passive, p_served = _passive_harvest(u, log, grid, budget, sched, link)
            u.energy_j += e_passive
            rows.append(TraceRow(i, u.user_id, False, log.applied_antenna,
                                 log.applied_frequency, e_passive / frame_s,
                                 u.energy_j, p_served))

    return TdmaResult(users=users, rows=rows, frames=frames, frame_logs=logs)
