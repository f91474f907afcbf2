"""Round-robin TDMA orchestration for multiple harvesting receivers.

Users take turns training: in frame i the user ``i mod K`` runs the full
training/feedback cycle and the transmitter serves its selection, while
every other user passively harvests whatever the transmitter emits -
slot by slot during training, then the selected pair for the delivery
phase - through its own channel and rectenna.

Every user's channel is redrawn from the tap profile at the start of each
round (one round = K consecutive frames), so one round is one Monte Carlo
realization: each user trains exactly once per realization and the
channel is block-static within it. Redraws consume the supplied stream in
user order, before any frame of the round runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import FrequencyGrid, LinkBudget, TapProfile, sample_channel
from .errors import ValidationError, check_finite, check_integer, check_pair
from .protocol import (
    DEFAULT_ADC,
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    check_feedback_space,
    fallback_pair,
    run_rounds,
)
from .rectenna import RectennaConfig
from .selection import check_powers
from .signal_chain import dc_power_matrix

TRACE_COLUMNS = "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"


@dataclass
class UserState:
    """One receiver: its rectenna, last applied pair and accumulated harvest."""

    user_id: int
    rect: RectennaConfig = field(default_factory=RectennaConfig)
    extra_loss_db: float = 0.0  # deployment disparity (distance, blockage)
    prior: tuple[int, int] | None = None  # 1-based pair applied in its last frame
    energy_j: float = 0.0
    voltage_v: float = 0.0

    def __post_init__(self):
        check_finite(self, "extra_loss_db", "energy_j")
        check_finite(self, "voltage_v", low=0)
        check_pair("prior", self.prior)


@dataclass(frozen=True)
class TraceRow:
    frame: int
    user_id: int
    active: bool
    antenna: int
    frequency: int
    p_dc_w: float  # frame-average dc power (frame energy / frame duration)
    energy_j: float  # cumulative harvested energy for this user


@dataclass
class TdmaResult:
    rows: list

    def user_average_power_w(self, user_id: int) -> float:
        powers = [r.p_dc_w for r in self.rows if r.user_id == user_id]
        if not powers:
            raise KeyError(user_id)
        return float(np.mean(powers))

    def to_csv(self, fh):
        fh.write(TRACE_COLUMNS + "\n")
        for r in self.rows:
            fh.write(f"{r.frame},{r.user_id},{int(r.active)},{r.antenna},"
                     f"{r.frequency},{r.p_dc_w:.12g},{r.energy_j:.12g}\n")


def run_tdma(users: list, frames: int, grid: FrequencyGrid, budget: LinkBudget,
             profile: TapProfile, rng: np.random.Generator, sched: FrameSchedule = FrameSchedule(),
             link: ControlLinkModel = ControlLinkModel(),
             adc: AdcModel | None = DEFAULT_ADC, antennas: int = 4) -> TdmaResult:
    """Run ``frames`` TDMA frames over the given users.

    Every round redraws each user's channel from ``profile`` and ``rng``
    with ``antennas`` antennas, so a frame trains ``antennas * grid.count``
    slots. Each round is one call of :func:`wptdas.protocol.run_rounds`,
    whose arrays give the trace rows and update ``users`` in place; no event
    logs are built. Bad counts and priors are rejected before the first draw.
    """
    if not users:
        raise ValidationError("need at least one user")
    frames = check_integer("frames", frames, low=1)
    antennas = check_integer("antennas", antennas, low=1)
    check_feedback_space(antennas, grid.count)
    k = len(users)

    rows: list[TraceRow] = []
    frame_s = sched.frame_us(antennas * grid.count) * 1e-6

    for start in range(0, frames, k):
        fallback = [[fallback_pair(u.prior, antennas, grid.count) for u in users]]
        # each user's channel holds for the round, and so does its dc matrix
        p_dc = check_powers(np.stack([dc_power_matrix(
            sample_channel(profile, antennas, rng), grid, budget, u.rect.curve,
            u.extra_loss_db) for u in users]))
        count = min(k, frames - start)
        batch = run_rounds(p_dc[None], [u.rect for u in users], sched, link, adc,
                           link.draws(rng, (1, count, antennas + 1)),
                           [[u.voltage_v for u in users]], fallback, count)
        for j in range(count):
            i = start + j
            antenna, frequency = (batch.applied[0, j] + 1).tolist()
            energy = [e_train + e_wpt for e_train, e_wpt in
                      zip(batch.training_j[0, j].tolist(), batch.wpt_j[0, j].tolist())]
            users[j].prior = (antenna, frequency)
            for u_idx in [j] + [v for v in range(k) if v != j]:
                u = users[u_idx]
                u.energy_j += energy[u_idx]
                rows.append(TraceRow(i, u.user_id, u_idx == j, antenna, frequency,
                                     energy[u_idx] / frame_s, u.energy_j))
            for u, v in zip(users, batch.voltage_v[0, j].tolist()):
                u.voltage_v = v

    return TdmaResult(rows)
