"""Round-robin TDMA orchestration for multiple harvesting receivers.

Users take turns training: in frame i the user ``i mod K`` runs the full
training/feedback cycle and the transmitter serves its selection, while
every other user passively harvests whatever the transmitter emits -
slot by slot during training, then the selected pair for the delivery
phase - through its own channel. Every user has the same rectenna; users
differ only in their channel and extra path loss.

Every user's channel is redrawn from the tap profile at the start of each
round (one round = K consecutive frames), so one round is one Monte Carlo
realization: each user trains exactly once per realization and the
channel is block-static within it. Each round's redraws consume the run's
stream in user order, then the round's link draws follow; every round is
drawn before the first frame runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer
from .experiments import ExperimentConfig, _users_dc
from .protocol import (
    DEFAULT_ADC,
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    check_feedback_space,
    run_rounds,
)
from .rng import DOMAIN_TDMA, substream
from .selection import check_powers

TRACE_COLUMNS = "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"


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


def run_tdma(cfg: ExperimentConfig, frames: int, sched: FrameSchedule = FrameSchedule(),
             link: ControlLinkModel = ControlLinkModel(),
             adc: AdcModel | None = DEFAULT_ADC) -> TdmaResult:
    """Run ``frames`` TDMA frames over users ``1..cfg.users`` from rest. Each
    round redraws every user's channel (``cfg.max_antennas`` antennas, the
    user's ``cfg.user_loss_db``), then takes its link draws, from
    ``substream(cfg.seed, DOMAIN_TDMA)``; one :func:`wptdas.protocol.run_rounds`
    walk of all rounds gives the rows. Bad counts fail before the first draw."""
    frames = check_integer("frames", frames, low=1)
    check_feedback_space(cfg.max_antennas, cfg.grid.count)
    k, m_total = cfg.users, cfg.max_antennas
    rng, draws = substream(cfg.seed, DOMAIN_TDMA), []

    def fill(a, z):  # each round's channels, user by user, then its link draws
        for r, z_round in enumerate(z, a):
            rng.standard_normal(out=z_round)
            draws.append(link.draws(rng, (1, min(k, frames - r * k), m_total + 1)))

    p_dc = _users_dc(cfg, -(-frames // k), fill)  # each round's dc matrices
    batch, = run_rounds([check_powers(p_dc[None])], cfg.rect, sched, link, adc,
                        [None if draws[0] is None else np.concatenate(draws, axis=1)], frames)

    frame_s = sched.frame_us(m_total * cfg.grid.count) * 1e-6
    rows: list[TraceRow] = []
    totals = [0.0] * k
    for f, ((antenna, frequency), energy) in enumerate(zip(
            (batch.applied[0] + 1).tolist(), (batch.training_j[0] + batch.wpt_j[0]).tolist())):
        j = f % k
        for u in [j] + [v for v in range(k) if v != j]:
            totals[u] += energy[u]
            rows.append(TraceRow(f, u + 1, u == j, antenna, frequency,
                                 energy[u] / frame_s, totals[u]))
    return TdmaResult(rows)
