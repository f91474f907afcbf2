"""Round-robin TDMA orchestration for multiple harvesting receivers.

Users take turns training: in frame i the user ``i mod K`` runs the full
training/feedback cycle and the transmitter serves its selection, while
every other user passively harvests whatever the transmitter emits -
slot by slot during training, then the selected pair for the delivery
phase - through its own channel and rectenna.

Every user's channel is redrawn from the tap profile at the start of each
round (one round = K consecutive frames), so one round is one Monte Carlo
realization: each user trains exactly once per realization and the
channel is block-static within it. Each round's redraws consume the
supplied stream in user order, then the round's link draws follow; every
round is drawn before the first frame runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import FrequencyGrid, LinkBudget, TapProfile, sample_channel
from .errors import ValidationError, check_finite, check_integer
from .protocol import (
    DEFAULT_ADC,
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    check_feedback_space,
    run_rounds,
)
from .rectenna import RectennaConfig
from .selection import check_powers
from .signal_chain import dc_power_matrix

TRACE_COLUMNS = "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"


@dataclass(frozen=True)
class UserState:
    """One receiver: its id, rectenna and extra path loss; runs start it at rest."""

    user_id: int
    rect: RectennaConfig = field(default_factory=RectennaConfig)
    extra_loss_db: float = 0.0  # deployment disparity (distance, blockage)

    def __post_init__(self):
        check_finite(self, "extra_loss_db")


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
    """Run ``frames`` TDMA frames over the given users, from rest.

    Every round redraws each user's channel from ``profile`` and ``rng``
    with ``antennas`` antennas, so a frame trains ``antennas * grid.count``
    slots; the round's link draws follow its channels. All rounds are one
    walk of :func:`wptdas.protocol.run_rounds`, which carries each user's
    output voltage and fallback pair from frame to frame; its arrays give
    the trace rows. ``users`` are left as they were, and no event logs are
    built. Bad counts are rejected before the first draw.
    """
    if not users:
        raise ValidationError("need at least one user")
    frames = check_integer("frames", frames, low=1)
    antennas = check_integer("antennas", antennas, low=1)
    check_feedback_space(antennas, grid.count)
    k = len(users)

    p_dc, draws = [], []
    for start in range(0, frames, k):
        # each user's channel holds for the round, and so does its dc matrix
        p_dc.append([dc_power_matrix(sample_channel(profile, antennas, rng), grid, budget,
                                     u.rect.curve, u.extra_loss_db) for u in users])
        draws.append(link.draws(rng, (1, min(k, frames - start), antennas + 1)))
    batch, = run_rounds([check_powers(np.array(p_dc)[None])], [u.rect for u in users], sched,
                        link, adc, [None if draws[0] is None else np.concatenate(draws, axis=1)],
                        frames)

    frame_s = sched.frame_us(antennas * grid.count) * 1e-6
    rows: list[TraceRow] = []
    totals = [0.0] * k
    for f, ((antenna, frequency), energy) in enumerate(zip(
            (batch.applied[0] + 1).tolist(), (batch.training_j[0] + batch.wpt_j[0]).tolist())):
        j = f % k
        for u in [j] + [v for v in range(k) if v != j]:
            totals[u] += energy[u]
            rows.append(TraceRow(f, users[u].user_id, u == j, antenna, frequency,
                                 energy[u] / frame_s, totals[u]))
    return TdmaResult(rows)
