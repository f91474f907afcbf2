"""Monte Carlo experiment runners and the receiver power-budget report.

Two pipelines share every realization's steady-state dc powers:

* :func:`run_sweep` - the idealized pipeline: build the steady-state
  candidate matrix directly and apply each selection strategy to it.
* :func:`run_protocol_experiment` - the same sweep realized through the
  frame protocol (ADC settling, quantization, feedback loss included).

Agreement of the two pipelines under idealized protocol settings is a
regression oracle, so both read one dc tensor built from the same
per-realization substreams (see :mod:`wptdas.rng`); the protocol sweep's
cells are slices of it. :func:`run_tdma` walks one run of round-robin
frames through the same protocol, round r drawn as realization r, and keeps
every frame's energies.

Sweeps over the candidate-set size are nested: the size-k frequency set is
always a subset of the size-(k+1) choice from the same master grid (middle
channel first, then the quartiles, then the band edges), and antenna sets
grow by index. Growing a nested candidate set can never shrink the
per-realization maximum, so selection-gain trends are monotone realization
by realization, not just on average.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import ChannelRealization, FrequencyGrid, LinkBudget, TapProfile, gains_from_normals
from .errors import ValidationError, check_finite, check_integer
from .protocol import (
    DEFAULT_ADC,
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    RoundBatch,
    check_feedback_space,
    control_bytes,
    run_rounds,
)
from .rectenna import RectennaConfig
from .rng import DOMAIN_CHANNEL, DOMAIN_LINK, keyed_draws, substream_keys
from .selection import STRATEGIES, check_powers, middle_index, select_pairs
from .signal_chain import dc_power_matrix

RESULT_COLUMNS = "M,N,strategy,user,avg_pdc_watts,stderr_watts,realizations,seed"
TRACE_COLUMNS = "frame,user,active_flag,antenna,frequency,p_dc_watts,energy_joules"
SUM_USER = 0  # user id used for multi-user sum rows
DC_BLOCK_DRAWS = 64  # (draw, user) pairs per dc-power call, or U if more: bounds its temporaries
SWEEP_BLOCK = 1024  # realizations per block of a sweep: bounds its working memory
REDUCE_CHUNK = 2 ** 16  # values per chunk of a sweep's series reduction, or R if more
TX_RADIO_W, TX_SOC_W = 0.048, 2.6e-6  # the transmitter's 802.15.4 radio and controller


def dbm_to_watts(x_dbm):
    """dBm to watts."""
    out = 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)
    return float(out) if out.ndim == 0 else out


def header_lines(seed: int, config_hash: str | None = None, kind: str | None = None) -> str:
    """The ``#`` lines that open every output file; kind and config hash only if given."""
    kind_line = "" if kind is None else f"# kind={kind}\n"
    config = "" if config_hash is None else f"# config={config_hash}\n"
    return f"# wptdas {__version__}\n{kind_line}# seed={seed}\n{config}"


def nested_frequency_indices(total: int, count: int) -> np.ndarray:
    """0-based indices of the size-``count`` nested subset of a grid.

    Priority order: middle channel, lower quartile, upper quartile, first,
    last, then the remaining channels in ascending order. On a 15-channel
    grid this yields {8}, {4,8,12}, {1,4,8,12,15}, ... (1-based).
    """
    if not 1 <= count <= total:
        raise ValidationError(f"subset size {count} outside 1..{total}")
    mid = middle_index(total)
    lq = (mid + 1) // 2
    uq = mid + (total - mid + 1) // 2
    priority: list[int] = []
    for idx in (mid, lq, uq, 1, total):
        if 1 <= idx <= total and idx not in priority:
            priority.append(idx)
    for idx in range(1, total + 1):
        if idx not in priority:
            priority.append(idx)
    return np.array(sorted(priority[:count])) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: channel statistics, candidate sets, averaging."""

    profile: TapProfile
    grid: FrequencyGrid
    budget: LinkBudget = field(default_factory=LinkBudget)
    rect: RectennaConfig = field(default_factory=RectennaConfig)
    antenna_sweep: tuple = (1, 2, 3, 4)
    frequency_sweep: tuple = (1, 3, 5, 15)
    strategies: tuple = STRATEGIES
    users: int = 1
    realizations: int = 300
    seed: int = 1
    user_loss_db: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", check_integer("seed", self.seed))
        for name in ("users", "realizations"):  # each indexes one 32-bit stream path word
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low=1))
            if getattr(self, name) > 2 ** 32:
                raise ValidationError(f"{name} must be at most 2**32")
        for name in ("antenna_sweep", "frequency_sweep", "strategies", "user_loss_db"):
            values = getattr(self, name)
            if isinstance(values, str) or not hasattr(values, "__iter__"):
                raise ValidationError(f"{name} must be a sequence, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        for name in ("antenna_sweep", "frequency_sweep"):
            values = getattr(self, name)
            if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) and (
                    isinstance(x, numbers.Integral) or float(x).is_integer()) for x in values):
                raise ValidationError(f"{name} entries must be whole numbers, got {values!r}")
            object.__setattr__(self, name, tuple(int(x) for x in values))
        check_finite(self, "user_loss_db")
        object.__setattr__(self, "user_loss_db", tuple(float(x) for x in self.user_loss_db))
        for loss in self.user_loss_db:
            if not math.isfinite(self.budget.scale(loss)):
                raise ValidationError(f"user_loss_db entry {loss:g} gives a received power "
                                      "scale that overflows")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be an unsigned 64-bit value")
        if not (self.antenna_sweep and self.frequency_sweep and self.strategies):
            raise ValidationError("sweep lists and strategies must be non-empty")
        if min(self.antenna_sweep) < 1:
            raise ValidationError("antenna_sweep counts must be >= 1")
        if min(self.frequency_sweep) < 1 or max(self.frequency_sweep) > self.grid.count:
            raise ValidationError("frequency subset sizes must lie in 1..grid.count")
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValidationError(f"unknown strategies: {sorted(unknown)}")
        for name in ("antenna_sweep", "frequency_sweep", "strategies"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValidationError(f"{name} repeats an entry: {getattr(self, name)!r}")
        if len(self.user_loss_db) not in (0, self.users):
            raise ValidationError("user_loss_db must have one entry per user")

    @property
    def max_antennas(self) -> int:
        return max(self.antenna_sweep)

    def loss_for_user(self, u: int) -> float:
        return self.user_loss_db[u] if self.user_loss_db else 0.0

    def fingerprint(self, extra: tuple = ()) -> str:
        """Short hash of every input that can change a result, with ``extra``
        settings held outside the config (the protocol schedule, link, ADC)."""
        h = hashlib.sha256()
        for part in (
            self.profile.name,
            self.profile.delays_s.tobytes(),
            self.profile.powers.tobytes(),
            self.grid.mode,
            self.grid.frequencies_hz.tobytes(),
            repr((self.budget.tx_power_w, self.budget.path_loss_db,
                  self.budget.tx_gain_dbi, self.budget.rx_gain_dbi)),
            repr((self.rect.load_ohms, self.rect.settle_tau_s)),
            self.rect.curve.source,
            repr((self.antenna_sweep, self.frequency_sweep, self.strategies,
                  self.users, self.realizations, self.seed, self.user_loss_db)),
        ):
            h.update(part.encode() if isinstance(part, str) else part)
        curve = self.rect.curve
        if curve.source == "table":
            h.update(repr(curve.table.shape).encode())
            for arr in (curve.power_axis_dbm, curve.freq_axis_hz, curve.table):
                h.update(arr.tobytes())
        else:
            h.update(repr((curve.eta_peak, curve.peak_dbm, curve.rise_slope,
                           curve.breakdown_dbm, curve.breakdown_slope)).encode())
        if extra:
            h.update(repr(extra).encode())
        return h.hexdigest()[:16]


class ResultRow(NamedTuple):
    m: int
    n: int
    strategy: str
    user: int  # 1-based user id, or SUM_USER for the multi-user sum
    avg_pdc_w: float
    stderr_w: float


@dataclass
class ExperimentResult:
    rows: list
    realizations: int
    seed: int
    config_hash: str
    kind: str = "sweep"

    def get(self, m: int, n: int, strategy: str, user: int = 1) -> ResultRow:
        for r in self.rows:
            if (r.m, r.n, r.strategy, r.user) == (m, n, strategy, user):
                return r
        raise KeyError((m, n, strategy, user))

    def to_csv(self, fh):
        fh.write(header_lines(self.seed, self.config_hash, self.kind) + RESULT_COLUMNS + "\n")
        for r in self.rows:
            fh.write(f"{r.m},{r.n},{r.strategy},{r.user},{r.avg_pdc_w:.12g},"
                     f"{r.stderr_w:.12g},{self.realizations},{self.seed}\n")


def _sweep_cells(cfg: ExperimentConfig):
    cols = {k: nested_frequency_indices(cfg.grid.count, k) for k in cfg.frequency_sweep}
    for m in cfg.antenna_sweep:
        for k in cfg.frequency_sweep:
            yield m, k, cols[k]


def _dc_tensor(cfg: ExperimentConfig, r0: int, r1: int) -> np.ndarray:
    """Steady-state dc powers (R, U, M_max, N) of realizations [r0, r1), each
    (r, u) from stream (DOMAIN_CHANNEL, r, u) with u's loss, whatever the range:
    keyed in one pass, drawn in one fill, and rated max(1, DC_BLOCK_DRAWS // U)
    realizations per :func:`dc_power_matrix` call, bit-identical to one at a time."""
    count, users = r1 - r0, cfg.users
    z = keyed_draws(substream_keys(cfg.seed, DOMAIN_CHANNEL, np.arange(r0, r1)[:, None],
                                   np.arange(users)), "standard_normal",
                    np.empty((count, users, cfg.max_antennas, cfg.profile.num_taps, 2)))
    dc = np.empty((count, users, cfg.max_antennas, cfg.grid.count))
    losses = [cfg.loss_for_user(u) for u in range(users)]
    step = max(1, DC_BLOCK_DRAWS // users)
    for a in range(0, count, step):
        gains = gains_from_normals(cfg.profile, z[a:a + step])
        dc[a:a + step] = dc_power_matrix(ChannelRealization(cfg.profile.delays_s, gains),
                                         cfg.grid, cfg.budget, cfg.rect.curve, losses)
    return dc


def _link_draws(cfg: ExperimentConfig, link: ControlLinkModel, r0: int, r1: int,
                width: int) -> np.ndarray | None:
    """Link uniforms (R, width) of realizations [r0, r1), each r's from stream
    (DOMAIN_LINK, r), keyed in one pass and drawn in one fill; None if lossless."""
    if link.drop_probability <= 0.0:
        return None
    keys = substream_keys(cfg.seed, DOMAIN_LINK, np.arange(r0, r1))
    return keyed_draws(keys, "random", np.empty((r1 - r0, width)))


@dataclass(frozen=True)
class TdmaResult:
    """Frame by frame, a TDMA run's served pair and every user's harvest."""

    applied: np.ndarray  # (F, 2) the pair served, 1-based
    p_dc_w: np.ndarray  # (F, K) frame-average dc power (frame energy / frame duration)
    energy_j: np.ndarray  # (F, K) cumulative harvested energy
    batch: RoundBatch  # the walk, in whole rounds: one run of ceil(F / K) K frames

    def user_average_power_w(self, user_id: int) -> float:
        if user_id not in range(1, self.p_dc_w.shape[1] + 1):
            raise KeyError(user_id)
        return float(np.mean(self.p_dc_w[:, int(user_id) - 1]))

    def to_csv(self, fh):
        """One row per frame and user, the frame's training user first."""
        fh.write(TRACE_COLUMNS + "\n")
        for f, ((antenna, frequency), powers, energies) in enumerate(zip(
                self.applied.tolist(), self.p_dc_w.tolist(), self.energy_j.tolist())):
            j = f % len(powers)
            for u in [j] + [v for v in range(len(powers)) if v != j]:
                fh.write(f"{f},{u + 1},{int(u == j)},{antenna},{frequency},"
                         f"{powers[u]:.12g},{energies[u]:.12g}\n")


def run_tdma(cfg: ExperimentConfig, frames: int, sched: FrameSchedule = FrameSchedule(),
             link: ControlLinkModel = ControlLinkModel(),
             adc: AdcModel | None = DEFAULT_ADC) -> TdmaResult:
    """Run ``frames`` round-robin TDMA frames over users ``1..cfg.users`` from rest.

    Frame i trains user ``i mod K``: it runs the full training/feedback cycle
    and the transmitter serves its selection, while every other user
    harvests passively, through its own channel, whatever the transmitter
    emits - slot by slot in training, then the served pair. Users share the
    rectenna ``cfg.rect`` and differ only in channel and ``cfg.user_loss_db``.
    Round r (K frames) is the sweeps' realization r: :func:`_dc_tensor` draws
    its channels (``cfg.max_antennas`` antennas), max(1, DC_BLOCK_DRAWS // K)
    rounds at a time, and (DOMAIN_LINK, r) its frames' link draws, so a link
    setting moves no channel. One :func:`wptdas.protocol.run_rounds` walk takes
    all ceil(frames / K) rounds and the result keeps the first ``frames``
    frames, and the walk's whole batch; the rest come last and change no kept
    value. Bad counts fail before the first draw.
    """
    frames = check_integer("frames", frames, low=1)
    check_feedback_space(cfg.max_antennas, cfg.grid.count)
    k, m_total = cfg.users, cfg.max_antennas
    rounds = -(-frames // k)
    if rounds > 2 ** 32:  # a round's index is one 32-bit stream path word
        raise ValidationError(f"frames must be at most 2**32 rounds of {k} user(s)")
    p_dc = np.empty((rounds, k, m_total, cfg.grid.count))  # each round's dc matrices
    step = max(1, DC_BLOCK_DRAWS // k)
    for a in range(0, rounds, step):
        p_dc[a:a + step] = _dc_tensor(cfg, a, min(a + step, rounds))
    draws = _link_draws(cfg, link, 0, rounds, k * (m_total + 1))
    batch, = run_rounds(check_powers(p_dc[None]),
                        [np.arange(m_total * cfg.grid.count).reshape(m_total, -1)], cfg.rect,
                        sched, link, adc, None if draws is None else draws[None])
    energy = (batch.training_j[0] + batch.wpt_j[0])[:frames]
    frame_s = sched.frame_us(m_total * cfg.grid.count) * 1e-6
    # summed frame by frame, in frame order
    return TdmaResult(batch.applied[0, :frames] + 1, energy / frame_s, np.add.accumulate(energy),
                      batch)


def _cell_values(cfg: ExperimentConfig, dc: np.ndarray) -> dict:
    """Per-realization strategy values from a checked (R, U, M_max, N) dc tensor.

    Returns {(m, k, strategy): array of shape (R, users)}. User u's value is
    its round average: frame v serves user v's selected pair, and u's harvest
    at each frame's pair is summed in frame order, as the protocol sweep and
    :func:`run_tdma` sum them. Each frequency set is copied out once; one
    gather per frame v reads every strategy's and user's harvest at v's pick.
    """
    n_real, users, m_max, n_total = dc.shape
    flat = dc.ravel()
    base = np.arange(0, dc.size, m_max * n_total).reshape(n_real, users)  # (r, u)'s matrix
    out = dict.fromkeys((m, k, s) for m in cfg.antenna_sweep for k in cfg.frequency_sweep
                        for s in cfg.strategies)  # in _sweep_cells' order
    for k in cfg.frequency_sweep:
        cols = nested_frequency_indices(cfg.grid.count, k)
        sub = dc[..., cols]
        # the baselines that hold antenna 1 pick the same pair in every antenna set
        held = {s: select_pairs(sub, s) for s in ("frequency_only", "none") if s in cfg.strategies}
        for m in cfg.antenna_sweep:
            a, f = np.array([held[s] if s in held else select_pairs(sub[:, :, :m], s)
                             for s in cfg.strategies]).swapaxes(0, 1)  # (S, R, U) each
            pick = a * n_total + cols[f]  # (S, R, U) offset of v's pair in a matrix
            total = np.zeros(pick.shape)
            for v in range(users):  # frame v serves user v's pick, in frame order
                total += flat[base + pick[..., v, None]]
            out.update(zip([(m, k, s) for s in cfg.strategies], total / users))
    return out


def _block_values(cfg: ExperimentConfig, protocol: tuple | None, r0: int, r1: int) -> dict:
    """Per-realization values {(m, k, strategy): array of shape (r1 - r0, users)}
    of realizations [r0, r1): :func:`_cell_values` of their dc tensor, or with a
    ``protocol`` (schedule, link, ADC), the delivery powers of joint selection.

    Each protocol cell is a set of offsets into every matrix of the one dc
    tensor, and every cell runs its round of one frame per user for every
    realization in one engine walk of that tensor, which skips the energies
    the sweep does not read. Realization r's draws come from its own
    substreams, so a block's values are those of any walk that holds it.
    """
    dc = check_powers(_dc_tensor(cfg, r0, r1))
    if protocol is None:
        return _cell_values(cfg, dc)
    sched, link, adc = protocol
    cells, users = list(_sweep_cells(cfg)), cfg.users
    draws = _link_draws(cfg, link, r0, r1, users * sum(m + 1 for m, _k, _cols in cells))
    offsets = [np.arange(m)[:, None] * cfg.grid.count + cols for m, _k, cols in cells]
    batches = run_rounds(dc[:, None], offsets, cfg.rect, sched, link, adc,
                         None if draws is None else draws[:, None], energy=False)
    # summed frame by frame, in frame order
    totals = np.add.accumulate(np.stack([batch.served_w for batch in batches]), axis=2)
    return {(m, k, "joint"): total / users for (m, k, _cols), total in zip(cells, totals[:, :, -1])}


def _sweep_rows(cfg: ExperimentConfig, protocol: tuple | None, jobs: int) -> list:
    """Summary rows of :func:`_block_values` over all realizations, walked in
    max(jobs, ceil(R / SWEEP_BLOCK)) near-equal blocks by this process, or by
    ``jobs`` workers, one per CPU at most; rows are identical for any split.
    Each block fills its span of one (cells, users [+ sum], R) array as it
    arrives; ``mean`` and ``std`` per chunk of max(1, REDUCE_CHUNK // R) rows give each series."""
    r_total, users = cfg.realizations, cfg.users
    jobs = min(check_integer("jobs", jobs, low=1), r_total, os.cpu_count() or 1)
    count = max(jobs, -(-r_total // SWEEP_BLOCK))

    def edge(i):  # block i spans [edge(i), edge(i + 1)); no list grows with R
        return r_total * i // count

    spans = (repeat(cfg), repeat(protocol), map(edge, range(count)), map(edge, range(1, count + 1)))
    if jobs == 1:
        pool, mapper = nullcontext(), map
    else:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
        mapper = pool.map
    with pool:
        for i, block in enumerate(mapper(_block_values, *spans)):
            r0, r1 = edge(i), edge(i + 1)
            stacked = np.array(list(block.values()))  # (cells, r1 - r0, users)
            if r0 == 0:
                cells = list(block)
                values = np.empty((len(cells), users + (users > 1), r_total))
            values[:, :users, r0:r1] = stacked.transpose(0, 2, 1)
            if users > 1:
                values[:, users, r0:r1] = stacked.sum(axis=2)
    series = values.reshape(-1, r_total)
    mean, stderr = np.empty(len(series)), np.zeros(len(series))
    step = max(1, REDUCE_CHUNK // r_total)  # rows per reduction: bounds np.std's temporary
    for a in range(0, len(series), step):
        rows = series[a:a + step]
        # a row past 2**480 is scaled down to it by an exact power of two: no square overflows
        shift = np.maximum(np.frexp(rows.max(axis=1))[1] - 480, 0)
        np.ldexp(rows, -shift[:, None], out=rows)
        mean[a:a + step] = np.ldexp(rows.mean(axis=1), shift)
        if r_total > 1:
            stderr[a:a + step] = np.ldexp(np.std(rows, axis=1, ddof=1) / math.sqrt(r_total), shift)
    ids = list(range(1, users + 1)) + ([SUM_USER] if users > 1 else [])
    labels = [(m, k, s, u) for m, k, s in cells for u in ids]
    return [ResultRow(*label, a, e)
            for label, a, e in zip(labels, mean.tolist(), stderr.tolist(), strict=True)]


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Average dc power per (antenna set, frequency set, strategy, user).

    The per-realization pipeline is the idealized one: steady-state
    candidate powers, no frame protocol. With multiple users, frame i of a
    round serves user i's selection while the others harvest passively at
    the served pair; reported values are per-round (cycle) averages, each
    user's frames summed in frame order as in the protocol sweep.
    ``jobs`` only parallelizes; results are identical for any job count.
    """
    return ExperimentResult(_sweep_rows(cfg, None, jobs), cfg.realizations, cfg.seed,
                            cfg.fingerprint(), kind="sweep")


def run_protocol_experiment(cfg: ExperimentConfig, sched: FrameSchedule = FrameSchedule(),
                            link: ControlLinkModel = ControlLinkModel(),
                            adc: AdcModel | None = DEFAULT_ADC, jobs: int = 1) -> ExperimentResult:
    """The sweep realized through the frame protocol.

    Every (antenna set, frequency set) cell runs one TDMA round per
    realization (one frame per user) with joint selection at the receiver;
    the reported value is the delivery-phase dc power, so under ideal
    settings it must match :func:`run_sweep`'s joint value. No event logs
    are built; :func:`wptdas.protocol.frame_log` lists any frame's events.
    """
    return ExperimentResult(_sweep_rows(cfg, (sched, link, adc), jobs), cfg.realizations,
                            cfg.seed, protocol_fingerprint(cfg, sched, link, adc), kind="protocol")


def protocol_fingerprint(cfg: ExperimentConfig, sched: FrameSchedule, link: ControlLinkModel,
                         adc: AdcModel | None, extra: tuple = ()) -> str:
    """Fingerprint of ``cfg`` run through the frame protocol, plus ``extra``."""
    adc_key = None if adc is None else (adc.bits, adc.v_ref)
    return cfg.fingerprint((sched.slot_s, sched.wpt_s, link.drop_probability,
                            link.latency_s, adc_key) + extra)


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


def power_budget_report(train_avg_power_w: float = 3.9e-6,
                        wpt_avg_power_w: float = 20.4e-6,
                        sched: FrameSchedule = FrameSchedule(),
                        soc_power_w: float = 2.6e-6,
                        radio_power_w: float = 0.048,
                        radio_bitrate_bps: float = 250e3,
                        pa_supply_w: float = 84.0,
                        dims: tuple[int, int] = (4, 15)) -> tuple[EnergyBudget, str]:
    """Per-frame energy ledger from phase-average powers, plus a report. A frame
    of ``dims`` (antennas, frequencies) trains one slot per pair and sends one
    control byte per antenna activation, then the feedback byte. The receiver's
    controller draws ``soc_power_w`` all frame; its radio draws ``radio_power_w``
    while it sends those bytes at ``radio_bitrate_bps``. The report ends with
    the transmitter's draw: ``pa_supply_w`` for the amplifier (a 28 V rail at
    3 A by default) plus its radio and controller."""
    inputs = dict(train_avg_power_w=train_avg_power_w, wpt_avg_power_w=wpt_avg_power_w,
                  soc_power_w=soc_power_w, radio_power_w=radio_power_w,
                  radio_bitrate_bps=radio_bitrate_bps, pa_supply_w=pa_supply_w)
    check_finite(inputs, *inputs, low=0)
    m_total, n_total = (check_integer("dims", x, low=1) for x in dims)
    slots, bytes_sent = m_total * n_total, control_bytes(m_total)
    if sched.frame_us(slots) > sys.float_info.max:  # an int no float holds
        raise ValidationError(f"the frame of {slots} x slot_s + wpt_s overflows")
    t_radio = 8.0 * bytes_sent / radio_bitrate_bps if radio_bitrate_bps > 0 else math.inf
    e_train = slots * sched.slot_us * 1e-6 * train_avg_power_w
    e_wpt = sched.wpt_us * 1e-6 * wpt_avg_power_w
    e_dc = e_train + e_wpt
    frame_s = sched.frame_us(slots) * 1e-6
    e_soc = frame_s * soc_power_w
    e_radio = t_radio * radio_power_w
    e_consumed = e_soc + e_radio
    e_net = e_dc - e_consumed
    b = EnergyBudget(e_dc, e_soc, e_radio, e_consumed, e_net,
                     e_net / e_dc if e_dc > 0 else math.nan, t_radio, frame_s, bytes_sent)
    uj = 1e6
    # finite inputs can overflow together: each number the report prints, in its unit
    printed = {"radio_bitrate_bps gives a radio time in ms": t_radio * 1e3,
               "slot_s x train_avg_power_w give a training energy in uJ": e_train * uj,
               "wpt_s x wpt_avg_power_w give a delivery energy in uJ": e_wpt * uj,
               "soc_power_w gives a controller power in uW": soc_power_w * uj,
               "radio_power_w gives a radio power in mW": radio_power_w * 1e3,
               "slot_s, wpt_s x soc_power_w give a controller energy in uJ": e_soc * uj,
               "radio_bitrate_bps, radio_power_w give a radio energy in uJ": e_radio * uj,
               "train_avg_power_w + wpt_avg_power_w give a harvest in uJ": e_dc * uj,
               "soc_power_w + radio_power_w give a consumption in uJ": e_consumed * uj,
               "train_avg_power_w, wpt_avg_power_w give an efficiency in %": b.efficiency * 100}
    for what, value in printed.items():  # a nan follows an inf above, or is "n/a" efficiency
        if math.isinf(value):
            raise ValidationError(f"{what} that is not finite ({value:g})")
    lines = [
        f"frame      {b.frame_s:.6f} s ({slots} x {sched.slot_s * 1e3:.3f} ms "
        f"training + {sched.wpt_s:.6f} s delivery)",
        f"harvested  {b.e_dc_j * uj:.3f} uJ (training {e_train * uj:.3f} uJ "
        f"+ delivery {e_wpt * uj:.3f} uJ)",
        f"controller {b.e_soc_j * uj:.3f} uJ ({soc_power_w * uj:.3f} uW x {b.frame_s:.3f} s)",
        f"radio      {b.e_radio_j * uj:.3f} uJ ({b.bytes_sent} B @ "
        f"{radio_bitrate_bps / 1e3:.1f} kbps -> {b.t_radio_s * 1e3:.3f} ms "
        f"x {radio_power_w * 1e3:.1f} mW)",
        f"consumed   {b.e_consumed_j * uj:.3f} uJ",
        f"net        {b.e_net_j * uj:.3f} uJ",
        f"efficiency {b.efficiency * 100:.1f} %" if not math.isnan(b.efficiency)
        else "efficiency n/a (no harvest)",
        f"transmitter draw {pa_supply_w + TX_RADIO_W + TX_SOC_W:.6f} W (amplifier "
        f"{pa_supply_w:g} W + radio {TX_RADIO_W * 1e3:g} mW + controller {TX_SOC_W * 1e6:g} uW)",
    ]
    return b, "\n".join(lines)
