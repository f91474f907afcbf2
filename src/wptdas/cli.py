"""Command-line front end: config-driven experiments with CSV output.

Configs are INI files with one section per subsystem; every key has a
default equal to the standard setup (36 dBm transmit power, 60.046 dB path
loss, 18 ms slots, 2.92 s delivery phase, 300 realizations), so an empty
config reproduces it. All powers are given in dBm and stored as watts
internally. Output files embed the tool version and seed in header
comments and contain no timestamps, so a (config, seed) pair always
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass

from . import __version__
from .channel import FrequencyGrid, LinkBudget, TapProfile, resolve_profile, sample_channel
from .errors import ValidationError
from .experiments import (
    ExperimentConfig,
    TransmitterConsumption,
    dbm_to_watts,
    power_budget_report,
    run_protocol_experiment,
    run_sweep,
)
from .protocol import AdcModel, ControlLinkModel, FrameSchedule, ReceiverConsumption, run_frame
from .rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table
from .rng import DOMAIN_CHANNEL, DOMAIN_LINK, DOMAIN_TDMA, substream
from .scheduler import UserState, run_tdma

OUT_DIR_ENV = "WPTDAS_OUT"

_KNOWN_KEYS = {
    "channel": {"profile", "grid", "center_mhz", "bandwidth_mhz", "frequencies",
                "tx_power_dbm", "path_loss_db", "tx_gain_dbi", "rx_gain_dbi"},
    "rectenna": {"curve", "eta_peak", "peak_dbm", "rise_slope", "breakdown_dbm",
                 "breakdown_slope", "load_ohms", "settle_tau_s"},
    "schedule": {"slot_s", "wpt_s"},
    "link": {"delivery", "drop_probability", "latency_s"},
    "adc": {"enabled", "bits", "vref"},
    "experiment": {"realizations", "seed", "users", "frames", "antenna_sweep",
                   "frequency_sweep", "strategies", "pipeline", "user_loss_db"},
    "consumption": {"soc_power_dbm", "radio_power_dbm", "bitrate_bps", "bytes",
                    "pa_supply_dbm"},
    "budget": {"train_power_dbm", "wpt_power_dbm"},
}


@dataclass
class Settings:
    """Everything the subcommands need, resolved from config plus defaults."""

    profile: TapProfile
    grid: FrequencyGrid
    budget: LinkBudget
    rect: RectennaConfig
    sched: FrameSchedule
    link: ControlLinkModel
    adc: AdcModel | None
    experiment: ExperimentConfig
    consumption: ReceiverConsumption
    tx_consumption: TransmitterConsumption
    budget_train_w: float
    budget_wpt_w: float
    pipeline: str
    frames: int
    seed: int


def _load_ini(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
    for section in cfg.sections():
        if section not in _KNOWN_KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in cfg[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
    return cfg


def _get(cfg, section, key, default, cast=float):
    if cfg.has_option(section, key):
        raw = cfg.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ValidationError(f"[{section}] {key}: {exc}") from exc
    return default


def _int_list(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _str_list(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def load_settings(config_path: str | None, seed_override: int | None = None) -> Settings:
    cfg = _load_ini(config_path)

    profile = resolve_profile(_get(cfg, "channel", "profile", "model-E-NLOS", str))
    grid_mode = _get(cfg, "channel", "grid", "uniform", str)
    count = _get(cfg, "channel", "frequencies", 15, int)
    if grid_mode == "uniform":
        grid = FrequencyGrid.uniform(_get(cfg, "channel", "center_mhz", 2400.0) * 1e6,
                                     _get(cfg, "channel", "bandwidth_mhz", 75.0) * 1e6,
                                     count)
    elif grid_mode == "ieee":
        grid = FrequencyGrid.ieee_plan(count)
    else:
        raise ValidationError(f"[channel] grid must be 'uniform' or 'ieee', not {grid_mode!r}")

    budget = LinkBudget(
        tx_power_w=dbm_to_watts(_get(cfg, "channel", "tx_power_dbm", 36.0)),
        path_loss_db=_get(cfg, "channel", "path_loss_db", 60.046),
        tx_gain_dbi=_get(cfg, "channel", "tx_gain_dbi", 0.0),
        rx_gain_dbi=_get(cfg, "channel", "rx_gain_dbi", 0.0),
    )

    curve_kind = _get(cfg, "rectenna", "curve", "parametric", str)
    if curve_kind == "parametric":
        defaults = EfficiencyCurve.parametric()
        curve = EfficiencyCurve.parametric(
            eta_peak=_get(cfg, "rectenna", "eta_peak", defaults.eta_peak),
            peak_dbm=_get(cfg, "rectenna", "peak_dbm", defaults.peak_dbm),
            rise_slope=_get(cfg, "rectenna", "rise_slope", defaults.rise_slope),
            breakdown_dbm=_get(cfg, "rectenna", "breakdown_dbm", defaults.breakdown_dbm),
            breakdown_slope=_get(cfg, "rectenna", "breakdown_slope", defaults.breakdown_slope),
        )
    else:
        curve = load_efficiency_table(curve_kind)
    rect = RectennaConfig(curve=curve,
                          load_ohms=_get(cfg, "rectenna", "load_ohms", 10_000.0),
                          settle_tau_s=_get(cfg, "rectenna", "settle_tau_s", 0.002))

    users = _get(cfg, "experiment", "users", 1, int)
    antenna_sweep = _get(cfg, "experiment", "antenna_sweep", (1, 2, 3, 4), _int_list)
    frequency_sweep = _get(cfg, "experiment", "frequency_sweep", (1, 3, 5, 15), _int_list)
    seed = _get(cfg, "experiment", "seed", 1, int)
    if seed_override is not None:
        seed = seed_override

    experiment = ExperimentConfig(
        profile=profile, grid=grid, budget=budget, rect=rect,
        antenna_sweep=antenna_sweep, frequency_sweep=frequency_sweep,
        strategies=_get(cfg, "experiment", "strategies",
                        ("none", "frequency_only", "antenna_only", "joint"), _str_list),
        users=users,
        realizations=_get(cfg, "experiment", "realizations", 300, int),
        seed=seed,
        user_loss_db=_get(cfg, "experiment", "user_loss_db", (), _float_list),
    )

    if experiment.max_antennas * grid.count > 64:
        raise ValidationError(
            f"{experiment.max_antennas} antennas x {grid.count} frequencies "
            "exceed the 6-bit feedback space (64 pairs)"
        )

    slot_s = _get(cfg, "schedule", "slot_s", 0.018)
    wpt_s = _get(cfg, "schedule", "wpt_s", 2.92)
    sched = FrameSchedule(slot_s, experiment.max_antennas * grid.count, wpt_s)

    delivery = _get(cfg, "link", "delivery", "ideal", str)
    drop = _get(cfg, "link", "drop_probability", 0.0)
    if delivery == "ideal":
        drop = 0.0
    elif delivery != "lossy":
        raise ValidationError(f"[link] delivery must be 'ideal' or 'lossy', not {delivery!r}")
    link = ControlLinkModel(drop_probability=drop,
                            latency_s=_get(cfg, "link", "latency_s", 0.0))

    adc = None
    if _get(cfg, "adc", "enabled", True, _parse_bool):
        adc = AdcModel(bits=_get(cfg, "adc", "bits", 12, int),
                       v_ref=_get(cfg, "adc", "vref", 3.3))

    consumption = ReceiverConsumption(
        soc_power_w=_power(cfg, "consumption", "soc_power_dbm", 2.6e-6),
        radio_power_w=_power(cfg, "consumption", "radio_power_dbm", 0.048),
        radio_bitrate_bps=_get(cfg, "consumption", "bitrate_bps", 250e3),
        bytes_sent=_get(cfg, "consumption", "bytes", None,
                        lambda s: int(s) if s else None),
    )
    tx_consumption = TransmitterConsumption(
        pa_supply_w=_power(cfg, "consumption", "pa_supply_dbm", 84.0))

    pipeline = _get(cfg, "experiment", "pipeline", "ideal", str)
    if pipeline not in ("ideal", "protocol"):
        raise ValidationError("[experiment] pipeline must be 'ideal' or 'protocol'")

    return Settings(
        profile=profile, grid=grid, budget=budget, rect=rect, sched=sched,
        link=link, adc=adc, experiment=experiment, consumption=consumption,
        tx_consumption=tx_consumption,
        budget_train_w=_power(cfg, "budget", "train_power_dbm", 3.9e-6),
        budget_wpt_w=_power(cfg, "budget", "wpt_power_dbm", 20.4e-6),
        pipeline=pipeline,
        frames=_get(cfg, "experiment", "frames", 10, int),
        seed=seed,
    )


def _power(cfg, section, key, default_w):
    """Power key given in dBm, stored in watts; default is exact watts."""
    if cfg.has_option(section, key):
        return dbm_to_watts(_get(cfg, section, key, None))
    return default_w


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {raw!r}")


def _out_path(args, filename: str) -> str:
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _header_lines(seed: int) -> str:
    return f"# wptdas {__version__}\n# seed={seed}\n"


def cmd_sweep(args) -> int:
    st = load_settings(args.config, args.seed)
    if st.pipeline == "protocol":
        result, _logs = run_protocol_experiment(st.experiment, sched=st.sched,
                                                link=st.link, adc=st.adc)
    else:
        result = run_sweep(st.experiment, jobs=args.jobs)
    path = _out_path(args, "sweep_results.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        result.to_csv(fh)
    _say(args, f"{len(result.rows)} rows ({st.pipeline} pipeline, "
               f"{result.realizations} realizations) -> {path}")
    return 0


def cmd_frame(args) -> int:
    st = load_settings(args.config, args.seed)
    m = st.experiment.max_antennas
    ch = sample_channel(st.profile, m, substream(st.seed, DOMAIN_CHANNEL, 0, 0))
    log, sel = run_frame(ch, st.grid, st.budget, st.rect, sched=st.sched,
                         link=st.link, rng=substream(st.seed, DOMAIN_LINK, 0),
                         adc=st.adc)
    path = _out_path(args, "frame_events.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header_lines(st.seed))
        log.to_csv(fh)
    _say(args, f"selected antenna {sel.antenna}, frequency {sel.frequency} "
               f"({sel.value * 1e6:.4g} uW at the ADC)")
    _say(args, f"applied ({log.applied_antenna},{log.applied_frequency}); harvested "
               f"{log.harvested_energy_training_j * 1e6:.4g} uJ training + "
               f"{log.harvested_energy_wpt_j * 1e6:.4g} uJ delivery; "
               f"{log.bytes_sent} control bytes -> {path}")
    return 0


def cmd_tdma(args) -> int:
    st = load_settings(args.config, args.seed)
    k = st.experiment.users
    users = [UserState(user_id=u + 1, rect=st.rect,
                       extra_loss_db=st.experiment.loss_for_user(u))
             for u in range(k)]
    result = run_tdma(users, st.frames, st.grid, st.budget, sched=st.sched,
                      link=st.link, rng=substream(st.seed, DOMAIN_TDMA),
                      profile=st.profile, num_antennas=st.experiment.max_antennas,
                      adc=st.adc)
    path = _out_path(args, "tdma_trace.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header_lines(st.seed))
        result.to_csv(fh)
    for u in users:
        _say(args, f"user {u.user_id}: avg {result.user_average_power_w(u.user_id) * 1e6:.4g} uW "
                   f"over {st.frames} frames, total {u.energy_j * 1e6:.4g} uJ")
    _say(args, f"trace -> {path}")
    return 0


def cmd_budget(args) -> int:
    st = load_settings(args.config, args.seed)
    _budget, report = power_budget_report(st.budget_train_w, st.budget_wpt_w,
                                          sched=st.sched, consumption=st.consumption,
                                          tx=st.tx_consumption)
    path = _out_path(args, "budget.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header_lines(st.seed))
        fh.write(report + "\n")
    _say(args, report)
    return 0


def cmd_validate(args) -> int:
    st = load_settings(args.config, args.seed)
    # touch the pieces every subcommand builds so acceptance = constructibility
    power_budget_report(st.budget_train_w, st.budget_wpt_w, sched=st.sched,
                        consumption=st.consumption, tx=st.tx_consumption)
    _say(args, f"OK: {st.experiment.users} user(s), "
               f"{st.experiment.max_antennas} antennas x {st.grid.count} frequencies, "
               f"{st.experiment.realizations} realizations, seed {st.seed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptdas",
        description="Link-level simulator for wireless power transfer with "
                    "distributed-antenna and frequency selection.",
        epilog=f"Output directory defaults to ${OUT_DIR_ENV} or the current "
               "directory. Config powers are in dBm.",
    )
    parser.add_argument("--version", action="version", version=f"wptdas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "sweep": (cmd_sweep, "Monte Carlo sweep over antenna/frequency set sizes"),
        "frame": (cmd_frame, "simulate one frame and dump its event log"),
        "tdma": (cmd_tdma, "multi-user round-robin simulation"),
        "budget": (cmd_budget, "per-frame receiver energy budget"),
        "validate": (cmd_validate, "check a config without running anything"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file (defaults reproduce the standard setup)")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or '.')")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
        p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
