"""Command-line front end: config-driven experiments with CSV output.

Configs are INI files with one section per subsystem. ``_SCHEMA`` names
every key once, with the library object and keyword it sets; a key the
config leaves out keeps that object's own default, so an empty config
reproduces the standard setup. All powers are given in dBm and stored as
watts internally. Output files embed the tool version and seed (and, for
simulation outputs, a hash of the config) in header comments and contain no
timestamps, so a (config, seed) pair always reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import __version__
from .channel import FrequencyGrid, LinkBudget, resolve_profile
from .errors import ValidationError, check_integer
from .experiments import (
    SWEEP_BLOCK,
    EnergyBudget,
    ExperimentConfig,
    dbm_to_watts,
    header_lines,
    power_budget_report,
    protocol_fingerprint,
    run_protocol_experiment,
    run_sweep,
    run_tdma,
)
from .protocol import (AdcModel, ControlLinkModel, FrameSchedule, check_feedback_space,
                       control_bytes, frame_log, write_events)
from .rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table

OUT_DIR_ENV = "WPTDAS_OUT"


@dataclass(frozen=True)
class _Choices:
    """Which profile, grid builder, curve, control link and ADC to build."""

    profile: str = "model-E-NLOS"  # builtin name or a PDP file path
    grid: str = "uniform"
    curve: str = "parametric"  # or an efficiency table path
    delivery: str = "ideal"
    adc: bool = True


@dataclass
class Settings:
    """Everything the subcommands need, resolved from config plus defaults."""

    experiment: ExperimentConfig
    sched: FrameSchedule
    link: ControlLinkModel
    adc: AdcModel | None
    energy_budget: tuple[EnergyBudget, str]  # power_budget_report's ledger and report
    pipeline: str = "ideal"
    frames: int = 10  # tdma subcommand only


def _real(convert):
    """Cast to float, then through ``convert``; both values must be finite."""
    def cast(raw: str) -> float:
        x = float(raw)
        with np.errstate(over="ignore"):
            y = convert(x)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{raw!r} does not give a finite number")
        return y
    return cast


_float = _real(float)
_mhz = _real(lambda mhz: mhz * 1e6)  # MHz in the config, Hz in the library
_dbm = _real(dbm_to_watts)  # dBm in the config, watts in the library


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _list(cast):
    """Comma- or space-separated values, each through ``cast``."""
    return lambda raw: tuple(cast(tok) for tok in raw.replace(",", " ").split())


def _choice(*names: str):
    def cast(raw: str) -> str:
        if raw not in names:
            raise ValueError(f"must be {' or '.join(map(repr, names))}, not {raw!r}")
        return raw
    return cast


def _keys(target, cast, *names: str) -> dict:
    """Schema entries for INI keys named after ``target``'s keywords."""
    return {name: (target, name, cast) for name in names}


# section -> INI key -> (target, keyword, cast). The loader calls each target
# with keyword=cast(value) for only the keys a config sets, so every default
# stays with its target. FrequencyGrid stands for both grid builders.
_SCHEMA = {
    "channel": {
        **_keys(_Choices, str, "profile"),
        **_keys(_Choices, _choice("uniform", "ieee"), "grid"),
        "center_mhz": (FrequencyGrid.uniform, "center_hz", _mhz),
        "bandwidth_mhz": (FrequencyGrid.uniform, "bandwidth_hz", _mhz),
        "frequencies": (FrequencyGrid, "count", int),
        "tx_power_dbm": (LinkBudget, "tx_power_w", _dbm),
        **_keys(LinkBudget, _float, "path_loss_db", "tx_gain_dbi", "rx_gain_dbi"),
    },
    "rectenna": {
        **_keys(_Choices, str, "curve"),
        **_keys(EfficiencyCurve.parametric, _float, "eta_peak", "peak_dbm", "rise_slope",
                "breakdown_dbm", "breakdown_slope"),
        **_keys(RectennaConfig, _float, "load_ohms", "settle_tau_s"),
    },
    "schedule": _keys(FrameSchedule, _float, "slot_s", "wpt_s"),
    "link": {
        **_keys(_Choices, _choice("ideal", "lossy"), "delivery"),
        **_keys(ControlLinkModel, _float, "drop_probability", "latency_s"),
    },
    "adc": {
        "enabled": (_Choices, "adc", _bool),
        **_keys(AdcModel, int, "bits"),
        "vref": (AdcModel, "v_ref", _float),
    },
    "experiment": {
        **_keys(ExperimentConfig, int, "realizations", "seed", "users"),
        **_keys(ExperimentConfig, _list(int), "antenna_sweep", "frequency_sweep"),
        **_keys(ExperimentConfig, _list(str), "strategies"),
        **_keys(ExperimentConfig, _list(_float), "user_loss_db"),
        **_keys(Settings, _choice("ideal", "protocol"), "pipeline"),
        "frames": (Settings, "frames", lambda raw: check_integer("frames", int(raw), low=1)),
    },
    "consumption": {
        "soc_power_dbm": (power_budget_report, "soc_power_w", _dbm),
        "radio_power_dbm": (power_budget_report, "radio_power_w", _dbm),
        "bitrate_bps": (power_budget_report, "radio_bitrate_bps", _float),
        "pa_supply_dbm": (power_budget_report, "pa_supply_w", _dbm),
    },
    "budget": {
        "train_power_dbm": (power_budget_report, "train_avg_power_w", _dbm),
        "wpt_power_dbm": (power_budget_report, "wpt_avg_power_w", _dbm),
    },
}


def _load_ini(path: str | None) -> defaultdict:
    """{target: {keyword: value}} for every key the config at ``path`` sets."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.read_file(fh)
    given = defaultdict(dict)
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in cfg[section].items():
            if key not in _SCHEMA[section]:
                raise ValidationError(f"unknown key '{key}' in section [{section}]")
            target, keyword, cast = _SCHEMA[section][key]
            try:
                given[target][keyword] = cast(raw)
            except ValueError as exc:
                raise ValidationError(f"[{section}] {key}: {exc}") from exc
    return given


def _default(target, keyword: str):
    """The value ``target`` gives ``keyword`` when a config leaves it out."""
    fields = getattr(target, "__dataclass_fields__", None)
    if fields is not None:
        return fields[keyword].default
    return inspect.signature(target).parameters[keyword].default


def load_settings(config_path: str | None, seed_override: int | None = None) -> Settings:
    given = _load_ini(config_path)
    choices = _Choices(**given[_Choices])
    if seed_override is not None:
        given[ExperimentConfig].update(seed=seed_override)

    # check the pair count before any grid exists; a valid antenna set has an antenna
    builder = FrequencyGrid.ieee_plan if choices.grid == "ieee" else FrequencyGrid.uniform
    antennas = given[ExperimentConfig].get("antenna_sweep",
                                           _default(ExperimentConfig, "antenna_sweep"))
    check_feedback_space(max((1, *antennas)),
                         given[FrequencyGrid].get("count", _default(builder, "count")))
    # build every object the config sets, so each value is checked; the choices pick
    grid = FrequencyGrid.uniform(**given[FrequencyGrid.uniform], **given[FrequencyGrid])
    curve = EfficiencyCurve.parametric(**given[EfficiencyCurve.parametric])
    link = ControlLinkModel(**given[ControlLinkModel])
    adc = AdcModel(**given[AdcModel])
    experiment = ExperimentConfig(
        profile=resolve_profile(choices.profile),
        grid=FrequencyGrid.ieee_plan(**given[FrequencyGrid]) if choices.grid == "ieee" else grid,
        budget=LinkBudget(**given[LinkBudget]),
        rect=RectennaConfig(curve=curve if choices.curve == "parametric"
                            else load_efficiency_table(choices.curve), **given[RectennaConfig]),
        **given[ExperimentConfig],
    )

    sched = FrameSchedule(**given[FrameSchedule])
    return Settings(
        experiment=experiment,
        sched=sched,
        link=link if choices.delivery == "lossy" else ControlLinkModel(latency_s=link.latency_s),
        adc=adc if choices.adc else None,
        energy_budget=power_budget_report(sched=sched, **given[power_budget_report],
                                          dims=(experiment.max_antennas, experiment.grid.count)),
        **given[Settings],
    )


def _create(args, filename: str):
    """Open ``filename`` in the output directory for writing."""
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="\n")


def _say(args, text: str):
    if not args.quiet:
        print(text)


def cmd_sweep(args, st: Settings) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    if st.pipeline == "protocol":
        result = run_protocol_experiment(st.experiment, st.sched, st.link, st.adc, args.jobs)
    else:
        result = run_sweep(st.experiment, jobs=args.jobs)
    with _create(args, "sweep_results.csv") as fh:
        result.to_csv(fh)
    _say(args, f"{len(result.rows)} rows ({st.pipeline} pipeline, "
               f"{result.realizations} realizations) -> {fh.name}")
    return 0


def cmd_frame(args, st: Settings) -> int:
    cfg = st.experiment
    # TDMA frame 0, which trains user 1 of realization 0; only its channel is drawn
    batch = run_tdma(replace(cfg, users=1, user_loss_db=cfg.user_loss_db[:1]), 1,
                     sched=st.sched, link=st.link, adc=st.adc).batch
    with _create(args, "frame_events.csv") as fh:
        fh.write(header_lines(cfg.seed, protocol_fingerprint(cfg, st.sched, st.link, st.adc)))
        write_events(fh, frame_log(batch, 0, 0, st.sched))
    sel_m, sel_n = batch.selected[0, 0] + 1
    applied_m, applied_n = batch.applied[0, 0] + 1
    _say(args, f"selected antenna {sel_m}, frequency {sel_n} "
               f"({batch.selected_w[0, 0] * 1e6:.4g} uW at the ADC)")
    _say(args, f"applied ({applied_m},{applied_n}); harvested "
               f"{batch.training_j[0, 0, 0] * 1e6:.4g} uJ training + "
               f"{batch.wpt_j[0, 0, 0] * 1e6:.4g} uJ delivery; "
               f"{control_bytes(cfg.max_antennas)} control bytes -> {fh.name}")
    return 0


def cmd_tdma(args, st: Settings) -> int:
    cfg = st.experiment
    result = run_tdma(cfg, st.frames, sched=st.sched, link=st.link, adc=st.adc)
    config_hash = protocol_fingerprint(cfg, st.sched, st.link, st.adc, (st.frames,))
    with _create(args, "tdma_trace.csv") as fh:
        fh.write(header_lines(cfg.seed, config_hash))
        result.to_csv(fh)
    for u, total in enumerate(result.energy_j[-1].tolist(), 1):
        _say(args, f"user {u}: avg {result.user_average_power_w(u) * 1e6:.4g} uW "
                   f"over {st.frames} frames, total {total * 1e6:.4g} uJ")
    _say(args, f"trace -> {fh.name}")
    return 0


def cmd_budget(args, st: Settings) -> int:
    report = st.energy_budget[1]
    with _create(args, "budget.txt") as fh:
        fh.write(header_lines(st.experiment.seed))
        fh.write(report + "\n")
    _say(args, report)
    return 0


def cmd_validate(args, st: Settings) -> int:
    # load_settings builds everything a subcommand builds, so loading is validating
    cfg = st.experiment
    _say(args, f"OK: {cfg.users} user(s), "
               f"{cfg.max_antennas} antennas x {cfg.grid.count} frequencies, "
               f"{cfg.realizations} realizations, seed {cfg.seed}")
    return 0


@cache  # nothing it reads changes within a process, so every main call shares one
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
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers, at most one "
                           f"per CPU; either pipeline walks blocks of {SWEEP_BLOCK} realizations")
        p.add_argument("--quiet", action="store_true", help="suppress stdout summaries")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_settings(args.config, args.seed))
    except (ValidationError, configparser.Error, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
