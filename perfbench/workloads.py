"""Workload definitions and the layer map of the wptdas sweep benchmark.

Every workload is one INI config for ``wptdas sweep``. The program receives
only that config; the benchmark's ``--seed`` is passed as the sweep seed.
All three share the sweep shape below (antenna sets 1..4 x nested frequency
sets 1/3/5/15 of a 15-channel grid) and differ in the layers they load.
"""

from __future__ import annotations

from dataclasses import dataclass

ANTENNA_SWEEP = (1, 2, 3, 4)
FREQUENCY_SWEEP = (1, 3, 5, 15)
GRID_COUNT = 15
ALL_STRATEGIES = ("none", "frequency_only", "antenna_only", "joint")
DEFAULT_SEED = 1

# Shipped table, relative to the checkout root; written into the INI as an
# absolute path so the program finds it from any working directory.
EFFICIENCY_TABLE = "src/wptdas/data/efficiency-table-sample.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    realizations: int  # per sweep; sized so one sweep takes about 0.5 s
    pipeline: str
    users: int
    strategies: tuple
    extra_ini: str = ""
    uses_table: bool = False

    @property
    def max_antennas(self) -> int:
        return max(ANTENNA_SWEEP)

    def ini(self, checkout_root: str, realizations: int | None = None) -> str:
        """The config text; ``realizations`` overrides the per-sweep count."""
        r = self.realizations if realizations is None else realizations
        lines = [
            "[channel]",
            "profile = model-E-NLOS",
            f"frequencies = {GRID_COUNT}",
            "grid = ieee" if self.uses_table else "grid = uniform",
            "",
            "[experiment]",
            f"pipeline = {self.pipeline}",
            f"users = {self.users}",
            f"realizations = {r}",
            "antenna_sweep = " + ", ".join(map(str, ANTENNA_SWEEP)),
            "frequency_sweep = " + ", ".join(map(str, FREQUENCY_SWEEP)),
            "strategies = " + ", ".join(self.strategies),
        ]
        text = "\n".join(lines) + "\n" + self.extra_ini
        if self.uses_table:
            table = f"{checkout_root.rstrip('/')}/{EFFICIENCY_TABLE}"
            text += f"\n[rectenna]\ncurve = {table}\n"
        return text


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ideal-1u",
            why=("The paper's headline experiment: 64 selections per realization on "
                 "small matrices, no protocol or scheduler work, so protocol-side "
                 "changes must show no change here."),
            realizations=300,
            pipeline="ideal",
            users=1,
            strategies=ALL_STRATEGIES,
        ),
        Workload(
            name="protocol-2u-lossy",
            why=("Frame protocol for 2 users over a lossy, late control link with a "
                 "12-bit ADC: time goes to the slot loop, settling, ADC and TDMA "
                 "replay, and drops exercise blanking and fallback."),
            realizations=30,
            pipeline="protocol",
            users=2,
            strategies=("joint",),
            extra_ini=("\n[link]\ndelivery = lossy\ndrop_probability = 0.1\n"
                       "latency_s = 0.002\n\n[adc]\nenabled = true\nbits = 12\n"),
        ),
        Workload(
            name="ideal-4u-table",
            why=("4 users with unequal losses on the channel-plan grid and a measured "
                 "efficiency table: bilinear lookup and the U(U-1) passive cross-sum, "
                 "which one-user or curve-only tuning would regress."),
            realizations=60,
            pipeline="ideal",
            users=4,
            strategies=ALL_STRATEGIES,
            extra_ini="user_loss_db = 0, 2, 4, 6\n",
            uses_table=True,
        ),
    )
}


# Which end-to-end metric each per-layer metric should move, and on which
# workload. Written before any optimisation, so later changes can be held
# to it.
LAYER_MAP = (
    ("selection.from_powers.{calls,self_s}, selection.select.{calls,self_s}",
     "realizations_per_s",
     "ideal-1u, ideal-4u-table (large share); protocol-2u-lossy (about none)"),
    ("channel.response_matrix.*, rectenna.efficiency.*, signal_chain.dc_power_matrix.*",
     "realizations_per_s",
     "all three; rectenna.efficiency takes the table path only on ideal-4u-table"),
    ("signal_chain.useful_pairs_ratio = (R*U*M_max*N) / candidate entries computed",
     "realizations_per_s",
     "protocol-2u-lossy: 64 dc_power_matrix calls per realization, ratio 0.125 "
     "at the seed commit; 1.0 on the ideal workloads"),
    ("rectenna.settling_energy.*, protocol.adc_quantize.*, protocol.run_frame.*, "
     "scheduler.run_tdma.* (run_tdma self time is about the passive replay)",
     "realizations_per_s",
     "protocol-2u-lossy only; zero calls on the ideal workloads, where the "
     "prediction is no change"),
    ("protocol.link_delivered_ratio, protocol.feedback_fallback",
     "nothing; must repeat exactly",
     "protocol-2u-lossy"),
    ("rng.substream.*, channel.sample_channel.*",
     "realizations_per_s (small share)",
     "all; sample_channel calls stay R*U per sweep so seeds keep their meaning"),
    ("experiments.run.self_s, cli.to_csv.self_s",
     "realizations_per_s", "all"),
    ("cli.load_settings.self_s", "setup_s", "all"),
)


def expected_keys(w: Workload) -> list:
    """(M, N, strategy, user) of every row the sweep must write, in order."""
    users = list(range(1, w.users + 1)) + ([0] if w.users > 1 else [])
    return [(m, n, s, u)
            for m in ANTENNA_SWEEP for n in FREQUENCY_SWEEP
            for s in w.strategies for u in users]
