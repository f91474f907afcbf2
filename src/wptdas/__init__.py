"""Link-level simulator for far-field wireless power transfer with
distributed transmit antennas.

A transmitter with several spatially separated antennas delivers a
continuous wave to rectenna receivers, activating one (antenna, frequency)
pair at a time. Receivers sound every candidate pair, feed back the index
of the best one in a single byte, and harvest at the served pair for the
rest of the frame; multiple receivers share the frame schedule round-robin.
The package provides the fading channel and rectifier models, the frame
protocol, Monte Carlo and round-robin TDMA runners, and a CLI.
"""

__version__ = "0.1.0"

from .channel import (
    FrequencyGrid,
    LinkBudget,
    TapProfile,
    builtin_profile,
    load_tap_profile,
    path_loss_db,
)
from .errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    dbm_to_watts,
    dc_power_matrix,
    power_budget_report,
    run_protocol_experiment,
    run_sweep,
    run_tdma,
)
from .protocol import (
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    decode_feedback,
    encode_feedback,
    frame_log,
)
from .rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table
