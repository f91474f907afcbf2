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
    ChannelRealization,
    FrequencyGrid,
    LinkBudget,
    TapProfile,
    builtin_profile,
    load_tap_profile,
    path_loss_db,
    sample_channel,
)
from .errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    ReceiverConsumption,
    dbm_to_watts,
    power_budget_report,
    run_protocol_experiment,
    run_sweep,
    run_tdma,
    watts_to_dbm,
)
from .protocol import (
    AdcModel,
    ControlLinkModel,
    FrameSchedule,
    decode_feedback,
    encode_feedback,
    run_frame,
)
from .rectenna import EfficiencyCurve, RectennaConfig, load_efficiency_table
from .rng import substream
from .selection import CandidateMatrix
from .signal_chain import dc_power_matrix
