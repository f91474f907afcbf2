"""Link-level simulator for far-field wireless power transfer with
distributed transmit antennas.

A transmitter with several spatially separated antennas delivers a
continuous wave to rectenna receivers, activating one (antenna, frequency)
pair at a time. Receivers sound every candidate pair, feed back the index
of the best one in a single byte, and harvest at the served pair for the
rest of the frame; multiple receivers share the frame schedule round-robin.
The package provides the fading channel and rectifier models, the frame
protocol and TDMA scheduler, Monte Carlo experiment runners, and a CLI.
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
    received_rf_power,
    sample_channel,
)
from .errors import FeedbackCapacityError, FeedbackDecodeError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    dbm_to_watts,
    power_budget_report,
    run_protocol_experiment,
    run_sweep,
    watts_to_dbm,
)
from .protocol import (
    AdcModel,
    ControlLinkModel,
    EventLog,
    FrameSchedule,
    ReceiverConsumption,
    decode_feedback,
    encode_feedback,
    receiver_energy_budget,
    run_frame,
)
from .rectenna import (
    EfficiencyCurve,
    RectennaConfig,
    dc_voltage,
    load_efficiency_table,
    output_dc_power,
    settled_voltage,
)
from .rng import substream
from .scheduler import UserState, run_tdma
from .selection import (
    CandidateMatrix,
    SelectionDecision,
    no_selection,
    select_antenna_only,
    select_frequency_only,
    select_joint,
)
from .signal_chain import dc_power_matrix
