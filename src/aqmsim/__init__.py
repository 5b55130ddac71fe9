"""Deterministic network simulator with ECN-driven adaptive AQM tuning."""

from .engine import MS, SECOND, US, Simulator, transmit_delay
from .packets import CE, ECT0, ECT1, NOT_ECT, Packet
from .aqm import AqmParams, Codel, FqCodel, TailDrop, make_discipline
from .transport import Connection, cubic_window, negotiate_ecn
from .predictor import (EceSeries, FitReport, LstmForecaster, build_windows,
                        ingest_trace, load_checkpoint, mae, neurons_per_layer,
                        normalize, denormalize, rmse, save_checkpoint, synth_trace)
from .tuner import (action_to_params, discretize, power_reward, q_update,
                    select_action)
from .scenario import ScenarioConfig, load_config
from .harness import (compare_iaqm, pretrain_predictor, run_scenario,
                      simulate, target_sweep)
from .rng import RngHub

__version__ = "0.1.0"
