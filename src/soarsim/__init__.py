"""Thermal soaring simulation workbench.

Bell-shaped thermal model, sailplane roll/turn dynamics, EKF thermal
tracking, a receding-horizon explore/exploit thermalling planner, a
fixed-circle baseline controller, a mission state machine, and a
paired-mission evaluation harness.
"""

from .baseline import BaselineConfig, baseline_choose_bank
from .belief import GaussianBelief, NoiseConfig, ekf_update, predict_shift, sample_thermal, uncertainty
from .dynamics import AirframeParams, RollAction, UavState, predict_trajectory
from .environment import Scenario, ThermalSpec, WorldState, env_step, env_tick, gen_observation
from .experiment import ExperimentPlan, FlightSummary, report, run_baseline, run_paired, write_report
from .mission import FlightMode, MissionConfig, filter_lift, run_flight, update_mode, waypoint_bank
from .params import ConfigError, parse_param_file, resolve_params
from .pomdsoar import PlannerConfig, PlannerDecision, choose_action, exploit_score, explore_score

__version__ = "0.1.0"
