"""Thermal soaring simulation workbench.

Bell-shaped thermal model, sailplane roll/turn dynamics, EKF thermal
tracking, a receding-horizon explore/exploit thermalling planner, a
fixed-circle baseline controller, a mission state machine, and a
paired-mission evaluation harness.
"""

__version__ = "0.1.0"
