"""Beam tracking for grid-quantized mmWave MISO channels.

Recursive MAP tracking of a Markov-evolving angle of departure, a closed-form
union upper bound on the tracking error probability, and particle-swarm
design of unit-modulus training beam sequences that minimize that bound.
"""

from . import kernels
from .arraymodel import (
    Codebook,
    MarkovModel,
    build_codebook,
    build_grid,
    build_markov,
    steering_vector,
)
from .harness import ExperimentConfig, SummaryRow, run_experiment, sweep
from .optimizer import (
    BeamScheduler,
    OptimizationResult,
    PsaConfig,
    optimize_beams,
    select_directional_pair,
)
from .tracking import (
    Belief,
    DegenerateBeliefError,
    PilotObservation,
    SensingMatrix,
    map_estimate,
    posterior,
    propagate_prior,
    sensing_matrix,
)

__version__ = "0.1.0"
