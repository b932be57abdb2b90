"""Stag Hunt workbench: guilt-averse Theory-of-Mind learners, equilibrium
analysis of the guilt-transformed game, and desk-scale experiment harnesses
for matrix-form self-play, group tournaments, and a grid-world variant."""

__version__ = "0.1.0"

from .game import C, U, UNKNOWN, PayoffMatrix, PolicyLabel
from .shaping import GuiltParams, InequityParams, guilt_reward, inequity_reward, shape_reward
from .equilibrium import (
    EquilibriumReport,
    TransformedGame,
    guilt_threshold_f,
    pure_nash,
    transform_game,
    verify_observation1,
)

__all__ = [
    "__version__",
    "C", "U", "UNKNOWN",
    "PolicyLabel", "PayoffMatrix",
    "GuiltParams", "InequityParams",
    "guilt_reward", "shape_reward", "inequity_reward",
    "TransformedGame", "EquilibriumReport",
    "transform_game", "pure_nash", "guilt_threshold_f", "verify_observation1",
]
