"""Shared infrastructure: configuration, statistics, events, RNG, errors."""

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DirectoryConfig,
    MemoryConfig,
    SystemConfig,
    icelake_config,
    skylake_config,
)
from repro.common.errors import (
    ConfigError,
    ProgramError,
    ReproError,
    SimulationError,
)
from repro.common.events import EventQueue
from repro.common.rng import DeterministicRng
from repro.common.stats import Histogram, StatsRegistry

__all__ = [
    "CacheConfig",
    "ConfigError",
    "CoreConfig",
    "DeterministicRng",
    "DirectoryConfig",
    "EventQueue",
    "Histogram",
    "MemoryConfig",
    "ProgramError",
    "ReproError",
    "SimulationError",
    "StatsRegistry",
    "SystemConfig",
    "icelake_config",
    "skylake_config",
]
