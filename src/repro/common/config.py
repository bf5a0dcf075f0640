"""System configuration dataclasses and the paper's Table 1 presets.

The paper evaluates an Icelake-like 32-core system (Table 1) and, for
Figure 1, also a Skylake-like core (224-entry ROB).  :func:`icelake_config`
and :func:`skylake_config` build those presets; every field can be
overridden through :func:`dataclasses.replace` or keyword arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigError

#: Bytes per cacheline.  Fixed across the whole model (matching x86).
LINE_BYTES = 64

#: Bytes per data word.  The simulator tracks data and overlap at word
#: granularity (see DESIGN.md section 2).
WORD_BYTES = 8

#: Words per cacheline.
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    ``tag_latency`` is the cycles to determine hit/miss; ``data_latency``
    the additional cycles to return data on a hit.  For the L1D the paper
    quotes a single 4-cycle hit latency, which we encode as
    ``tag_latency=0, data_latency=4``.
    """

    name: str
    size_bytes: int
    ways: int
    tag_latency: int
    data_latency: int

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, f"{self.name}: size must be positive")
        _require(self.ways > 0, f"{self.name}: ways must be positive")
        _require(
            self.size_bytes % (self.ways * LINE_BYTES) == 0,
            f"{self.name}: size {self.size_bytes} not divisible by "
            f"ways*line ({self.ways}*{LINE_BYTES})",
        )
        _require(self.tag_latency >= 0, f"{self.name}: negative tag latency")
        _require(self.data_latency >= 0, f"{self.name}: negative data latency")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    @property
    def hit_latency(self) -> int:
        return self.tag_latency + self.data_latency


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 1, 'Processor')."""

    fetch_width: int = 5
    commit_width: int = 10
    rob_entries: int = 352
    lq_entries: int = 128
    sq_entries: int = 72
    #: Branch resolution latency added on top of operand readiness.
    branch_latency: int = 1
    #: Penalty cycles between squash and first fetch on the correct path.
    mispredict_penalty: int = 12
    #: Default ALU latency for integer ops.
    alu_latency: int = 1
    #: Bimodal branch predictor table size (entries).  The paper uses
    #: L-TAGE; a bimodal table preserves the "most branches predicted well,
    #: some squashes happen" behaviour the mechanisms depend on.
    predictor_entries: int = 4096
    #: StoreSet memory dependence predictor table size.
    storeset_entries: int = 1024
    #: At-commit store prefetch (Table 1, [54]): when a store commits
    #: into the SB, write permission is requested immediately so the
    #: in-order drain finds the line ready.
    store_prefetch_at_commit: bool = True

    def __post_init__(self) -> None:
        _require(self.fetch_width > 0, "fetch_width must be positive")
        _require(self.commit_width > 0, "commit_width must be positive")
        _require(self.rob_entries > 0, "rob_entries must be positive")
        _require(self.lq_entries > 0, "lq_entries must be positive")
        _require(self.sq_entries > 0, "sq_entries must be positive")
        _require(self.rob_entries >= self.lq_entries, "ROB smaller than LQ")
        _require(self.rob_entries >= self.sq_entries, "ROB smaller than SQ")


@dataclass(frozen=True)
class DirectoryConfig:
    """Inclusive directory parameters (Table 1: '400% coverage, 16 ways').

    Coverage is relative to the aggregate private (L1D+L2) line count; the
    directory is inclusive of all privately cached lines, so evicting a
    directory entry recalls (invalidates) every private copy — the paper's
    inclusion-deadlock ingredient (section 3.2.5).
    """

    coverage: float = 4.0
    ways: int = 16
    #: Lookup latency in cycles.
    latency: int = 5

    def __post_init__(self) -> None:
        _require(self.coverage > 0, "directory coverage must be positive")
        _require(self.ways > 0, "directory ways must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory hierarchy parameters (Table 1, 'Memory')."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=48 * 1024, ways=12, tag_latency=0, data_latency=4
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=256 * 1024, ways=8, tag_latency=4, data_latency=10
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L3", size_bytes=16 * 1024 * 1024, ways=16, tag_latency=5, data_latency=45
        )
    )
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    #: L1D stride prefetcher (Table 1, [7]).
    l1_stride_prefetcher: bool = True
    #: Lines fetched ahead once a stride is confident.
    prefetch_degree: int = 1
    #: Crossbar one-way message latency in cycles.
    network_latency: int = 8
    #: DRAM access latency in cycles (80 ns at ~3 GHz, rounded).
    dram_latency: int = 240


@dataclass(frozen=True)
class FreeAtomicsConfig:
    """Parameters of the paper's contribution (sections 3 and 4)."""

    #: Atomic Queue entries.  4 suffices per the paper's sensitivity study
    #: and must not exceed L1D associativity, or locked ways can fill a set.
    aq_entries: int = 4
    #: Deadlock watchdog threshold in cycles (10000 in the paper).
    watchdog_cycles: int = 10_000
    #: Maximum consecutive store-to-load forwards to atomics (32).
    max_forward_chain: int = 32
    #: Whether the watchdog is armed.  Disabling it turns modeled deadlocks
    #: into :class:`~repro.common.errors.DeadlockError` for testing.
    watchdog_enabled: bool = True

    def __post_init__(self) -> None:
        _require(self.aq_entries > 0, "aq_entries must be positive")
        _require(self.watchdog_cycles > 0, "watchdog_cycles must be positive")
        _require(self.max_forward_chain >= 1, "max_forward_chain must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """Complete multicore system configuration."""

    num_cores: int = 32
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    free_atomics: FreeAtomicsConfig = field(default_factory=FreeAtomicsConfig)
    #: Hard cap on simulated cycles; exceeded => SimulationError.
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        _require(self.num_cores > 0, "num_cores must be positive")
        _require(
            self.free_atomics.aq_entries <= self.memory.l1d.ways,
            "AQ entries must not exceed L1D associativity "
            "(otherwise all ways of a set can be locked; see paper 4.1.3)",
        )

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def with_overrides(self, **knobs: object) -> "SystemConfig":
        """Return a copy with flat knob names applied to nested fields.

        The consistency fuzzer (and ablation sweeps) perturb individual
        timing/sizing knobs buried several dataclasses deep; this maps a
        flat name like ``l1_data_latency`` or ``watchdog_cycles`` onto
        the right nested ``dataclasses.replace`` chain.  Unknown knob
        names raise :class:`~repro.common.errors.ConfigError` so a typo
        in a fuzz-knob table cannot silently perturb nothing.
        """
        top: dict[str, object] = {}
        nested: dict[str, dict[str, object]] = {}
        for name, value in knobs.items():
            try:
                path = _KNOB_PATHS[name]
            except KeyError:
                raise ConfigError(
                    f"unknown config knob {name!r}; expected one of "
                    f"{sorted(_KNOB_PATHS)}"
                ) from None
            if len(path) == 1:
                top[path[0]] = value
            else:
                nested.setdefault(path[0], {})[".".join(path[1:])] = value

        config = self
        for group, fields in nested.items():
            section = getattr(config, group)
            if group == "memory":
                cache_changes: dict[str, dict[str, object]] = {}
                flat: dict[str, object] = {}
                for dotted, value in fields.items():
                    if "." in dotted:
                        cache, attr = dotted.split(".", 1)
                        cache_changes.setdefault(cache, {})[attr] = value
                    else:
                        flat[dotted] = value
                for cache, attrs in cache_changes.items():
                    flat[cache] = dataclasses.replace(
                        getattr(section, cache), **attrs
                    )
                section = dataclasses.replace(section, **flat)
            else:
                section = dataclasses.replace(section, **fields)
            config = dataclasses.replace(config, **{group: section})
        if top:
            config = dataclasses.replace(config, **top)
        return config


#: Flat knob name -> attribute path inside :class:`SystemConfig`.
_KNOB_PATHS: dict[str, tuple[str, ...]] = {
    "num_cores": ("num_cores",),
    "max_cycles": ("max_cycles",),
    "fetch_width": ("core", "fetch_width"),
    "commit_width": ("core", "commit_width"),
    "rob_entries": ("core", "rob_entries"),
    "lq_entries": ("core", "lq_entries"),
    "sq_entries": ("core", "sq_entries"),
    "mispredict_penalty": ("core", "mispredict_penalty"),
    "store_prefetch_at_commit": ("core", "store_prefetch_at_commit"),
    "l1_tag_latency": ("memory", "l1d", "tag_latency"),
    "l1_data_latency": ("memory", "l1d", "data_latency"),
    "l2_tag_latency": ("memory", "l2", "tag_latency"),
    "l2_data_latency": ("memory", "l2", "data_latency"),
    "l3_tag_latency": ("memory", "l3", "tag_latency"),
    "l3_data_latency": ("memory", "l3", "data_latency"),
    "directory_latency": ("memory", "directory", "latency"),
    "network_latency": ("memory", "network_latency"),
    "dram_latency": ("memory", "dram_latency"),
    "prefetch_degree": ("memory", "prefetch_degree"),
    "l1_stride_prefetcher": ("memory", "l1_stride_prefetcher"),
    "aq_entries": ("free_atomics", "aq_entries"),
    "watchdog_cycles": ("free_atomics", "watchdog_cycles"),
    "max_forward_chain": ("free_atomics", "max_forward_chain"),
    "watchdog_enabled": ("free_atomics", "watchdog_enabled"),
}


def icelake_config(num_cores: int = 32, **overrides: object) -> SystemConfig:
    """Table 1 preset: Icelake-like core (352-entry ROB)."""
    config = SystemConfig(num_cores=num_cores, core=CoreConfig(rob_entries=352))
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def skylake_config(num_cores: int = 32, **overrides: object) -> SystemConfig:
    """Figure 1 preset: Skylake-like core (224-entry ROB, 97-entry LQ/56 SQ)."""
    core = CoreConfig(rob_entries=224, lq_entries=97, sq_entries=56, fetch_width=4, commit_width=8)
    config = SystemConfig(num_cores=num_cores, core=core)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config
