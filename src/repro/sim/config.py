"""Simulation configuration (the paper's Table II, plus WIR knobs).

:class:`GPUConfig` holds machine parameters; :class:`WIRConfig` holds the
warp-instruction-reuse design parameters.  The model zoo in
``repro.core.models`` produces pre-configured ``WIRConfig`` instances for
each design point evaluated in the paper (Base, R, RL, RLP, RLPV, RPV,
RLPVc, NoVSB, Affine, Affine+RLPV).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum


class SchedulerPolicy(Enum):
    """Warp scheduler policies."""

    GTO = "gto"  # greedy-then-oldest (paper default)
    LRR = "lrr"  # loose round-robin


class RegisterPolicy(Enum):
    """Physical register management policies (paper Section V-E)."""

    MAX_REGISTER = "max-register"
    CAPPED_REGISTER = "capped-register"


@dataclass
class CacheConfig:
    """Set-associative cache parameters."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 4
    mshr_entries: int = 64
    hit_latency: int = 28

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets <= 0:
            raise ValueError("cache too small for its associativity/line size")
        return sets


@dataclass
class WIRConfig:
    """Parameters of the warp-instruction-reuse design.

    ``enabled=False`` yields the Base GPU.  Each optimisation from the
    paper's Section VI can be toggled independently so the incremental
    designs R -> RL -> RLP -> RLPV are expressible, together with the
    comparison models (RPV, RLPVc, NoVSB).
    """

    enabled: bool = False
    #: Reuse buffer entries (paper default 256, swept 32..512 in Fig 21).
    reuse_buffer_entries: int = 256
    #: Reuse buffer associativity (1 = direct-indexed, the paper's default;
    #: the associative alternative was "marginal" — Section V-C).
    reuse_buffer_associativity: int = 1
    #: Value signature buffer entries (paper default 256, swept in Fig 20).
    vsb_entries: int = 256
    #: VSB associativity (1 = direct-indexed, the paper's default).
    vsb_associativity: int = 1
    #: ``NoVSB`` model: renaming without value-signature sharing.
    use_vsb: bool = True
    #: Load reuse (Section VI-A).
    load_reuse: bool = False
    #: Pending-retry mechanism (Section VI-B).
    pending_retry: bool = False
    #: Pending-retry queue depth (paper: 16 entries).
    retry_queue_entries: int = 16
    #: Verify cache (Section VI-C); 0 entries disables it.
    verify_cache_entries: int = 0
    #: Register management policy (Section V-E).
    register_policy: RegisterPolicy = RegisterPolicy.MAX_REGISTER
    #: Extra backend pipeline latency added by the reuse stages
    #: (rename 1 + reuse 1 + regalloc 2 = 4 cycles by default; swept in Fig 22).
    extra_pipeline_latency: int = 4
    #: H3 hash output width in bits (paper: 32).
    hash_bits: int = 32
    #: Barrier-count field width in the reuse buffer (paper: 5 bits).
    barrier_count_bits: int = 5
    #: Affine execution model (the "Affine" baseline of Section VII-A);
    #: orthogonal to ``enabled`` so Affine+RLPV is expressible.
    affine: bool = False
    #: Run ``WIRUnit.check_invariants()`` every N cycles (0 = only at the
    #: end of the run).  Perf runs keep 0; tests and checked mode arm it.
    invariant_check_interval: int = 0
    #: Graceful degradation: on an invariant violation, a reuse-value
    #: mismatch, or a (repairable) oracle divergence, quarantine the SM's
    #: WIR unit — log, flush the reuse structures, continue in baseline
    #: mode — instead of aborting the run.
    quarantine: bool = False


@dataclass
class TraceConfig:
    """Observability knobs (``repro.trace``); everything defaults off.

    With both toggles off the simulator takes the exact pre-observability
    code paths: no attributor or tracer objects exist and no stat groups
    are registered, so serialized results stay bit-identical.
    """

    #: Event tracing (ring-buffer tracer, Chrome export).
    enabled: bool = False
    #: Per-cycle stall attribution (``sm*.stall.*`` counters).
    stalls: bool = False
    #: Maximum events retained; once full, new events are dropped (counted).
    ring_capacity: int = 65536
    #: Capture window period in cycles; 0 = capture every cycle.
    sample_period: int = 0
    #: Cycles captured at the start of each period.
    sample_window: int = 1024


@dataclass
class GPUConfig:
    """Machine parameters (paper Table II defaults)."""

    # --- chip ---
    num_sms: int = 15
    core_clock_mhz: int = 700

    # --- per-SM resources ---
    warp_size: int = 32
    max_warps_per_sm: int = 48
    max_blocks_per_sm: int = 8
    num_schedulers: int = 2
    scheduler_policy: SchedulerPolicy = SchedulerPolicy.GTO
    #: Physical warp registers per SM (1,024 = 32,768 thread registers).
    num_physical_registers: int = 1024
    #: 128 KB register file: 8 bank groups, each 8 x 128-bit banks.
    register_bank_groups: int = 8
    #: Scratchpad (shared) memory per SM.
    scratchpad_bytes: int = 48 * 1024

    # --- pipelines ---
    #: SP pipeline count (int + fp).
    num_sp_pipelines: int = 2
    sp_latency: int = 8
    sfu_latency: int = 20
    shared_mem_latency: int = 24
    #: Width of each pipeline in lanes (one warp per cycle).
    pipeline_width: int = 32

    # --- caches / memory ---
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, ways=4))
    l1c: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * 1024, ways=2, mshr_entries=16)
    )
    l2_latency: int = 200
    dram_latency: int = 440
    #: L2 partitions (Table II: 6 partitions of 128 KB, 8-way).
    l2_partitions: int = 6
    l2_partition_config: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * 1024, ways=8, mshr_entries=32)
    )
    #: DRAM scheduling queue entries per partition.
    dram_queue_entries: int = 32
    #: NoC bandwidth per direction per cycle in bytes.
    noc_bytes_per_cycle: int = 32

    # --- limits ---
    max_cycles: int = 5_000_000

    # --- host execution strategy (simulation speed, not modelled hardware) ---
    #: "fast" (the default) runs per-instruction compiled numpy kernels, the
    #: fused issue loop, and trace-compiled straight-line superblocks;
    #: "scalar" interprets every issued instruction and is the correctness
    #: oracle.  Both produce bit-identical results (DESIGN.md §8 and §16),
    #: so the engine is not part of any content address.
    exec_engine: str = "fast"

    # --- reuse design ---
    wir: WIRConfig = field(default_factory=WIRConfig)

    # --- observability ---
    trace: TraceConfig = field(default_factory=TraceConfig)

    def with_wir(self, wir: WIRConfig) -> "GPUConfig":
        """Return a copy of this config with a different WIR design."""
        return replace(self, wir=wir)

    @property
    def warps_per_scheduler(self) -> int:
        return self.max_warps_per_sm // self.num_schedulers

    @property
    def register_file_bytes(self) -> int:
        # Each warp register is 32 lanes x 4 bytes = 128 bytes.
        return self.num_physical_registers * self.warp_size * 4

    def validate(self) -> None:
        """Sanity-check parameter combinations; raise ``ValueError`` if bad."""
        if self.max_warps_per_sm % self.num_schedulers:
            raise ValueError("warps must divide evenly among schedulers")
        if self.warp_size != 32:
            raise ValueError("this simulator models 32-thread warps")
        if self.num_physical_registers < 64:
            raise ValueError("too few physical registers")
        if self.wir.extra_pipeline_latency < 0:
            raise ValueError("extra pipeline latency must be non-negative")
        if self.wir.reuse_buffer_entries < 0 or self.wir.vsb_entries < 0:
            raise ValueError("buffer entry counts must be non-negative")
        if self.trace.ring_capacity < 1:
            raise ValueError("trace ring capacity must be at least 1")
        if self.trace.sample_period < 0 or self.trace.sample_window < 0:
            raise ValueError("trace sampling parameters must be non-negative")
        if self.exec_engine not in ("scalar", "fast"):
            raise ValueError(
                f"unknown exec engine {self.exec_engine!r}; "
                "expected 'scalar' or 'fast'")
