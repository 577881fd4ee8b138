"""MS-Loops microbenchmarks (paper Table I): the model training set.

Four simple array-access loops, each configured at three data footprints
chosen to exercise one memory-hierarchy level (L1, L2, DRAM).  The paper
uses the resulting 12 points per p-state to train the DPC-based power
model and the two-class performance model; it also uses the L2-resident
FMA loop as the worst-case power proxy for static-clocking frequency
selection (Tables III/IV).

Because we do not execute real loops, each microbenchmark is a
single-phase :class:`~repro.workloads.base.Workload` whose miss rates are
*derived* from the loop's access pattern and footprint against the
platform cache geometry -- the same reasoning the loop authors used when
sizing the footprints:

* a footprint resident in a level never misses below that level;
* streaming loops miss once per cache line at the first level that
  cannot hold the footprint;
* the random-load loop misses on (almost) every access outside the
  resident level and has no memory-level parallelism (it is the latency
  probe);
* the streaming loops enjoy hardware prefetching at DRAM footprints
  (high MLP), FMA most of all (paper Table I notes FMA exercises the
  prefetcher hardest).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.platform.caches import CacheGeometry, PENTIUM_M_755_GEOMETRY
from repro.units import KIB, MIB
from repro.workloads.base import Phase, Workload

#: The three footprints used for every loop: L1-, L2- and DRAM-resident
#: on the Pentium M 755 (32 KiB L1D / 2 MiB L2).
FOOTPRINTS_BYTES: tuple[int, ...] = (16 * KIB, 256 * KIB, 8 * MIB)

#: Instruction budget of one microbenchmark run (long enough for stable
#: 10 ms sampling, short enough to keep training cheap).
_MICRO_INSTRUCTIONS = 4e8


@dataclass(frozen=True)
class LoopSpec:
    """Static description of one MS-Loops kernel.

    ``lines_per_instr`` is the streaming cache-line consumption rate:
    new 64 B lines touched per retired instruction when the footprint
    exceeds a cache level.  ``random`` marks the latency-probe access
    pattern (MLOAD_RAND).
    """

    name: str
    description: str
    cpi_core: float
    decode_ratio: float
    fp_ratio: float
    store_ratio: float
    lines_per_instr: float
    random: bool = False
    dram_mlp: float = 4.0
    prefetch_bonus: float = 0.0


#: The paper's Table I, translated to model parameters.
LOOP_SPECS: tuple[LoopSpec, ...] = (
    LoopSpec(
        name="DAXPY",
        description=(
            "Linpack daxpy: traverses two FP arrays, scaling one and "
            "adding into the other (one multiply-add, two loads, one "
            "store per element)."
        ),
        cpi_core=0.70,
        decode_ratio=1.15,
        fp_ratio=0.50,
        store_ratio=0.25,
        lines_per_instr=0.040,  # 24 B touched / ~9.5 instr per element
        dram_mlp=5.0,
    ),
    LoopSpec(
        name="FMA",
        description=(
            "Floating-point multiply-add over adjacent pairs of one "
            "array, accumulating a dot product in a register; exercises "
            "the hardware prefetcher hardest (Table I)."
        ),
        cpi_core=0.58,
        decode_ratio=1.10,
        fp_ratio=0.67,
        store_ratio=0.02,
        lines_per_instr=0.042,
        dram_mlp=7.0,
        prefetch_bonus=0.008,
    ),
    LoopSpec(
        name="MCOPY",
        description=(
            "Sequential array copy; tests the bandwidth limit of the "
            "accessed hierarchy level."
        ),
        cpi_core=0.65,
        decode_ratio=1.12,
        fp_ratio=0.0,
        store_ratio=0.50,
        lines_per_instr=0.070,  # read + write stream
        dram_mlp=6.0,
    ),
    LoopSpec(
        name="MLOAD_RAND",
        description=(
            "Dependent random loads over an array; measures the load-to-"
            "use latency of the hierarchy level (no MLP)."
        ),
        cpi_core=1.00,
        decode_ratio=1.05,
        fp_ratio=0.0,
        store_ratio=0.02,
        lines_per_instr=0.250,  # one load per ~4 instructions, random line
        random=True,
        dram_mlp=1.0,
    ),
)


def footprint_label(footprint_bytes: int) -> str:
    """Human-readable footprint tag, e.g. 262144 -> ``"256KB"``."""
    if footprint_bytes % MIB == 0:
        return f"{footprint_bytes // MIB}MB"
    if footprint_bytes % KIB == 0:
        return f"{footprint_bytes // KIB}KB"
    return f"{footprint_bytes}B"


def microbenchmark_name(loop: str, footprint_bytes: int) -> str:
    """Canonical registry name, e.g. ``"FMA-256KB"`` (paper's notation)."""
    return f"{loop}-{footprint_label(footprint_bytes)}"


def build_microbenchmark(
    spec: LoopSpec,
    footprint_bytes: int,
    geometry: CacheGeometry = PENTIUM_M_755_GEOMETRY,
    instructions: float = _MICRO_INSTRUCTIONS,
) -> Workload:
    """Construct the workload for one (loop, footprint) pair.

    Miss rates follow from the footprint's residency level:

    * ``"L1"``  -- no cache misses at all;
    * ``"L2"``  -- every fresh line misses L1 and hits L2;
    * ``"DRAM"``-- every fresh line misses both caches.
    """
    level = geometry.residency_level(footprint_bytes)
    lpi = spec.lines_per_instr
    l2_mlp = 1.3
    if level == "L1":
        l1_mpi, l2_mpi = 0.0, 0.0
        mlp = 1.5
        prefetch = 0.0
    elif level == "L2":
        l1_mpi, l2_mpi = lpi, 0.0
        mlp = 1.5
        prefetch = 0.0
        # Streaming loops at L2 footprints are prefetched into the L1
        # ahead of use, hiding most of the L2 hit latency while keeping
        # the L2 arrays fully active -- which is exactly why FMA-256KB is
        # the *highest power* MS-Loop (paper Table III) rather than a
        # stalled one.
        if not spec.random:
            l2_mlp = 9.0
    else:  # DRAM
        l1_mpi = lpi
        l2_mpi = lpi if not spec.random else lpi * 0.95
        mlp = spec.dram_mlp
        prefetch = spec.prefetch_bonus
    # The random probe also misses the L1 at the L2 footprint on (almost)
    # every access because its reuse distance exceeds the L1.
    if spec.random and level == "L2":
        l1_mpi = lpi * 0.9

    phase = Phase(
        name=f"{spec.name}@{footprint_label(footprint_bytes)}",
        instructions=instructions,
        cpi_core=spec.cpi_core,
        decode_ratio=spec.decode_ratio,
        l1_mpi=l1_mpi,
        l2_mpi=l2_mpi,
        prefetch_mpi=prefetch,
        mlp=mlp,
        l2_mlp=l2_mlp,
        fp_ratio=spec.fp_ratio,
        store_ratio=spec.store_ratio,
        # Microbenchmarks are deliberately stable (paper §III-A): they run
        # at the highest real-time priority and have tiny run-to-run
        # variation, which is why they make a clean training set.
        activity_jitter=0.005,
        jitter_corr=0.0,
    )
    return Workload(
        name=microbenchmark_name(spec.name, footprint_bytes),
        phases=(phase,),
        total_instructions=instructions,
        category="microbenchmark",
        description=f"{spec.description} Footprint {footprint_label(footprint_bytes)} ({level}-resident).",
    )


def named_microbenchmark(name: str) -> Workload | None:
    """The MS-Loops workload ``name`` names at any footprint
    (``"MCOPY-64KB"``, as :func:`microbenchmark_name` writes it), or
    None for any other name."""
    loop, _, label = name.rpartition("-")
    size = re.fullmatch(r"([1-9][0-9]*)([KM]?B)", label)
    spec = next((s for s in LOOP_SPECS if s.name == loop), None)
    if size is None or spec is None:
        return None
    footprint = int(size[1]) * {"KB": KIB, "MB": MIB, "B": 1}[size[2]]
    if microbenchmark_name(loop, footprint) != name:
        return None
    return build_microbenchmark(spec, footprint)


def ms_loops(
    geometry: CacheGeometry = PENTIUM_M_755_GEOMETRY,
) -> tuple[Workload, ...]:
    """The full 12-point MS-Loops training set (4 loops x 3 footprints)."""
    loops = []
    for spec in LOOP_SPECS:
        for footprint in FOOTPRINTS_BYTES:
            loops.append(build_microbenchmark(spec, footprint, geometry))
    return tuple(loops)


def worst_case_workload(
    geometry: CacheGeometry = PENTIUM_M_755_GEOMETRY,
) -> Workload:
    """FMA-256KB: the paper's worst-case power proxy (Tables III/IV).

    The L2-resident FMA loop keeps the FP pipeline and the L2 arrays
    simultaneously busy without ever stalling on DRAM -- the highest
    sustained power of the MS-Loops suite.
    """
    spec = next(s for s in LOOP_SPECS if s.name == "FMA")
    return build_microbenchmark(spec, 256 * KIB, geometry)


def get_loop_spec(name: str) -> LoopSpec:
    """Look up a loop spec by name (raises for unknown loops)."""
    for spec in LOOP_SPECS:
        if spec.name == name:
            return spec
    raise WorkloadError(
        f"unknown microbenchmark {name!r}; "
        f"available: {[s.name for s in LOOP_SPECS]}"
    )
