"""Memory-hierarchy probe: the MS-Loops characterization methodology.

The paper's microbenchmarks exist to "intensively exercise each of the
memory hierarchy levels" (§III-A); this experiment runs that
characterization the way the loop authors would have: sweep the
latency probe (MLOAD_RAND) and the bandwidth streamer (MCOPY) across
footprints from L1-resident to deep DRAM and report the effective
latency and bandwidth plateaus.  It validates that the simulated
hierarchy exposes the same three-level structure the training set's
footprints were chosen against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.report import TextTable
from repro.exec import ExperimentConfig, RunCell, RunPlan
from repro.platform.caches import PENTIUM_M_755_GEOMETRY
from repro.units import KIB, MIB
from repro.workloads.microbenchmarks import build_microbenchmark, get_loop_spec

#: Footprints swept, spanning all three levels of the Dothan hierarchy.
FOOTPRINTS_BYTES: tuple[int, ...] = (
    8 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 8 * MIB,
)


@dataclass(frozen=True)
class ProbePoint:
    """One (footprint, level) measurement."""

    footprint_bytes: int
    level: str
    #: Effective latency seen by the dependent-load probe (ns/access).
    load_latency_ns: float
    #: Bandwidth achieved by the copy streamer (GB/s).
    copy_bandwidth_gb_s: float


@dataclass(frozen=True)
class HierarchyProbeResult:
    """The full sweep at one frequency."""

    frequency_mhz: float
    points: Sequence[ProbePoint]

    def by_level(self) -> Mapping[str, list[ProbePoint]]:
        out: dict[str, list[ProbePoint]] = {}
        for point in self.points:
            out.setdefault(point.level, []).append(point)
        return out

    def latency_plateaus_ns(self) -> Mapping[str, float]:
        """Mean probe latency per hierarchy level."""
        return {
            level: sum(p.load_latency_ns for p in pts) / len(pts)
            for level, pts in self.by_level().items()
        }


def plan(
    config: ExperimentConfig | None = None,
    frequency_mhz: float = 2000.0,
) -> RunPlan:
    """The latency probe, then the copy streamer, at each footprint."""
    return RunPlan(
        config=config or ExperimentConfig(scale=0.2),
        cells=tuple(
            RunCell.fixed(
                build_microbenchmark(get_loop_spec(loop), footprint),
                frequency_mhz,
            )
            for footprint in FOOTPRINTS_BYTES
            for loop in ("MLOAD_RAND", "MCOPY")
        ),
    )


def summarize(
    config: ExperimentConfig,
    results,
    frequency_mhz: float = 2000.0,
) -> HierarchyProbeResult:
    """Latency and bandwidth per footprint at ``frequency_mhz``."""
    latency_spec = get_loop_spec("MLOAD_RAND")
    bandwidth_spec = get_loop_spec("MCOPY")
    runs = iter(results)
    points = []
    for footprint in FOOTPRINTS_BYTES:
        level = PENTIUM_M_755_GEOMETRY.residency_level(footprint)
        probe_run = next(runs)
        # The probe issues `lines_per_instr` dependent loads per
        # instruction; each instruction takes 1/ips seconds, so the
        # per-access latency is the per-instruction time divided by the
        # access rate, minus nothing (the core cost is part of what the
        # loop measures, as on real hardware).
        seconds_per_instr = 1.0 / probe_run.ips
        latency_ns = seconds_per_instr / latency_spec.lines_per_instr * 1e9

        stream_run = next(runs)
        # MCOPY touches (reads + writes) its footprint line by line:
        # lines_per_instr * 64 B of fresh data per instruction.
        bytes_per_s = (
            stream_run.ips * bandwidth_spec.lines_per_instr * 64.0
        )
        points.append(
            ProbePoint(
                footprint_bytes=footprint,
                level=level,
                load_latency_ns=latency_ns,
                copy_bandwidth_gb_s=bytes_per_s / 1e9,
            )
        )
    return HierarchyProbeResult(frequency_mhz=frequency_mhz, points=points)


def render(result: HierarchyProbeResult) -> str:
    """The classic footprint-sweep table."""
    table = TextTable(
        ["footprint", "level", "load latency ns", "copy BW GB/s"]
    )
    for point in result.points:
        label = (
            f"{point.footprint_bytes // MIB}MB"
            if point.footprint_bytes >= MIB
            else f"{point.footprint_bytes // KIB}KB"
        )
        table.add_row(
            label, point.level, point.load_latency_ns,
            point.copy_bandwidth_gb_s,
        )
    plateaus = result.latency_plateaus_ns()
    summary = ", ".join(
        f"{level}: {latency:.1f} ns" for level, latency in plateaus.items()
    )
    return (
        f"Memory-hierarchy probe at {result.frequency_mhz:.0f} MHz\n"
        + table.render()
        + f"\nlatency plateaus -- {summary}"
    )
