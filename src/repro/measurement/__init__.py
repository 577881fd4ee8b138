"""Simulated processor power-measurement rig.

The paper measures processor power with high-precision sense resistors
between the voltage regulators and the CPU, amplified/filtered/digitized
by a National Instruments SCXI-1125 + PCI-6052E chain, aggregated to
10 ms samples and synchronized to workload execution by a GPIO marker
(paper §III-B, Fig. 4).

This subpackage reproduces the chain so experiments see *measured* power
(noisy, quantized) rather than the simulator's exact ground truth -- the
0.5 W guardband and moving-average windows in the paper's PM solution
exist precisely because measured reality is noisy.
"""

from repro.measurement.sense import SenseResistorChannel
from repro.measurement.adc import ADCModel
from repro.measurement.power_meter import (
    PowerMeter,
    PowerSample,
    PowerSamples,
    SyncMarker,
)

__all__ = [
    "SenseResistorChannel",
    "ADCModel",
    "PowerMeter",
    "PowerSample",
    "PowerSamples",
    "SyncMarker",
]
