"""Sense-resistor / instrumentation-amplifier front end.

Power is measured by inserting a small precision resistor in the supply
path: the voltage drop across it gives the current, and current times
supply voltage gives power.  The front end contributes two error terms we
model: resistor tolerance (a fixed gain error per channel, drawn once)
and amplifier noise (white, per reading).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError


@dataclass
class SenseResistorChannel:
    """One sense-resistor channel between a voltage regulator and the CPU.

    Parameters
    ----------
    resistance_ohm:
        Nominal sense resistance (a few milliohms so the drop is small).
    tolerance:
        Manufacturing tolerance; the realized resistance is drawn
        uniformly within +/- tolerance once at construction.
    amplifier_noise_v:
        RMS noise of the amplifier chain, referred to the sense voltage.
    rng:
        Random generator (deterministic experiments pass a seeded one).
    """

    resistance_ohm: float = 0.002
    tolerance: float = 0.001
    amplifier_noise_v: float = 2e-6
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0:
            raise MeasurementError("sense resistance must be positive")
        if not 0 <= self.tolerance < 0.1:
            raise MeasurementError("tolerance must be in [0, 0.1)")
        self._rng = self.rng if self.rng is not None else np.random.default_rng()
        # Fixed per-channel gain error from resistor tolerance.
        self._realized_ohm = self.resistance_ohm * (
            1.0 + self._rng.uniform(-self.tolerance, self.tolerance)
        )

    def sense_voltage(self, true_current_a: float) -> float:
        """Voltage across the sense resistor for a given true current."""
        if true_current_a < 0:
            raise MeasurementError("current through the CPU cannot be negative")
        noise = self._rng.normal(0.0, self.amplifier_noise_v)
        return true_current_a * self._realized_ohm + noise

    def measure_power(self, true_power_w: float, supply_voltage_v: float) -> float:
        """Measured power for a true power draw at a supply voltage.

        Converts true power to current, passes it through the sense
        chain, and reconstructs power the way the DAQ software does
        (sense voltage / *nominal* resistance x supply voltage) -- so the
        resistor tolerance becomes a gain error, as on the real rig.
        """
        if supply_voltage_v <= 0:
            raise MeasurementError("supply voltage must be positive")
        true_current = true_power_w / supply_voltage_v
        v_sense = self.sense_voltage(true_current)
        measured_current = v_sense / self.resistance_ohm
        return measured_current * supply_voltage_v
