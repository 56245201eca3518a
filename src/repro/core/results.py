"""Result containers for the timing simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from .energy import EnergyBreakdown

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of simulating one kernel trace on one machine configuration.

    Cycle counts are CPU cycles at the configured core frequency.  The
    breakdown follows the paper's classification: *idle* is time the control
    blocks have no MVE instruction to execute, *compute* is in-SRAM
    arithmetic/move time, and *data access* is vector load/store time
    (cache, DRAM and TMU).
    """

    total_cycles: float = 0.0
    idle_cycles: float = 0.0
    compute_cycles: float = 0.0
    data_access_cycles: float = 0.0

    scalar_instructions: int = 0
    vector_instructions: dict[str, int] = field(default_factory=dict)
    spill_instructions: int = 0

    #: average fraction of SIMD lanes doing useful work during compute ops
    lane_utilization: float = 0.0
    #: average fraction of control blocks enabled over all vector instructions
    cb_utilization: float = 0.0

    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    frequency_ghz: float = 2.8

    dram_bytes: int = 0
    l2_hit_rate: float = 0.0

    @property
    def time_ms(self) -> float:
        return self.total_cycles / (self.frequency_ghz * 1e9) * 1e3

    @property
    def time_us(self) -> float:
        return self.time_ms * 1e3

    @property
    def energy_nj(self) -> float:
        return self.energy.total_nj

    @property
    def vector_instruction_total(self) -> int:
        return sum(self.vector_instructions.values())

    def to_dict(self) -> dict:
        """JSON-serializable form, the inverse of :meth:`from_dict`.

        Used by the persistent sweep cache and the golden-trace snapshots;
        floats are stored as-is so the round-trip is bit-exact.
        """
        return {
            "total_cycles": self.total_cycles,
            "idle_cycles": self.idle_cycles,
            "compute_cycles": self.compute_cycles,
            "data_access_cycles": self.data_access_cycles,
            "scalar_instructions": self.scalar_instructions,
            "vector_instructions": dict(self.vector_instructions),
            "spill_instructions": self.spill_instructions,
            "lane_utilization": self.lane_utilization,
            "cb_utilization": self.cb_utilization,
            "energy": self.energy.to_dict(),
            "frequency_ghz": self.frequency_ghz,
            "dram_bytes": self.dram_bytes,
            "l2_hit_rate": self.l2_hit_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        return cls(
            total_cycles=float(data["total_cycles"]),
            idle_cycles=float(data["idle_cycles"]),
            compute_cycles=float(data["compute_cycles"]),
            data_access_cycles=float(data["data_access_cycles"]),
            scalar_instructions=int(data["scalar_instructions"]),
            vector_instructions={k: int(v) for k, v in data["vector_instructions"].items()},
            spill_instructions=int(data["spill_instructions"]),
            lane_utilization=float(data["lane_utilization"]),
            cb_utilization=float(data["cb_utilization"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            frequency_ghz=float(data["frequency_ghz"]),
            dram_bytes=int(data["dram_bytes"]),
            l2_hit_rate=float(data["l2_hit_rate"]),
        )

    def breakdown_fractions(self) -> dict[str, float]:
        total = max(self.total_cycles, 1e-12)
        return {
            "idle": self.idle_cycles / total,
            "compute": self.compute_cycles / total,
            "data_access": self.data_access_cycles / total,
        }
