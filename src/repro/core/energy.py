"""Energy model for MVE, the scalar core and the memory system.

The paper combines bit-serial in-SRAM energy numbers from Neural Cache,
CACTI cache-access energy, and measured CPU/GPU power.  We encode the same
structure as per-event energy coefficients (in picojoules) so the energy
figures (Figure 7(b), Figure 8) can be regenerated.  Coefficients are scaled
to a 7 nm process like the paper does with the equations of [81].
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyCoefficients", "EnergyModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-event energy in picojoules (7 nm-scaled)."""

    #: energy of one SRAM compute cycle per active bit-line (word-line
    #: activation + peripheral logic), Neural Cache reports tens of fJ
    sram_cycle_per_lane_pj: float = 0.012
    #: one 64 B line access in the L2 cache (CACTI)
    l2_line_access_pj: float = 120.0
    #: one 64 B line access in the LLC
    llc_line_access_pj: float = 400.0
    #: one 64 B DRAM access (LPDDR4X ~ 15 pJ/bit)
    dram_line_access_pj: float = 7500.0
    #: TMU transpose energy per element
    tmu_element_pj: float = 0.3
    #: MVE controller + FSM energy per dispatched instruction
    controller_instruction_pj: float = 25.0
    #: scalar core energy per instruction (mobile big core, ~0.1 nJ)
    scalar_instruction_pj: float = 100.0
    #: Neon 128-bit SIMD instruction including the core's fetch/decode/rename,
    #: register-file and forwarding energy (not just the ALU)
    neon_op_pj: float = 260.0
    #: L1 cache access from the core
    l1_access_pj: float = 25.0
    #: core static/background power in mW charged against execution time
    core_static_mw: float = 150.0
    #: cache compute-half static power in mW while MVE is active
    cache_static_mw: float = 40.0


@dataclass
class EnergyBreakdown:
    """Energy totals in nanojoules, split the way Figure 7(b) does."""

    compute_nj: float = 0.0
    data_access_nj: float = 0.0
    cpu_nj: float = 0.0
    static_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return self.compute_nj + self.data_access_nj + self.cpu_nj + self.static_nj

    def to_dict(self) -> dict:
        return {
            "compute_nj": self.compute_nj,
            "data_access_nj": self.data_access_nj,
            "cpu_nj": self.cpu_nj,
            "static_nj": self.static_nj,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyBreakdown":
        return cls(
            compute_nj=float(data["compute_nj"]),
            data_access_nj=float(data["data_access_nj"]),
            cpu_nj=float(data["cpu_nj"]),
            static_nj=float(data["static_nj"]),
        )


class EnergyModel:
    """Accumulates event counts into an :class:`EnergyBreakdown`."""

    def __init__(self, coefficients: EnergyCoefficients | None = None, frequency_ghz: float = 2.8):
        self.c = coefficients or EnergyCoefficients()
        self.frequency_ghz = frequency_ghz
        self.breakdown = EnergyBreakdown()

    def reset(self) -> None:
        self.breakdown = EnergyBreakdown()

    # -- memory hierarchy ------------------------------------------------- #

    def add_cache_lines(self, l2_lines: int, llc_lines: int = 0, dram_lines: int = 0) -> None:
        self.breakdown.data_access_nj += (
            l2_lines * self.c.l2_line_access_pj
            + llc_lines * self.c.llc_line_access_pj
            + dram_lines * self.c.dram_line_access_pj
        ) / 1000.0

    # -- scalar core / Neon ------------------------------------------------ #

    def add_scalar(self, instructions: int) -> None:
        self.breakdown.cpu_nj += instructions * self.c.scalar_instruction_pj / 1000.0

    def add_neon_ops(self, ops: int) -> None:
        self.breakdown.cpu_nj += ops * self.c.neon_op_pj / 1000.0

    def add_l1_accesses(self, accesses: int) -> None:
        self.breakdown.data_access_nj += accesses * self.c.l1_access_pj / 1000.0

    # -- static ------------------------------------------------------------ #

    def add_static(self, cycles: float, include_cache: bool = True) -> None:
        seconds = cycles / (self.frequency_ghz * 1e9)
        power_mw = self.c.core_static_mw + (self.c.cache_static_mw if include_cache else 0.0)
        self.breakdown.static_nj += power_mw * 1e-3 * seconds * 1e9
