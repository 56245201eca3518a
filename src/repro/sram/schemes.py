"""In-SRAM computing schemes: latency and parallelism models.

The four schemes evaluated in the paper (Section II-B and VII-C):

* **Bit-Serial (BS)** -- Neural Cache [31]: elements vertical in bit-lines,
  maximum parallelism (one lane per bit-line), arithmetic latency grows with
  precision (Table II latencies).
* **Bit-Parallel (BP)** -- VRAM [9]: n-bit elements horizontal in a
  word-line, parallelism divided by n, latency divided by roughly n.
* **Bit-Hybrid (BH)** -- EVE [10]: elements split into p-bit segments,
  segments computed bit-parallel and combined bit-serially; balances the two.
* **Associative Computing (AC)** -- CAPE [19]: search/update on CAM
  structures; logical ops are O(1) but addition costs ``8n + 2`` cycles and
  every other arithmetic op decomposes into additions.

Each scheme exposes an operation latency in SRAM cycles given the element
precision, and the number of SIMD lanes it extracts from the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..isa.instructions import Opcode
from .array import EngineGeometry

__all__ = [
    "ComputeScheme",
    "BitSerialScheme",
    "BitParallelScheme",
    "BitHybridScheme",
    "AssociativeScheme",
    "get_scheme",
    "SCHEME_NAMES",
]


class ComputeScheme:
    """Base class for in-SRAM computing latency/parallelism models."""

    name = "abstract"
    #: relative area overhead of the bit-line peripheral logic (1.0 = BS)
    peripheral_area_factor = 1.0
    #: relative energy per bit-line cycle (1.0 = BS)
    energy_per_cycle_factor = 1.0

    def lanes(self, geometry: EngineGeometry, element_bits: int) -> int:
        """Number of SIMD lanes available for elements of the given width."""
        raise NotImplementedError

    def op_latency(self, opcode: Opcode, element_bits: int) -> int:
        """Latency of one vector operation in SRAM cycles."""
        raise NotImplementedError

    def row_access_latency(self) -> int:
        """Cycles to read or write one bit-slice row (used by loads/stores)."""
        return 1

    def describe(self) -> str:
        return self.name


def _bit_serial_latency(opcode: Opcode, n: int) -> int:
    """Bit-serial latencies of Table II (signed integer, precision ``n``)."""
    if opcode in (Opcode.SET_DUP, Opcode.COPY, Opcode.CONVERT):
        return n
    if opcode in (Opcode.SHIFT_IMM, Opcode.ROTATE_IMM):
        return n
    if opcode is Opcode.SHIFT_REG:
        return n * max(1, math.ceil(math.log2(n)))
    if opcode is Opcode.ADD:
        return n
    if opcode is Opcode.SUB:
        return 2 * n
    if opcode is Opcode.MUL:
        return n * n + 5 * n
    if opcode is Opcode.MAC:
        return n * n + 6 * n
    if opcode is Opcode.DIV:
        # Division is decomposed into shift/subtract steps (not in Table II;
        # modelled as iterative restoring division).
        return 2 * n * n
    if opcode in (Opcode.MIN, Opcode.MAX):
        return 2 * n
    if opcode in (Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.NOT):
        return n
    if opcode in (Opcode.GT, Opcode.GTE, Opcode.LT, Opcode.LTE, Opcode.EQ, Opcode.NEQ):
        return n
    raise ValueError(f"opcode {opcode} is not an in-SRAM compute operation")


class BitSerialScheme(ComputeScheme):
    """Neural Cache style bit-serial computing (the paper's default)."""

    name = "bit-serial"
    peripheral_area_factor = 1.0
    energy_per_cycle_factor = 1.0

    def lanes(self, geometry: EngineGeometry, element_bits: int) -> int:
        return geometry.bitlines

    def op_latency(self, opcode: Opcode, element_bits: int) -> int:
        # Floating point adds exponent handling; Duality Cache reports roughly
        # 2-3x the integer latency for the same mantissa width.  We use the
        # integer latency of the full width scaled by 2 for float types, which
        # is applied by the caller through `float_latency_factor`.
        return _bit_serial_latency(opcode, element_bits)


class BitParallelScheme(ComputeScheme):
    """VRAM-style bit-parallel computing."""

    name = "bit-parallel"
    peripheral_area_factor = 1.6
    energy_per_cycle_factor = 1.35

    def lanes(self, geometry: EngineGeometry, element_bits: int) -> int:
        return max(1, geometry.bitlines // element_bits)

    def op_latency(self, opcode: Opcode, element_bits: int) -> int:
        serial = _bit_serial_latency(opcode, element_bits)
        # Latency improves by a factor of ~n thanks to the carry chain across
        # bit-lines; keep a floor of 1 cycle plus one cycle of carry settle.
        return max(2, math.ceil(serial / element_bits) + 1)


class BitHybridScheme(ComputeScheme):
    """EVE-style bit-hybrid computing with p-bit segments."""

    name = "bit-hybrid"
    peripheral_area_factor = 1.3
    energy_per_cycle_factor = 1.2

    def __init__(self, segment_bits: int = 4):
        if segment_bits <= 0:
            raise ValueError("segment width must be positive")
        self.segment_bits = segment_bits

    def lanes(self, geometry: EngineGeometry, element_bits: int) -> int:
        return max(1, geometry.bitlines // self.segment_bits)

    def op_latency(self, opcode: Opcode, element_bits: int) -> int:
        segments = max(1, math.ceil(element_bits / self.segment_bits))
        serial = _bit_serial_latency(opcode, element_bits)
        # Within a segment the op is bit-parallel; across segments it is
        # bit-serial, so latency scales with the segment count.
        return max(2, math.ceil(serial / element_bits) * segments + 1)


class AssociativeScheme(ComputeScheme):
    """CAPE-style associative computing using BCAM search/update."""

    name = "associative"
    peripheral_area_factor = 0.9
    energy_per_cycle_factor = 1.1

    def lanes(self, geometry: EngineGeometry, element_bits: int) -> int:
        return geometry.bitlines

    def op_latency(self, opcode: Opcode, element_bits: int) -> int:
        n = element_bits
        add_latency = 8 * n + 2  # Section II-B(c)
        if opcode in (Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.NOT):
            # O(1) search/update per truth-table row: 4 rows for 2-input ops.
            return 4
        if opcode in (Opcode.GT, Opcode.GTE, Opcode.LT, Opcode.LTE, Opcode.EQ, Opcode.NEQ):
            return 8
        if opcode in (Opcode.SET_DUP, Opcode.COPY, Opcode.CONVERT):
            return n
        if opcode in (Opcode.SHIFT_IMM, Opcode.ROTATE_IMM):
            return n
        if opcode is Opcode.SHIFT_REG:
            return n * max(1, math.ceil(math.log2(n)))
        if opcode in (Opcode.ADD, Opcode.SUB):
            return add_latency
        if opcode in (Opcode.MIN, Opcode.MAX):
            return add_latency + 8
        if opcode is Opcode.MUL:
            return n * add_latency
        if opcode is Opcode.MAC:
            return n * add_latency + add_latency
        if opcode is Opcode.DIV:
            return 2 * n * add_latency
        raise ValueError(f"opcode {opcode} is not an in-SRAM compute operation")


SCHEME_NAMES = ("bit-serial", "bit-hybrid", "bit-parallel", "associative")


def get_scheme(name: str) -> ComputeScheme:
    """Factory for compute schemes by name (``bit-serial``, ``bs``, ...)."""
    normalized = name.lower().replace("_", "-")
    aliases = {
        "bs": "bit-serial",
        "bp": "bit-parallel",
        "bh": "bit-hybrid",
        "ac": "associative",
    }
    normalized = aliases.get(normalized, normalized)
    if normalized == "bit-serial":
        return BitSerialScheme()
    if normalized == "bit-parallel":
        return BitParallelScheme()
    if normalized == "bit-hybrid":
        return BitHybridScheme()
    if normalized == "associative":
        return AssociativeScheme()
    raise ValueError(f"unknown scheme {name!r} (choose from {', '.join(SCHEME_NAMES)})")
