"""Standard-cell library model, parameterized by technology node.

Each :class:`Cell` carries a logic function (truth table over its input
pins), layout area, and a linear delay/power model:

* delay  = ``intrinsic_ps + drive_res_kohm * C_load_ff``
* energy = ``C_internal_and_load * Vdd^2`` per output toggle
* static = ``leak_nw`` continuously

:func:`build_library` derives a complete library for any
:class:`~repro.tech.TechNode`, so the same netlist can be retargeted
across nodes — the mechanism behind the panel's established-node
retargeting claims (E13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.boolfunc import TruthTable
from repro.tech.node import TechNode


def switch_energy_fj(input_cap_ff, num_inputs, vdd, load_ff):
    """Energy per output transition of a cell with ``num_inputs`` pins
    of ``input_cap_ff`` each driving ``load_ff``: internal plus external
    load.  Elementwise on numpy arrays, so signoff power evaluates every
    gate in one expression with the same rounding as :class:`Cell`."""
    internal_ff = 0.6 * input_cap_ff * num_inputs
    return (internal_ff + load_ff) * vdd ** 2


@dataclass(frozen=True)
class Cell:
    """One standard cell (a function at a drive strength).

    Attributes
    ----------
    name:
        Library name, e.g. ``"NAND2_X2"``.
    function:
        Truth table over the input pins (``None`` for sequential cells).
    inputs:
        Ordered input pin names.
    area_um2:
        Layout area.
    input_cap_ff:
        Capacitance presented by each input pin.
    drive_res_kohm:
        Output drive resistance (kohm); delay slope vs load.
    intrinsic_ps:
        Parasitic (zero-load) delay.
    leak_nw:
        Static leakage power at nominal Vt.
    is_sequential:
        True for flip-flops and latches.
    is_scan:
        True for scan-enabled flops (adds SI/SE pins).
    vt_flavor:
        "lvt", "rvt", or "hvt": multi-Vt leakage/speed trade.
    """

    name: str
    function: TruthTable | None
    inputs: tuple
    area_um2: float
    input_cap_ff: float
    drive_res_kohm: float
    intrinsic_ps: float
    leak_nw: float
    is_sequential: bool = False
    is_scan: bool = False
    vt_flavor: str = "rvt"

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def delay_ps(self, load_ff: float) -> float:
        """Linear-model propagation delay for a given output load."""
        if load_ff < 0:
            raise ValueError("load must be non-negative")
        return self.intrinsic_ps + self.drive_res_kohm * load_ff

    def switch_energy_fj(self, vdd: float, load_ff: float) -> float:
        """Energy per output transition, internal plus external load."""
        return switch_energy_fj(self.input_cap_ff, self.num_inputs, vdd,
                                load_ff)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# Base (drive X1, RVT) cell shapes: name -> (truth table string, pins,
# relative area in unit transistors, relative drive, relative intrinsic).
_COMBINATIONAL = {
    "INV": ("01", ("A",), 2, 1.0, 1.0),
    "BUF": ("10", ("A",), 4, 1.0, 1.8),
    "NAND2": ("0111", ("A", "B"), 4, 1.1, 1.2),
    "NOR2": ("0001", ("A", "B"), 4, 1.4, 1.3),
    "AND2": ("1000", ("A", "B"), 6, 1.2, 1.9),
    "OR2": ("1110", ("A", "B"), 6, 1.4, 2.0),
    "NAND3": ("01111111", ("A", "B", "C"), 6, 1.3, 1.5),
    "NOR3": ("00000001", ("A", "B", "C"), 6, 1.8, 1.7),
    "XOR2": ("0110", ("A", "B"), 10, 1.6, 2.4),
    "XNOR2": ("1001", ("A", "B"), 10, 1.6, 2.4),
    # AOI21: Y = !((A & B) | C)
    "AOI21": ("00000111", ("A", "B", "C"), 6, 1.5, 1.6),
    # OAI21: Y = !((A | B) & C)
    "OAI21": ("00011111", ("A", "B", "C"), 6, 1.5, 1.6),
    # MUX2: Y = S ? B : A   (pins A, B, S)
    "MUX2": ("11001010", ("A", "B", "S"), 12, 1.5, 2.2),
}

_DRIVES = {"X1": 1.0, "X2": 2.0, "X4": 4.0}
_VT = {"lvt": (-0.06, 1.25), "rvt": (0.0, 1.0), "hvt": (+0.08, 0.82)}


class CellLibrary:
    """A set of cells for one technology node, indexed by name."""

    def __init__(self, node: TechNode, cells: dict):
        self.node = node
        self.cells = dict(cells)

    def __getitem__(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"no cell {name!r} in {self.node.name} library"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self):
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    def combinational(self) -> list[Cell]:
        """All non-sequential cells."""
        return [c for c in self.cells.values() if not c.is_sequential]

    def variants(self, base: str) -> list[Cell]:
        """All drive/Vt variants of a base function name."""
        prefix = base + "_"
        return [c for n, c in self.cells.items() if n.startswith(prefix)]

    def cheapest(self, base: str) -> Cell:
        """Smallest-area variant of a base function."""
        vs = self.variants(base)
        if not vs:
            raise KeyError(f"no variants of {base}")
        return min(vs, key=lambda c: c.area_um2)

    def inverter(self, drive: str = "X1") -> Cell:
        """The inverter at a given drive."""
        return self[f"INV_{drive}_rvt"]

    def buffer(self, drive: str = "X2") -> Cell:
        """The buffer at a given drive (used by buffering estimators)."""
        return self[f"BUF_{drive}_rvt"]

    def flop(self, scan: bool = False) -> Cell:
        """The (scan) flip-flop."""
        return self["SDFF_X1_rvt" if scan else "DFF_X1_rvt"]


def build_library(node: TechNode, *, vt_flavors=("rvt",),
                  drives=("X1", "X2", "X4")) -> CellLibrary:
    """Derive a full standard-cell library for a technology node.

    Area scales with the node's cell height and poly pitch; caps and
    leakage come from the node's electrical parameters; speed tracks the
    node's FO4 delay.  ``vt_flavors`` widens the library for multi-Vt
    optimization (E5, E13).
    """
    cells: dict[str, Cell] = {}
    # One "unit transistor" of layout: half a poly pitch wide, one cell
    # row tall, two transistors per poly track (NMOS + PMOS).
    unit_area = (node.contacted_poly_pitch_nm * 1e-3 / 2) * (
        node.cell_height_nm * 1e-3) / 2
    fo4 = node.fo4_delay_ps()
    # Calibrate drive resistance so an X1 inverter driving 4 inverter
    # loads has ~1 FO4 of slope delay.
    unit_cin = node.cgate_ff_per_um * (3.0 * node.gate_length_nm * 1e-3)
    unit_res = (0.75 * fo4) / (4.0 * unit_cin)
    width_um_x1 = 3.0 * node.gate_length_nm * 1e-3

    for vt in vt_flavors:
        vth_shift, speed = _VT[vt]
        for base, (tt_str, pins, ntr, drv, intr) in _COMBINATIONAL.items():
            tt = TruthTable.from_string(tt_str)
            for drive, mult in _DRIVES.items():
                name = f"{base}_{drive}_{vt}"
                leak = node.leakage_nw(
                    width_um_x1 * mult * ntr / 4, vth_shift)
                cells[name] = Cell(
                    name=name,
                    function=tt,
                    inputs=pins,
                    area_um2=unit_area * ntr * (0.6 + 0.4 * mult),
                    input_cap_ff=unit_cin * mult,
                    drive_res_kohm=unit_res * drv / (mult * speed),
                    intrinsic_ps=0.35 * fo4 * intr / speed,
                    leak_nw=leak,
                    vt_flavor=vt,
                )
        # Tie cells: constant drivers (one per Vt is redundant; emit for
        # rvt only so names stay unique).
        if vt == "rvt":
            for tie_name, bits in (("TIELO", 0), ("TIEHI", 1)):
                cells[tie_name] = Cell(
                    name=tie_name,
                    function=TruthTable(0, bits),
                    inputs=(),
                    area_um2=unit_area * 2,
                    input_cap_ff=0.0,
                    drive_res_kohm=unit_res,
                    intrinsic_ps=0.0,
                    leak_nw=node.leakage_nw(width_um_x1 / 4, 0.0),
                    vt_flavor="rvt",
                )
        # Sequential cells: D flip-flop and its scan variant.
        for seq_name, pins, ntr, scan in [
            ("DFF", ("D",), 20, False),
            ("SDFF", ("D", "SI", "SE"), 26, True),
        ]:
            name = f"{seq_name}_X1_{vt}"
            cells[name] = Cell(
                name=name,
                function=None,
                inputs=pins,
                area_um2=unit_area * ntr,
                input_cap_ff=unit_cin,
                drive_res_kohm=unit_res / speed,
                intrinsic_ps=2.2 * fo4 / speed,
                leak_nw=node.leakage_nw(width_um_x1 * ntr / 4, vth_shift),
                is_sequential=True,
                is_scan=scan,
                vt_flavor=vt,
            )
    return CellLibrary(node, cells)
