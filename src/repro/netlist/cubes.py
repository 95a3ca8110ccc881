"""Cubes and covers: the two-level (sum-of-products) representation.

A :class:`Cube` assigns each variable one of three literals: ``0``
(complemented), ``1`` (positive), or ``2`` (absent / don't care).  A
:class:`Cover` is a set of cubes whose union is the function's on-set.
This is the representation Espresso-family minimizers
(:mod:`repro.synthesis.espresso`) operate on — the panel (Macii) names
Espresso/Mini/MIS/SIS as the first wave of EDA logic optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.netlist.boolfunc import MAX_VARS, TruthTable, var_mask

ABSENT = 2


@lru_cache(maxsize=MAX_VARS + 1)
def literal_masks(nvars: int) -> tuple:
    """Truth-table bits of every literal over ``nvars`` inputs.

    ``masks[var][v]`` is the set of minterms where literal ``v`` of
    ``var`` holds: its complement for 0, its projection for 1, and all
    minterms for ``ABSENT``.  A cube's bits are the AND of its
    literals' masks (:func:`cube_bits`), a cover's the OR of its
    cubes'.  The tables are immutable and there is one per arity
    (at most ``MAX_VARS + 1``), so they are built once per process.
    """
    full = TruthTable.const(True, nvars).bits
    return tuple((full ^ pos, pos, full)
                 for pos in (var_mask(var, nvars) for var in range(nvars)))


def cube_bits(literals, masks) -> int:
    """Truth-table bits of the cube with ``literals`` (see
    :func:`literal_masks`)."""
    bits = (1 << (1 << len(literals))) - 1
    for var, v in enumerate(literals):
        if v != ABSENT:
            bits &= masks[var][v]
    return bits


@dataclass(frozen=True)
class Cube:
    """A product term over ``len(literals)`` variables.

    ``literals`` is a tuple over {0, 1, 2}: 0 = negated literal,
    1 = positive literal, 2 = variable absent.
    """

    literals: tuple

    def __post_init__(self) -> None:
        if any(v not in (0, 1, 2) for v in self.literals):
            raise ValueError("literals must be 0, 1, or 2")

    @property
    def nvars(self) -> int:
        return len(self.literals)

    @staticmethod
    def universe(nvars: int) -> "Cube":
        """The cube covering the whole space (all variables absent)."""
        return Cube((ABSENT,) * nvars)

    @staticmethod
    def from_minterm(minterm: int, nvars: int) -> "Cube":
        """The single-minterm cube."""
        return Cube(tuple((minterm >> i) & 1 for i in range(nvars)))

    def literal_count(self) -> int:
        """Number of literals present — the classic two-level cost."""
        return sum(1 for v in self.literals if v != ABSENT)

    def contains_minterm(self, minterm: int) -> bool:
        """True if the minterm lies inside this cube."""
        for i, v in enumerate(self.literals):
            if v != ABSENT and ((minterm >> i) & 1) != v:
                return False
        return True

    def covers(self, other: "Cube") -> bool:
        """True if every minterm of ``other`` is inside ``self``."""
        for a, b in zip(self.literals, other.literals):
            if a != ABSENT and a != b:
                return False
        return True

    def intersect(self, other: "Cube"):
        """Cube intersection, or ``None`` if disjoint."""
        out = []
        for a, b in zip(self.literals, other.literals):
            if a == ABSENT:
                out.append(b)
            elif b == ABSENT or a == b:
                out.append(a)
            else:
                return None
        return Cube(tuple(out))

    def distance(self, other: "Cube") -> int:
        """Number of variables where the cubes have opposing literals."""
        return sum(
            1 for a, b in zip(self.literals, other.literals)
            if a != ABSENT and b != ABSENT and a != b
        )

    def consensus(self, other: "Cube"):
        """The consensus cube if the distance is exactly 1, else None."""
        if self.distance(other) != 1:
            return None
        out = []
        for a, b in zip(self.literals, other.literals):
            if a == ABSENT:
                out.append(b)
            elif b == ABSENT:
                out.append(a)
            elif a == b:
                out.append(a)
            else:
                out.append(ABSENT)
        return Cube(tuple(out))

    def expand_var(self, var: int) -> "Cube":
        """Remove variable ``var`` from the cube (make it larger)."""
        lits = list(self.literals)
        lits[var] = ABSENT
        return Cube(tuple(lits))

    def minterms(self) -> list[int]:
        """Enumerate the minterms covered by this cube."""
        free = [i for i, v in enumerate(self.literals) if v == ABSENT]
        base = 0
        for i, v in enumerate(self.literals):
            if v == 1:
                base |= 1 << i
        out = []
        for k in range(1 << len(free)):
            m = base
            for j, var in enumerate(free):
                if k >> j & 1:
                    m |= 1 << var
            out.append(m)
        return sorted(out)

    def to_truth_table(self) -> TruthTable:
        """The cube as a function of its full variable space."""
        return TruthTable(self.nvars, cube_bits(
            self.literals, literal_masks(self.nvars)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "".join("01-"[v] for v in self.literals)


class Cover:
    """A list of cubes over a common variable space (an SOP form)."""

    def __init__(self, cubes, nvars: int):
        cubes = list(cubes)
        for c in cubes:
            if c.nvars != nvars:
                raise ValueError("cube arity mismatch")
        self.cubes = cubes
        self.nvars = nvars

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_truth_table(tt: TruthTable) -> "Cover":
        """The canonical minterm cover of a function."""
        return Cover(
            [Cube.from_minterm(m, tt.nvars) for m in tt.minterms()], tt.nvars
        )

    @staticmethod
    def empty(nvars: int) -> "Cover":
        """The empty (constant-0) cover."""
        return Cover([], nvars)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, minterm: int) -> bool:
        """True if any cube covers the minterm."""
        return any(c.contains_minterm(minterm) for c in self.cubes)

    def to_truth_table(self) -> TruthTable:
        """Expand the cover back into a truth table."""
        masks = literal_masks(self.nvars)
        bits = 0
        for cube in self.cubes:
            bits |= cube_bits(cube.literals, masks)
        return TruthTable(self.nvars, bits)

    def covers_minterm(self, minterm: int) -> bool:
        """Alias of :meth:`evaluate` for readability at call sites."""
        return self.evaluate(minterm)

    # ------------------------------------------------------------------
    # Cost metrics
    # ------------------------------------------------------------------

    def cube_count(self) -> int:
        """Number of product terms."""
        return len(self.cubes)

    def literal_count(self) -> int:
        """Total literal count — the standard two-level area proxy."""
        return sum(c.literal_count() for c in self.cubes)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def without(self, index: int) -> "Cover":
        """A copy with cube ``index`` removed."""
        return Cover(
            self.cubes[:index] + self.cubes[index + 1:], self.nvars
        )

    def add(self, cube: Cube) -> "Cover":
        """A copy with ``cube`` appended."""
        if cube.nvars != self.nvars:
            raise ValueError("cube arity mismatch")
        return Cover(self.cubes + [cube], self.nvars)

    def deduplicate(self) -> "Cover":
        """Remove duplicate and single-cube-contained cubes."""
        kept: list[Cube] = []
        for c in sorted(set(self.cubes),
                        key=lambda c: -sum(1 for v in c.literals if v == ABSENT)):
            if not any(k.covers(c) for k in kept):
                kept.append(c)
        return Cover(kept, self.nvars)

    def is_tautology(self) -> bool:
        """Unate-recursive tautology check (the URP of Espresso)."""
        return _urp_tautology(self.cubes, self.nvars)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " + ".join(str(c) for c in self.cubes) or "0"


def _urp_tautology(cubes: list[Cube], nvars: int) -> bool:
    """Unate recursive paradigm tautology check on a cube list."""
    if any(c.literal_count() == 0 for c in cubes):
        return True
    if not cubes:
        return False
    # Unate reduction: a cover unate in all variables is a tautology iff
    # it contains the universal cube (already checked above).
    counts = [[0, 0] for _ in range(nvars)]
    for c in cubes:
        for i, v in enumerate(c.literals):
            if v in (0, 1):
                counts[i][v] += 1
    binate = [i for i in range(nvars) if counts[i][0] and counts[i][1]]
    if not binate:
        return False
    # Split on the most binate variable.
    split = max(binate, key=lambda i: counts[i][0] + counts[i][1])
    pos = _cofactor_cubes(cubes, split, 1)
    neg = _cofactor_cubes(cubes, split, 0)
    return _urp_tautology(pos, nvars) and _urp_tautology(neg, nvars)


def _cofactor_cubes(cubes: list[Cube], var: int, value: int) -> list[Cube]:
    """Cofactor a cube list with respect to a literal."""
    out = []
    for c in cubes:
        v = c.literals[var]
        if v == ABSENT or v == value:
            out.append(c.expand_var(var))
    return out


def cover_covers_cube(cover: Cover, cube: Cube) -> bool:
    """True if the cover contains every minterm of ``cube``.

    Implemented as a tautology check of the cover cofactored against the
    cube — polynomial-free but exact, as in Espresso's IRREDUNDANT.
    :mod:`repro.synthesis.espresso` decides containment on truth-table
    masks instead; this unate-recursive check is the reference its
    tests compare against.
    """
    cof: list[Cube] = []
    for c in cover.cubes:
        inter = c.intersect(cube)
        if inter is None:
            continue
        # Cofactor c against cube: drop the variables cube fixes.
        lits = list(c.literals)
        for i, v in enumerate(cube.literals):
            if v != ABSENT:
                lits[i] = ABSENT
        cof.append(Cube(tuple(lits)))
    return _urp_tautology(cof, cube.nvars)
