"""Bit-packed truth tables for small Boolean functions (up to 16 vars).

A :class:`TruthTable` stores the output column of a function of ``n``
variables as an integer bitmask of ``2**n`` bits; minterm ``m`` is true
iff bit ``m`` is set.  Variable 0 is the least-significant input.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VARS = 16


def _mask(nvars: int) -> int:
    return (1 << (1 << nvars)) - 1


def var_mask(index: int, nvars: int) -> int:
    """Truth-table bits of the projection onto input ``index``.

    Bit ``m`` is set iff bit ``index`` of minterm ``m`` is: blocks of
    ``2**index`` zeros and ``2**index`` ones, repeated over the
    ``2**nvars`` minterms.  Dividing the all-ones mask by
    ``2**(2**index) + 1`` leaves one ones-block per period, in the low
    half of each period, so a shift by ``2**index`` lands it in the
    high half.
    """
    if not 0 <= nvars <= MAX_VARS:
        raise ValueError(f"nvars must be in [0, {MAX_VARS}]")
    if not 0 <= index < nvars:
        raise ValueError(f"var index {index} out of range for {nvars}")
    width = 1 << index
    return _mask(nvars) // ((1 << width) + 1) << width


@dataclass(frozen=True)
class TruthTable:
    """An immutable truth table of ``nvars`` inputs.

    Examples
    --------
    >>> a = TruthTable.var(0, 2)
    >>> b = TruthTable.var(1, 2)
    >>> (a & b).minterms()
    [3]
    """

    nvars: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.nvars <= MAX_VARS:
            raise ValueError(f"nvars must be in [0, {MAX_VARS}]")
        if self.bits & ~_mask(self.nvars):
            raise ValueError("bits wider than 2**nvars")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def const(value: bool, nvars: int) -> "TruthTable":
        """The constant-0 or constant-1 function of ``nvars`` inputs."""
        return TruthTable(nvars, _mask(nvars) if value else 0)

    @staticmethod
    def var(index: int, nvars: int) -> "TruthTable":
        """The projection function returning input ``index``."""
        return TruthTable(nvars, var_mask(index, nvars))

    @staticmethod
    def from_minterms(minterms, nvars: int) -> "TruthTable":
        """Build from an iterable of true minterm indices."""
        bits = 0
        for m in minterms:
            if not 0 <= m < (1 << nvars):
                raise ValueError(f"minterm {m} out of range")
            bits |= 1 << m
        return TruthTable(nvars, bits)

    @staticmethod
    def from_string(s: str) -> "TruthTable":
        """Parse a binary output-column string, MSB (highest minterm) first.

        >>> TruthTable.from_string("1000").minterms()   # AND2
        [3]
        """
        n = len(s)
        if n & (n - 1) or n == 0:
            raise ValueError("length must be a power of two")
        nvars = n.bit_length() - 1
        return TruthTable(nvars, int(s, 2))

    # ------------------------------------------------------------------
    # Logic operators
    # ------------------------------------------------------------------

    def _check(self, other: "TruthTable") -> None:
        if self.nvars != other.nvars:
            raise ValueError("operand arity mismatch")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.nvars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.nvars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.nvars, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.nvars, self.bits ^ _mask(self.nvars))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def evaluate(self, assignment: int) -> bool:
        """Value of the function on the minterm ``assignment``."""
        if not 0 <= assignment < (1 << self.nvars):
            raise ValueError("assignment out of range")
        return bool(self.bits >> assignment & 1)

    def minterms(self) -> list[int]:
        """Sorted list of true minterms."""
        return [m for m in range(1 << self.nvars) if self.bits >> m & 1]

    def count_ones(self) -> int:
        """Number of true minterms."""
        return bin(self.bits).count("1")

    def is_tautology(self) -> bool:
        """True if the function is constant 1."""
        return self.bits == _mask(self.nvars)

    def is_contradiction(self) -> bool:
        """True if the function is constant 0."""
        return self.bits == 0

    def cofactor(self, var: int, value: bool) -> "TruthTable":
        """Shannon cofactor with input ``var`` fixed to ``value``.

        The result keeps the same arity (the fixed variable becomes a
        don't-care), which keeps composition simple.
        """
        if not 0 <= var < self.nvars:
            raise ValueError("var out of range")
        bits = 0
        for m in range(1 << self.nvars):
            src = (m | (1 << var)) if value else (m & ~(1 << var))
            if self.bits >> src & 1:
                bits |= 1 << m
        return TruthTable(self.nvars, bits)

    def depends_on(self, var: int) -> bool:
        """True if the function's value can change with input ``var``."""
        return self.cofactor(var, False).bits != self.cofactor(var, True).bits

    def support(self) -> list[int]:
        """Indices of inputs the function actually depends on."""
        return [v for v in range(self.nvars) if self.depends_on(v)]

    def expand_vars(self, nvars: int, mapping=None) -> "TruthTable":
        """Re-express over a wider input space.

        ``mapping[i]`` gives the new index of old input ``i``; identity by
        default.  Needed when composing sub-functions into one table.
        """
        if nvars < self.nvars:
            raise ValueError("cannot shrink arity")
        if mapping is None:
            mapping = list(range(self.nvars))
        if len(mapping) != self.nvars:
            raise ValueError("mapping length must equal nvars")
        bits = 0
        for m in range(1 << nvars):
            src = 0
            for old, new in enumerate(mapping):
                if m >> new & 1:
                    src |= 1 << old
            if self.bits >> src & 1:
                bits |= 1 << m
        return TruthTable(nvars, bits)

    def to_binary_string(self) -> str:
        """Output column as a binary string, highest minterm first."""
        return format(self.bits, f"0{1 << self.nvars}b")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"TT({self.nvars}v, {self.to_binary_string()})"


# Common two-input functions, handy for cell definitions and tests.
def tt_and2() -> TruthTable:
    """Two-input AND."""
    return TruthTable.from_string("1000")


def tt_or2() -> TruthTable:
    """Two-input OR."""
    return TruthTable.from_string("1110")


def tt_xor2() -> TruthTable:
    """Two-input XOR."""
    return TruthTable.from_string("0110")


def tt_nand2() -> TruthTable:
    """Two-input NAND."""
    return TruthTable.from_string("0111")


def tt_nor2() -> TruthTable:
    """Two-input NOR."""
    return TruthTable.from_string("0001")
