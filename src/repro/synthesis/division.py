"""Algebraic division, kernels, and factoring — the MIS/SIS engine.

Multi-level logic here is manipulated as *algebraic* sums of products: a
:data:`Sop` is a list of cubes, each cube a frozenset of literals, each
literal a ``(variable_name, phase)`` pair.  Algebraic (as opposed to
Boolean) operations treat literals as opaque symbols, which is what
makes kernel extraction fast.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.netlist.cubes import ABSENT, Cover, Cube

#: A literal: (variable name, phase); phase False means complemented.
Literal = tuple
#: A cube: frozenset of literals.  A SOP: list of cubes.
Sop = list


def sop_literal_count(sop: Sop) -> int:
    """Total number of literals — the multi-level area proxy."""
    return sum(len(c) for c in sop)


def sop_support(sop: Sop) -> set:
    """Variable names appearing in the SOP."""
    return {name for cube in sop for (name, _) in cube}


def sop_is_algebraic(sop: Sop) -> bool:
    """True if no cube contains another (required for kernel theory)."""
    for a, b in itertools.permutations(sop, 2):
        if a <= b:
            return False
    return True


def make_cube(*literals) -> frozenset:
    """Helper: build a cube from (name, phase) pairs."""
    return frozenset(literals)


def sop_from_cover(cover: Cover, var_names: list) -> Sop:
    """Convert a positional :class:`Cover` into a named SOP."""
    if len(var_names) != cover.nvars:
        raise ValueError("var_names length mismatch")
    sop = []
    for cube in cover.cubes:
        lits = set()
        for i, v in enumerate(cube.literals):
            if v != ABSENT:
                lits.add((var_names[i], bool(v)))
        sop.append(frozenset(lits))
    return sop


def sop_to_cover(sop: Sop, var_names: list) -> Cover:
    """Convert a named SOP back into a positional cover.

    A cube holding both phases of one signal (``x & ~x``) is constant 0
    and is dropped: no positional cube can express it.
    """
    index = {n: i for i, n in enumerate(var_names)}
    cubes = []
    for cube in sop:
        lits = [ABSENT] * len(var_names)
        for name, phase in cube:
            i, bit = index[name], 1 if phase else 0
            if lits[i] == 1 - bit:
                break
            lits[i] = bit
        else:
            cubes.append(Cube(tuple(lits)))
    return Cover(cubes, len(var_names))


def cube_divide(cube: frozenset, divisor: frozenset):
    """cube / divisor for single cubes: the co-factor, or None."""
    if divisor <= cube:
        return cube - divisor
    return None


def algebraic_divide(f: Sop, divisor: Sop):
    """Weak (algebraic) division: returns (quotient, remainder).

    ``f = quotient * divisor + remainder`` where the product is
    algebraic (no variable shared between quotient and divisor).
    """
    if not divisor:
        raise ValueError("division by empty SOP")
    quotients = []
    for d in divisor:
        qi = {cube - d for cube in f if d <= cube}
        quotients.append(qi)
    q = set.intersection(*quotients) if quotients else set()
    # The algebraic condition: quotient must share no variable with the
    # divisor.
    dvars = sop_support(divisor)
    q = {c for c in q if not ({name for (name, _) in c} & dvars)}
    product = {qc | dc for qc in q for dc in divisor}
    remainder = [c for c in f if c not in product]
    return sorted(q, key=sorted), remainder


def kernels(f: Sop) -> list:
    """All kernels of ``f`` with their co-kernels.

    A kernel is a cube-free quotient of ``f`` by a cube; returned as a
    list of ``(cokernel_cube, kernel_sop)`` pairs, including the trivial
    kernel (``f`` itself if cube-free).  Classic recursive algorithm
    over the literals sorted by frequency.
    """
    f = [frozenset(c) for c in f]
    out: list = []
    seen: set = set()

    def largest_common_cube(cubes) -> frozenset:
        if not cubes:
            return frozenset()
        common = set(cubes[0])
        for c in cubes[1:]:
            common &= c
        return frozenset(common)

    def is_cube_free(sop) -> bool:
        return not largest_common_cube(sop)

    lit_order = [lit for lit, _ in Counter(
        lit for cube in f for lit in cube).most_common()]
    lit_index = {lit: i for i, lit in enumerate(lit_order)}

    def recurse(g: Sop, cokernel: frozenset, start: int) -> None:
        key = frozenset(g)
        if key in seen:
            return
        seen.add(key)
        if is_cube_free(g) and len(g) > 1:
            out.append((cokernel, sorted(g, key=sorted)))
        for i in range(start, len(lit_order)):
            lit = lit_order[i]
            with_lit = [c for c in g if lit in c]
            if len(with_lit) < 2:
                continue
            stripped = [c - {lit} for c in with_lit]
            common = largest_common_cube(stripped)
            sub = [c - common for c in stripped]
            # Skip if a smaller-indexed literal divides the whole
            # quotient (it will be found from that branch).
            if any(lit_index.get(x, len(lit_order)) < i for x in common):
                continue
            recurse(sub, cokernel | {lit} | common, i + 1)

    recurse(f, frozenset(), 0)
    if is_cube_free(f) and len(f) > 1:
        out.append((frozenset(), sorted(f, key=sorted)))
    # Deduplicate identical kernels (same SOP, different cokernels kept).
    uniq = []
    seen_pairs = set()
    for ck, k in out:
        key = (ck, tuple(sorted(tuple(sorted(c)) for c in k)))
        if key not in seen_pairs:
            seen_pairs.add(key)
            uniq.append((ck, k))
    return uniq


def kernel_value(kernel: Sop, cokernels: list) -> int:
    """Literal savings from extracting a kernel at the given use sites.

    At a use with cokernel ``ck`` the kernel's ``|K|`` cubes (``L``
    literals plus ``|K| * |ck|`` copies of the cokernel) collapse to a
    single cube of ``|ck| + 1`` literals; the kernel body is then
    implemented once at cost ``L``.
    """
    body = sop_literal_count(kernel)
    ncubes = len(kernel)
    saved = 0
    for ck in cokernels:
        saved += body + ncubes * len(ck) - (len(ck) + 1)
    return saved - body


def best_common_kernel(sops: dict):
    """Find the kernel with the best total savings across named SOPs.

    Returns ``(kernel_sop, savings, users)`` or ``None``; ``users`` maps
    SOP name -> list of cokernels where the kernel divides it.
    """
    table: dict = {}
    for name, sop in sops.items():
        for ck, k in kernels(sop):
            key = tuple(sorted(tuple(sorted(c)) for c in k))
            table.setdefault(key, {"kernel": k, "users": []})
            table[key]["users"].append((name, ck))
    best = None
    for entry in table.values():
        uses = len(entry["users"])
        if uses < 2:
            continue
        value = kernel_value(entry["kernel"],
                             [ck for _, ck in entry["users"]])
        if value > 0 and (best is None or value > best[1]):
            users: dict = {}
            for name, ck in entry["users"]:
                users.setdefault(name, []).append(ck)
            best = (entry["kernel"], value, users)
    return best


def factor(sop: Sop, _depth: int = 0):
    """Algebraic "good factoring": returns an expression tree.

    Tree grammar: ``("lit", name, phase)`` | ``("and", [t...])`` |
    ``("or", [t...])`` | ``("const", bool)``.  The divisor is the best
    kernel when one exists (the SIS good-factor), falling back to the
    most frequent literal (quick-factor).
    """
    if _depth > 64:
        raise RecursionError("factoring depth exceeded")
    if not sop:
        return ("const", False)
    if any(len(c) == 0 for c in sop):
        return ("const", True)
    if len(sop) == 1:
        cube = sop[0]
        terms = [("lit", name, phase) for name, phase in sorted(cube)]
        return terms[0] if len(terms) == 1 else ("and", terms)

    # Good-factor: divide by the largest proper kernel.
    whole = {frozenset(c) for c in sop}
    candidates = [k for _, k in kernels(sop)
                  if {frozenset(c) for c in k} != whole]
    candidates.sort(key=lambda k: (-len(k), sop_literal_count(k)))
    for divisor in candidates:
        quotient, remainder = algebraic_divide(sop, divisor)
        if quotient:
            prod = ("and", [factor(list(quotient), _depth + 1),
                            factor(divisor, _depth + 1)])
            if not remainder:
                return prod
            return ("or", [prod, factor(remainder, _depth + 1)])

    # Quick-factor fallback: most frequent literal.
    freq = Counter(lit for cube in sop for lit in cube)
    lit, count = freq.most_common(1)[0]
    if count < 2:
        return ("or", [factor([c], _depth + 1) for c in sop])
    quotient, remainder = algebraic_divide(sop, [frozenset({lit})])
    if not quotient:
        return ("or", [factor([c], _depth + 1) for c in sop])
    name, phase = lit
    prod = ("and", [("lit", name, phase),
                    factor(list(quotient), _depth + 1)])
    if not remainder:
        return prod
    return ("or", [prod, factor(remainder, _depth + 1)])


def factor_literal_count(sop: Sop) -> int:
    """Literal count of the factored form :func:`factor` produces.

    The cost a factored implementation (AND/OR tree) would pay; used to
    decide whether factoring helps.
    """
    return tree_literal_count(factor(sop))


def tree_literal_count(tree) -> int:
    """Number of literal leaves in a factor tree."""
    kind = tree[0]
    if kind == "const":
        return 0
    if kind == "lit":
        return 1
    return sum(tree_literal_count(t) for t in tree[1])
