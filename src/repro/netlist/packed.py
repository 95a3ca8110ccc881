"""Columnar (structure-of-arrays) netlist interchange.

:class:`PackedNetlist` is the compact design currency the scaling
layers move around: interned net/gate/cell name tables plus int32
CSR connectivity arrays, instead of a dict of :class:`Gate` objects.
It is an internal form: every public kernel takes the object
:class:`~repro.netlist.circuit.Netlist`, and ``Netlist.to_packed()``
(memoized on the edit journal) hands the arrays to three consumers:

* **Caching / journaling / worker handoff** — the orchestrate codec
  (:func:`repro.orchestrate.cache.encode_value`) ships netlists as
  ``.pnl`` bytes instead of deep pickles (at least 3x smaller, which
  ``test_netlist_blob_beats_pickle`` in ``tests/test_packed.py``
  asserts).
* **Cache keys** — :meth:`content_digest` is a canonical,
  insertion-order-independent SHA-256 of the design content, so two
  structurally identical netlists built in different orders share one
  cache entry without pickling either.
* **Analysis kernels** — the incremental timing engine, the lint
  rules, the bit-parallel simulator (:mod:`repro.netlist.bitsim`),
  signoff power and the analytic placer
  (:mod:`repro.place.analytic`) build their CSR/levelized views
  straight from the packed arrays (:meth:`comb_levels`,
  :func:`csr_gather`) instead of re-walking gate dicts.

Round trip: ``Netlist.to_packed()`` / :meth:`to_netlist` is lossless
for any netlist (including lint-broken ones: pins are stored with
their names, not assumed to match the cell's declared order), and the
fresh-name counter rides along so reconstructed netlists generate the
same names an uninterrupted flow would.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:
    from repro.netlist.cells import Cell, CellLibrary
    from repro.netlist.circuit import Netlist

_MAGIC = b"PNL1"
_FORMAT_VERSION = 1
_FLAG_ZLIB = 0x01
_FLAG_SHUFFLE = 0x02
_HEADER_STRUCT = struct.Struct("<4sHBI")   # magic, version, flags, hlen


def _shuffle4(data: bytes) -> bytes:
    """Byte-transpose an int32 buffer (blosc-style shuffle).

    Grouping the low bytes of every word together turns smooth index
    columns into long runs, so zlib level 1 compresses the int
    sections both smaller *and* faster than the unshuffled bytes.
    """
    if len(data) % 4:
        raise PackError("misaligned .pnl int sections")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, 4)
    return np.ascontiguousarray(arr.T).tobytes()


def _unshuffle4(data: bytes) -> bytes:
    """Invert :func:`_shuffle4`."""
    if len(data) % 4:
        raise PackError("misaligned .pnl int sections")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(4, -1)
    return np.ascontiguousarray(arr.T).tobytes()


IntArray = npt.NDArray[np.int32]
Int64Array = npt.NDArray[np.int64]


class PackError(ValueError):
    """A packed netlist (or ``.pnl`` blob) is unusable: unknown cell,
    out-of-range index, truncated or corrupt encoding."""


def csr_gather(starts: Int64Array, counts: Int64Array) -> Int64Array:
    """Flat indices of the CSR segments ``[starts[i], starts[i]+counts[i])``.

    The standard vectorized expansion: the returned index array selects
    every element of every named segment, in segment order, without a
    Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    before = np.concatenate((np.zeros(1, dtype=np.int64), ends[:-1]))
    out: Int64Array = (np.repeat(starts - before, counts)
                       + np.arange(total, dtype=np.int64))
    return out


def _node_name(library: "CellLibrary") -> str:
    """The technology node a library targets ("" when it has none)."""
    return str(getattr(getattr(library, "node", None), "name", ""))


def _names_to_blob(names: Sequence[str]) -> bytes:
    """Encode a name table as one NUL-separated UTF-8 blob.

    One C-level join instead of a per-name encode loop; names
    containing NUL (never produced by the generators or the Verilog
    reader, but the format stays lossless) are escaped as
    ``NUL 'Q'`` with a literal ``NUL 'Z'`` lead-in marker so the
    separator stays unambiguous.
    """
    joined = "\x00".join(names)
    if joined.count("\x00") != max(len(names) - 1, 0) \
            or joined.startswith("\x00Z"):
        joined = "\x00\x01".join(n.replace("\x00", "\x00\x02")
                                 for n in names)
        return b"\x00Z" + joined.encode("utf-8")
    return joined.encode("utf-8")


def _blob_to_names(blob: "bytes | memoryview",
                   count: int) -> tuple[str, ...]:
    """Decode a name table written by :func:`_names_to_blob`."""
    if not isinstance(blob, bytes):
        blob = bytes(blob)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise PackError("corrupt name-table blob") from err
    if text.startswith("\x00Z"):
        names = tuple(p.replace("\x00\x02", "\x00")
                      for p in text[2:].split("\x00\x01"))
    elif count == 0 and not text:
        names = ()
    else:
        names = tuple(text.split("\x00"))
    if len(names) != count:
        raise PackError(
            f"corrupt name table: expected {count} names, "
            f"found {len(names)}")
    return names


class PackedNetlist:
    """A flat netlist in structure-of-arrays form.

    Name tables (``net_names``, ``gate_names``, cell/pin tables) intern
    every string once; connectivity is int32 indices into them:

    * ``gate_cell[i]`` / ``gate_output[i]`` — cell-table and net-table
      index of gate ``i`` (gates keep the source insertion order);
    * ``pin_off``/``pin_net``/``pin_name`` — CSR input pins: gate
      ``i``'s pins are flat slots ``pin_off[i]:pin_off[i+1]``, each a
      (pin-name-table, net-table) index pair in the gate's own pin
      order;
    * ``primary_inputs`` / ``primary_outputs`` — net-table indices in
      declared order (order is semantic: it is the simulation column
      order).

    ``counter`` carries the source netlist's fresh-name counter so a
    reconstructed netlist names new gates exactly like the original
    would (it is deliberately *excluded* from :meth:`content_digest`,
    which fingerprints design content, not construction history).

    Instances are treated as immutable; derived views
    (:meth:`content_digest`, :meth:`comb_levels`) are memoized.
    """

    def __init__(self, *, name: str, node: str, counter: int,
                 net_names: tuple[str, ...],
                 gate_names: tuple[str, ...],
                 cell_names: tuple[str, ...],
                 cell_pins: tuple[tuple[str, ...], ...],
                 cell_seq: tuple[bool, ...],
                 pin_names: tuple[str, ...],
                 gate_cell: IntArray, gate_output: IntArray,
                 pin_off: IntArray, pin_net: IntArray,
                 pin_name: IntArray,
                 primary_inputs: IntArray,
                 primary_outputs: IntArray) -> None:
        self.name = name
        self.node = node
        self.counter = counter
        self.net_names = net_names
        self.gate_names = gate_names
        self.cell_names = cell_names
        self.cell_pins = cell_pins
        self.cell_seq = cell_seq
        self.pin_names = pin_names
        self.gate_cell = gate_cell
        self.gate_output = gate_output
        self.pin_off = pin_off
        self.pin_net = pin_net
        self.pin_name = pin_name
        self.primary_inputs = primary_inputs
        self.primary_outputs = primary_outputs
        self._digest: str | None = None
        self._bytes: bytes | None = None
        self._levels: tuple[Int64Array, Int64Array] | None = None
        self._seq_mask: npt.NDArray[np.bool_] | None = None

    # -- shape ------------------------------------------------------------

    @property
    def num_gates(self) -> int:
        return len(self.gate_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_pins(self) -> int:
        return int(self.pin_net.size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PackedNetlist({self.name!r}, {self.num_gates} gates, "
                f"{self.num_nets} nets, {self.num_pins} pins)")

    # -- construction from the object form ---------------------------------

    @classmethod
    def from_netlist(cls, nl: "Netlist") -> "PackedNetlist":
        """Pack a :class:`~repro.netlist.circuit.Netlist`.

        Pins are recorded in each gate's own ``pins`` order with their
        names, so even netlists that violate the cell's declared pin
        set (the lint subjects) survive the round trip.  The hot path
        is decomposed into C-level comprehensions plus
        ``dict.fromkeys`` interning — about twice as fast as one
        gate-at-a-time Python pass at 50k gates.
        """
        gates = nl.gates
        gate_list = list(gates.values())
        counts = [len(g.pins) for g in gate_list]
        outs = [g.output for g in gate_list]
        cnames = [g.cell.name for g in gate_list]
        pin_keys = [p for g in gate_list for p in g.pins]
        pin_vals = [n for g in gate_list for n in g.pins.values()]

        cell_id = dict(zip(uq := dict.fromkeys(cnames),
                           range(len(uq))))
        # First Cell object seen under each name (libraries are tiny,
        # so this scan almost always breaks within a few hundred gates).
        cell_by_name: dict[str, "Cell"] = {}
        for g in gate_list:
            if g.cell.name not in cell_by_name:
                cell_by_name[g.cell.name] = g.cell
                if len(cell_by_name) == len(cell_id):
                    break
        cells = [cell_by_name[cn] for cn in cell_id]
        pis = list(nl.primary_inputs)
        pos = list(nl.primary_outputs)
        all_nets = pis + pin_vals + outs + pos
        net_id = dict(zip(uq2 := dict.fromkeys(all_nets),
                          range(len(uq2))))
        pin_id = dict(zip(uq3 := dict.fromkeys(pin_keys),
                          range(len(uq3))))

        net_idx: IntArray = np.fromiter(
            map(net_id.__getitem__, all_nets), dtype=np.int32,
            count=len(all_nets))
        a, b = len(pis), len(pis) + len(pin_vals)
        c = b + len(outs)
        pin_off = np.zeros(len(gate_list) + 1, dtype=np.int32)
        if gate_list:
            np.cumsum(np.asarray(counts, dtype=np.int32),
                      out=pin_off[1:])

        return cls(
            name=nl.name, node=_node_name(nl.library),
            counter=int(getattr(nl, "_counter", 0)),
            net_names=tuple(net_id),
            gate_names=tuple(gates),
            cell_names=tuple(cell_id),
            cell_pins=tuple(tuple(cl.inputs) for cl in cells),
            cell_seq=tuple(bool(cl.is_sequential) for cl in cells),
            pin_names=tuple(pin_id),
            gate_cell=np.fromiter(map(cell_id.__getitem__, cnames),
                                  dtype=np.int32, count=len(cnames)),
            gate_output=net_idx[b:c],
            pin_off=pin_off,
            pin_net=net_idx[a:b],
            pin_name=np.fromiter(map(pin_id.__getitem__, pin_keys),
                                 dtype=np.int32, count=len(pin_keys)),
            primary_inputs=net_idx[:a], primary_outputs=net_idx[c:])

    # -- reconstruction -----------------------------------------------------

    def _check_indices(self) -> None:
        """Vectorized bounds checks; PackError names the offending gate."""
        n_nets, n_gates = self.num_nets, self.num_gates
        if self.pin_off.size != n_gates + 1 or \
                (n_gates and int(self.pin_off[-1]) != self.num_pins):
            raise PackError("pin offsets disagree with pin arrays")
        for arr, n, what in (
                (self.primary_inputs, n_nets, "primary input"),
                (self.primary_outputs, n_nets, "primary output")):
            bad = np.flatnonzero((arr < 0) | (arr >= n))
            if bad.size:
                raise PackError(
                    f"{what} #{int(bad[0])} has net index "
                    f"{int(arr[bad[0]])} out of range (nets: {n})")
        bad = np.flatnonzero((self.gate_cell < 0)
                             | (self.gate_cell >= len(self.cell_names)))
        if bad.size:
            g = int(bad[0])
            raise PackError(
                f"gate {self.gate_names[g]!r} has cell index "
                f"{int(self.gate_cell[g])} out of range "
                f"(cells: {len(self.cell_names)})")
        bad = np.flatnonzero((self.gate_output < 0)
                             | (self.gate_output >= n_nets))
        if bad.size:
            g = int(bad[0])
            raise PackError(
                f"gate {self.gate_names[g]!r} drives net index "
                f"{int(self.gate_output[g])} out of range "
                f"(nets: {n_nets})")
        bad = np.flatnonzero((self.pin_net < 0) | (self.pin_net >= n_nets))
        if bad.size:
            g = int(np.searchsorted(self.pin_off, int(bad[0]),
                                    side="right")) - 1
            raise PackError(
                f"gate {self.gate_names[g]!r} reads net index "
                f"{int(self.pin_net[bad[0]])} out of range "
                f"(nets: {n_nets})")
        bad = np.flatnonzero((self.pin_name < 0)
                             | (self.pin_name >= len(self.pin_names)))
        if bad.size:
            g = int(np.searchsorted(self.pin_off, int(bad[0]),
                                    side="right")) - 1
            raise PackError(
                f"gate {self.gate_names[g]!r} has pin-name index "
                f"{int(self.pin_name[bad[0]])} out of range")

    def to_netlist(self, library: "CellLibrary") -> "Netlist":
        """Rebuild the object form against ``library``.

        Every referenced index is bounds-checked up front, and an
        unknown cell raises :class:`PackError` naming the offending
        gate — reconstruction never dies with a bare ``KeyError`` deep
        inside the loop.

        When ``library`` has the node and cell tables this form was
        packed against, the rebuilt netlist's ``to_packed()`` memo is
        seeded with ``self``: the ``.pnl`` round trip is byte-stable,
        so packing it again would reproduce ``self`` exactly.  Keying
        or re-encoding a design that a cache hit just decoded then
        never packs it again; the first journaled edit clears the memo
        as usual.
        """
        from repro.netlist.circuit import Gate, Netlist

        self._check_indices()
        cells = []
        for ci, cname in enumerate(self.cell_names):
            try:
                cells.append(library[cname])
            except KeyError:
                g = np.flatnonzero(self.gate_cell == ci)
                culprit = (self.gate_names[int(g[0])] if g.size
                           else "<unused>")
                raise PackError(
                    f"gate {culprit!r} instantiates unknown cell "
                    f"{cname!r} (not in the target library)") from None

        nl = Netlist(self.name, library)
        net = self.net_names
        nl.primary_inputs = [net[i] for i in self.primary_inputs]
        for n in nl.primary_inputs:
            nl._driver[n] = ""
        pin_tbl = self.pin_names
        off = self.pin_off.tolist()
        flat_pins = [pin_tbl[i] for i in self.pin_name.tolist()]
        flat_nets = [net[i] for i in self.pin_net.tolist()]
        outs = [net[i] for i in self.gate_output.tolist()]
        gcells = [cells[i] for i in self.gate_cell.tolist()]
        driver = nl._driver
        gates_dict = nl.gates
        for gi, gname in enumerate(self.gate_names):
            a, b = off[gi], off[gi + 1]
            gate = Gate(gname, gcells[gi],
                        dict(zip(flat_pins[a:b], flat_nets[a:b])),
                        outs[gi])
            gates_dict[gname] = gate
            driver.setdefault(outs[gi], gname)
        nl.primary_outputs = [net[i] for i in self.primary_outputs]
        nl._counter = self.counter
        if _node_name(library) == self.node and \
                [(c.name, tuple(c.inputs), bool(c.is_sequential))
                 for c in cells] == list(zip(self.cell_names,
                                             self.cell_pins,
                                             self.cell_seq)):
            nl._packed_memo = (nl._edit_version, self)
        return nl

    # -- canonical content identity ------------------------------------------

    def content_digest(self) -> str:
        """Canonical SHA-256 of the design content (hex).

        Insertion-order independent: net, gate, cell, and pin-name
        tables are hashed in sorted order and every index column is
        remapped through the sort permutations; pins within a gate are
        ordered by pin name.  PI/PO *order* is hashed as-is (it is
        semantic — the simulation column order), and ``counter`` is
        excluded (construction history, not content).  Memoized.
        """
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        h.update(b"pnl-digest:1\x00")
        h.update(self.name.encode("utf-8") + b"\x00")
        h.update(self.node.encode("utf-8") + b"\x00")

        def rank_of(names: tuple[str, ...]
                    ) -> tuple[Int64Array, Int64Array]:
            if not names:
                h.update(b"\x00")
                empty = np.empty(0, dtype=np.int64)
                return empty, empty
            arr = np.asarray(names)          # unicode dtype: C-speed sort
            order = np.argsort(arr, kind="stable")
            rank = np.empty(len(names), dtype=np.int64)
            rank[order] = np.arange(len(names), dtype=np.int64)
            # Fixed-width UCS4 rows are self-delimiting, so the sorted
            # table hashes as one buffer (the width is determined by
            # the names themselves, hence canonical).
            h.update(str(arr.dtype).encode("ascii"))
            h.update(np.ascontiguousarray(arr[order]).tobytes())
            return rank, order

        net_rank, _ = rank_of(self.net_names)
        gate_rank, gate_order = rank_of(self.gate_names)
        pin_rank, _ = rank_of(self.pin_names)
        # Cell table: hash in sorted-name order with pins + seq flag.
        cell_order = sorted(range(len(self.cell_names)),
                            key=self.cell_names.__getitem__)
        cell_rank = np.empty(len(self.cell_names), dtype=np.int64)
        for r, ci in enumerate(cell_order):
            cell_rank[ci] = r
            h.update(self.cell_names[ci].encode("utf-8") + b"\x00")
            h.update(",".join(self.cell_pins[ci]).encode("utf-8"))
            h.update(b";1" if self.cell_seq[ci] else b";0")

        G = self.num_gates
        counts = np.diff(self.pin_off.astype(np.int64))
        new_counts = counts[gate_order]
        flat = csr_gather(self.pin_off[:-1].astype(np.int64)[gate_order],
                          new_counts)
        pn = pin_rank[self.pin_name.astype(np.int64)[flat]]
        pv = net_rank[self.pin_net.astype(np.int64)[flat]]
        row = np.repeat(np.arange(G, dtype=np.int64), new_counts)
        order2 = np.lexsort((pn, row))
        for col in (new_counts,
                    cell_rank[self.gate_cell.astype(np.int64)[gate_order]],
                    net_rank[self.gate_output.astype(np.int64)[gate_order]],
                    pn[order2], pv[order2],
                    net_rank[self.primary_inputs.astype(np.int64)],
                    net_rank[self.primary_outputs.astype(np.int64)]):
            h.update(col.tobytes())
            h.update(b"|")
        self._digest = h.hexdigest()
        return self._digest

    # -- derived analysis views -------------------------------------------

    def seq_gate_mask(self) -> npt.NDArray[np.bool_]:
        """Per-gate boolean mask of sequential (flop) instances."""
        if self._seq_mask is None:
            seq = np.asarray(self.cell_seq, dtype=bool)
            if self.num_gates:
                self._seq_mask = seq[self.gate_cell.astype(np.int64)]
            else:
                self._seq_mask = np.zeros(0, dtype=bool)
        return self._seq_mask

    def comb_levels(self) -> tuple[Int64Array, Int64Array]:
        """Levelize the combinational graph, cycle-tolerantly.

        Returns ``(level, cyclic)``: ``level[i]`` is the longest
        combinational depth of gate ``i`` from a source (PIs and flop
        outputs are depth-0 sources; sequential gates stay 0), and
        ``cyclic`` lists the row indices of combinational gates on or
        behind a combinational cycle (empty when the graph is acyclic).
        Nets are assumed singly driven (the valid-netlist invariant);
        the lint rules run their own multi-driver-tolerant variant.
        Memoized.
        """
        if self._levels is not None:
            return self._levels
        G = self.num_gates
        n_nets = self.num_nets
        comb = ~self.seq_gate_mask()
        drv = np.full(n_nets, -1, dtype=np.int64)
        if G:
            drv[self.gate_output.astype(np.int64)] = \
                np.arange(G, dtype=np.int64)
        counts = np.diff(self.pin_off.astype(np.int64))
        row = np.repeat(np.arange(G, dtype=np.int64), counts)
        src = drv[self.pin_net.astype(np.int64)]
        ok = src >= 0
        ok[ok] = comb[src[ok]]
        edge = ok & comb[row]
        esrc, edst = src[edge], row[edge]
        level, cyclic = _kahn_levels(G, comb, esrc, edst)
        self._levels = (level, cyclic)
        return self._levels

    # -- binary .pnl format -----------------------------------------------

    def _sections(self) -> list[npt.NDArray[np.int32] | bytes]:
        return [_names_to_blob(self.net_names),
                _names_to_blob(self.gate_names),
                self.gate_cell, self.gate_output, self.pin_off,
                self.pin_net, self.pin_name,
                self.primary_inputs, self.primary_outputs]

    def to_bytes(self) -> bytes:
        """Serialize to the versioned ``.pnl`` binary format.

        Layout: fixed header (magic, format version, flags, header
        length), a JSON header (scalars, small interned tables, section
        lengths, payload checksum), then the little-endian array
        sections, byte-shuffled and zlib-compressed as one block.

        Memoized: pack once, and the cache blob and journal blob reuse
        the same bytes.
        """
        if self._bytes is not None:
            return self._bytes
        parts = [s.astype("<i4").tobytes()
                 if isinstance(s, np.ndarray) else s
                 for s in self._sections()]
        payload = parts[0] + parts[1] + _shuffle4(b"".join(parts[2:]))
        header = {
            "name": self.name,
            "node": self.node,
            "counter": self.counter,
            "counts": [self.num_nets, self.num_gates],
            "cells": [[n, list(p), int(s)] for n, p, s in
                      zip(self.cell_names, self.cell_pins, self.cell_seq)],
            "pin_names": list(self.pin_names),
            "sections": [len(p) for p in parts],
            "crc32": zlib.crc32(payload),
        }
        payload = zlib.compress(payload, 1)
        hjson = json.dumps(header, separators=(",", ":")).encode("utf-8")
        blob = _HEADER_STRUCT.pack(_MAGIC, _FORMAT_VERSION,
                                   _FLAG_SHUFFLE | _FLAG_ZLIB,
                                   len(hjson)) + hjson + payload
        self._bytes = blob
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedNetlist":
        """Parse a ``.pnl`` blob; :class:`PackError` on any damage.

        The blob must carry the byte-shuffle and zlib flags (every
        :meth:`to_bytes` blob does); an unshuffled or uncompressed
        payload is refused.
        """
        if len(data) < _HEADER_STRUCT.size:
            raise PackError("truncated .pnl header")
        magic, version, flags, hlen = _HEADER_STRUCT.unpack_from(data)
        if magic != _MAGIC:
            raise PackError("not a .pnl blob (bad magic)")
        if version != _FORMAT_VERSION:
            raise PackError(f"unsupported .pnl format version {version}")
        if not flags & _FLAG_SHUFFLE:
            raise PackError("unsupported .pnl layout (int sections "
                            "not byte-shuffled)")
        if not flags & _FLAG_ZLIB:
            raise PackError("unsupported .pnl layout (payload not "
                            "zlib-compressed)")
        if len(data) < _HEADER_STRUCT.size + hlen:
            raise PackError("truncated .pnl header")
        try:
            header = json.loads(
                data[_HEADER_STRUCT.size:_HEADER_STRUCT.size
                     + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise PackError("corrupt .pnl header") from err
        try:
            payload = zlib.decompress(data[_HEADER_STRUCT.size + hlen:])
        except zlib.error as err:
            raise PackError("corrupt .pnl payload "
                            "(decompression failed)") from err
        try:
            sections: list[int] = [int(n) for n in header["sections"]]
            name = str(header["name"])
            node = str(header["node"])
            counter = int(header["counter"])
            n_nets, n_gates = (int(c) for c in header["counts"])
            cells = [(str(n), tuple(str(q) for q in p), bool(s))
                     for n, p, s in header["cells"]]
            pin_names = tuple(str(p) for p in header["pin_names"])
            checksum = int(header["crc32"])
        except (KeyError, TypeError, ValueError) as err:
            raise PackError("corrupt .pnl header") from err
        if len(sections) != 9:
            raise PackError("corrupt .pnl header (bad section table)")
        if sum(sections) != len(payload):
            raise PackError("truncated .pnl payload")
        if zlib.crc32(payload) != checksum:
            raise PackError(".pnl payload checksum mismatch")
        split = sections[0] + sections[1]
        payload = payload[:split] + _unshuffle4(payload[split:])

        views: list[bytes] = []
        pos = 0
        for n in sections:
            views.append(payload[pos:pos + n])
            pos += n

        def ints(b: bytes) -> IntArray:
            if len(b) % 4:
                raise PackError("misaligned .pnl array section")
            arr = np.frombuffer(b, dtype="<i4")
            # Little-endian hosts keep the (read-only) view; only a
            # byte-order mismatch forces the copy.
            return arr if arr.dtype == np.int32 else arr.astype(np.int32)

        net_names = _blob_to_names(views[0], n_nets)
        gate_names = _blob_to_names(views[1], n_gates)
        packed = cls(
            name=name, node=node, counter=counter,
            net_names=net_names, gate_names=gate_names,
            cell_names=tuple(c[0] for c in cells),
            cell_pins=tuple(c[1] for c in cells),
            cell_seq=tuple(c[2] for c in cells),
            pin_names=pin_names,
            gate_cell=ints(views[2]), gate_output=ints(views[3]),
            pin_off=ints(views[4]), pin_net=ints(views[5]),
            pin_name=ints(views[6]),
            primary_inputs=ints(views[7]),
            primary_outputs=ints(views[8]))
        if packed.pin_off.size != packed.num_gates + 1 or \
                packed.gate_cell.size != packed.num_gates or \
                packed.gate_output.size != packed.num_gates or \
                packed.pin_name.size != packed.pin_net.size:
            raise PackError("corrupt .pnl blob (array shape mismatch)")
        return packed


def _kahn_levels(n_gates: int, comb: npt.NDArray[np.bool_],
                 esrc: Int64Array, edst: Int64Array
                 ) -> tuple[Int64Array, Int64Array]:
    """Vectorized longest-path Kahn levelization over explicit edges.

    Processes the ready frontier in waves with ``np.maximum.at`` /
    ``np.subtract.at``; whatever keeps positive in-degree afterwards
    is on or behind a cycle and is reported instead of raised.
    """
    level = np.zeros(n_gates, dtype=np.int64)
    indeg = np.bincount(edst, minlength=n_gates)
    order = np.argsort(esrc, kind="stable")
    adj = edst[order]
    adj_cnt = np.bincount(esrc, minlength=n_gates)
    adj_off = np.concatenate((np.zeros(1, dtype=np.int64),
                              np.cumsum(adj_cnt)))
    remaining = indeg.copy()
    frontier = np.flatnonzero(comb & (indeg == 0))
    processed = int(frontier.size)
    while frontier.size:
        c = adj_cnt[frontier]
        flat = csr_gather(adj_off[:-1][frontier], c)
        tgt = adj[flat]
        np.maximum.at(level, tgt, np.repeat(level[frontier] + 1, c))
        np.subtract.at(remaining, tgt, 1)
        nxt = np.unique(tgt[remaining[tgt] == 0])
        processed += int(nxt.size)
        frontier = nxt
    if processed == int(comb.sum()):
        cyclic = np.empty(0, dtype=np.int64)
    else:
        cyclic = np.flatnonzero(comb & (remaining > 0))
    return level, cyclic
