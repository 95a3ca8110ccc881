"""Tests for repro.netlist.packed and the packed-value codec.

Covers the columnar interchange tentpole end to end: lossless
``Netlist`` <-> ``PackedNetlist`` round-trips, canonical content
digests, the versioned ``.pnl`` binary format (including corruption
hardening), the ``encode_value``/``decode_value`` codec the
orchestration layers speak (an unframed blob is refused, never
unpickled), and the flow-level acceptance claim: codec runs are
metric-bit-identical to pickle runs.
"""

import pickle
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowOptions
from repro.netlist import (
    PackError,
    PackedNetlist,
    build_library,
    lfsr,
    registered_cloud,
    ripple_carry_adder,
)
from repro.orchestrate import run
from repro.orchestrate import cache as cache_mod
from repro.orchestrate import resilience as resilience_mod
from repro.orchestrate.cache import (
    CorruptEntry,
    decode_value,
    encode_value,
    stage_key,
)
from repro.place import global_place
from repro.tech import get_node
from repro.timing import TimingAnalyzer

LIB = build_library(get_node("28nm"), vt_flavors=("lvt", "rvt", "hvt"))


@pytest.fixture(scope="module")
def lib():
    return LIB


def _vt_swap(cell_name):
    """Footprint-compatible variant: flip the Vt flavor suffix."""
    if cell_name.endswith("_rvt"):
        return cell_name[:-4] + "_hvt"
    return cell_name[:-4] + "_rvt"


def same_structure(a, b):
    assert a.name == b.name
    assert a.primary_inputs == b.primary_inputs
    assert a.primary_outputs == b.primary_outputs
    assert list(a.gates) == list(b.gates)
    for name, gate in a.gates.items():
        other = b.gates[name]
        assert gate.cell.name == other.cell.name
        assert gate.pins == other.pins
        assert gate.output == other.output
    assert a._counter == b._counter


# ----------------------------------------------------------------------
# Round-trips and digests


class TestRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda lib: ripple_carry_adder(8, lib),
        lambda lib: lfsr(16, lib),
        lambda lib: registered_cloud(8, 16, 200, lib, seed=1),
    ])
    def test_lossless(self, lib, make):
        nl = make(lib)
        packed = nl.to_packed()
        back = packed.to_netlist(lib)
        back.validate()
        same_structure(nl, back)
        assert nl.content_digest() == back.content_digest()

    def test_empty_netlist(self, lib):
        from repro.netlist import Netlist
        nl = Netlist("empty", lib)
        back = nl.to_packed().to_netlist(lib)
        assert back.name == "empty"
        assert not back.gates

    def test_packed_memoized_until_edit(self, lib):
        nl = ripple_carry_adder(4, lib)
        first = nl.to_packed()
        assert nl.to_packed() is first
        gate = next(iter(nl.gates.values()))
        nl.resize_gate(gate.name, _vt_swap(gate.cell.name))
        assert nl.to_packed() is not first

    def test_rebuilt_netlist_keeps_its_packed_form(self, lib):
        packed = registered_cloud(8, 16, 200, lib, seed=1).to_packed()
        back = packed.to_netlist(lib)
        assert back.to_packed() is packed
        # The seed is exact: packing the rebuilt netlist afresh gives
        # the same bytes.
        assert PackedNetlist.from_netlist(back).to_bytes() == \
            packed.to_bytes()
        gate = next(iter(back.gates.values()))
        swapped = _vt_swap(gate.cell.name)
        back.resize_gate(gate.name, swapped)
        fresh = back.to_packed()
        assert fresh is not packed
        assert fresh.cell_names[fresh.gate_cell[0]] == swapped

    def test_other_library_packs_afresh(self, lib):
        packed = ripple_carry_adder(4, lib).to_packed()
        other = build_library(get_node("7nm"),
                              vt_flavors=("lvt", "rvt", "hvt"))
        back = packed.to_netlist(other)
        assert back.to_packed() is not packed
        assert back.to_packed().node == "7nm"

    def test_digest_ignores_construction_history(self, lib):
        nl = ripple_carry_adder(6, lib)
        twin = ripple_carry_adder(6, lib)
        a = next(iter(twin.gates.values()))
        extra = twin.add_gate("INV_X1_rvt", [a.output])
        twin.remove_gate(extra.name)
        # Same content, different edit history (and name counter).
        assert twin.content_digest() == nl.content_digest()

    def test_digest_sees_content_changes(self, lib):
        nl = ripple_carry_adder(6, lib)
        other = ripple_carry_adder(6, lib)
        gate = next(iter(other.gates.values()))
        other.resize_gate(gate.name, _vt_swap(gate.cell.name))
        assert other.content_digest() != nl.content_digest()

    def test_cache_keys_use_digest_not_pickle(self, lib):
        nl = ripple_carry_adder(5, lib)
        clone = nl.to_packed().to_netlist(lib)
        key = stage_key("syn", {"netlist": nl})
        assert key == stage_key("syn", {"netlist": clone})
        gate = next(iter(clone.gates.values()))
        clone.resize_gate(gate.name, _vt_swap(gate.cell.name))
        assert key != stage_key("syn", {"netlist": clone})


# ----------------------------------------------------------------------
# .pnl binary format


class TestPnlFormat:
    def test_bytes_roundtrip_both_codepaths(self, lib):
        # The zlib flag's two paths: a blob carrying it (every blob
        # ``to_bytes`` writes) round-trips; one without it is refused.
        nl = registered_cloud(8, 16, 150, lib, seed=2)
        packed = nl.to_packed()
        blob = packed.to_bytes()
        assert packed.to_bytes() is blob
        again = PackedNetlist.from_bytes(blob)
        assert again.content_digest() == packed.content_digest()
        same_structure(nl, again.to_netlist(lib))
        hdr = struct.Struct("<4sHBI")
        magic, version, flags, hlen = hdr.unpack_from(blob)
        assert flags & 0x01
        raw = hdr.pack(magic, version, flags & ~0x01, hlen) \
            + blob[hdr.size:hdr.size + hlen] \
            + zlib.decompress(blob[hdr.size + hlen:])
        with pytest.raises(PackError, match="not zlib-compressed"):
            PackedNetlist.from_bytes(raw)

    def test_corruption_is_diagnosed(self, lib):
        blob = ripple_carry_adder(4, lib).to_packed().to_bytes()
        hdr = struct.Struct("<4sHBI")
        magic, version, flags, hlen = hdr.unpack_from(blob)
        cases = [
            (blob[:3], "truncated .pnl header"),
            (b"NOPE" + blob[4:], "bad magic"),
            (hdr.pack(magic, 99, flags, hlen) + blob[hdr.size:],
             "unsupported .pnl format version 99"),
            (blob[:hdr.size + hlen - 5], "truncated .pnl header"),
            (hdr.pack(magic, version, flags, hlen)
             + b"{" * hlen + blob[hdr.size + hlen:], "corrupt .pnl header"),
            (blob[:-7], "corrupt .pnl payload"),
        ]
        for bad, message in cases:
            with pytest.raises(PackError, match=message):
                PackedNetlist.from_bytes(bad)

    def test_unshuffled_payload_is_refused(self, lib):
        blob = ripple_carry_adder(4, lib).to_packed().to_bytes()
        hdr = struct.Struct("<4sHBI")
        magic, version, flags, hlen = hdr.unpack_from(blob)
        unshuffled = hdr.pack(magic, version, flags & ~0x02, hlen) \
            + blob[hdr.size:]
        with pytest.raises(PackError, match="not byte-shuffled"):
            PackedNetlist.from_bytes(unshuffled)

    def test_payload_bitflip_fails_checksum(self, lib):
        # Flip a bit of the decompressed payload and recompress it
        # under the same header, so only the CRC-32 can catch it.
        blob = ripple_carry_adder(4, lib).to_packed().to_bytes()
        hdr = struct.Struct("<4sHBI")
        hlen = hdr.unpack_from(blob)[3]
        payload = bytearray(zlib.decompress(blob[hdr.size + hlen:]))
        payload[-3] ^= 0x40
        bad = blob[:hdr.size + hlen] + zlib.compress(bytes(payload), 1)
        with pytest.raises(PackError, match="checksum mismatch"):
            PackedNetlist.from_bytes(bad)


# ----------------------------------------------------------------------
# to_netlist hardening


class TestRehydrationHardening:
    def tampered(self, lib, **overrides):
        packed = ripple_carry_adder(4, lib).to_packed()
        fields = dict(
            name=packed.name, node=packed.node, counter=packed.counter,
            net_names=packed.net_names, gate_names=packed.gate_names,
            cell_names=packed.cell_names, cell_pins=packed.cell_pins,
            cell_seq=packed.cell_seq, pin_names=packed.pin_names,
            gate_cell=packed.gate_cell.copy(),
            gate_output=packed.gate_output.copy(),
            pin_off=packed.pin_off.copy(),
            pin_net=packed.pin_net.copy(),
            pin_name=packed.pin_name.copy(),
            primary_inputs=packed.primary_inputs.copy(),
            primary_outputs=packed.primary_outputs.copy(),
        )
        fields.update(overrides)
        return PackedNetlist(**fields)

    def test_unknown_cell_names_gate(self, lib):
        packed = self.tampered(
            lib, cell_names=("NO_SUCH_CELL",)
            * len(ripple_carry_adder(4, lib).to_packed().cell_names))
        with pytest.raises(PackError, match="unknown cell"):
            packed.to_netlist(lib)

    def test_out_of_range_output_names_gate(self, lib):
        bad = self.tampered(lib)
        bad.gate_output[0] = bad.num_nets + 7
        gate_name = bad.gate_names[0]
        with pytest.raises(PackError, match=gate_name):
            bad.to_netlist(lib)

    def test_out_of_range_pin_net_names_gate(self, lib):
        bad = self.tampered(lib)
        bad.pin_net[0] = -2
        with pytest.raises(PackError, match="out of range"):
            bad.to_netlist(lib)

    def test_inconsistent_pin_offsets(self, lib):
        bad = self.tampered(lib)
        bad.pin_off[-1] += 1
        with pytest.raises(PackError, match="pin offsets"):
            bad.to_netlist(lib)


# ----------------------------------------------------------------------
# The packed-value codec


class TestCodec:
    def test_netlist_roundtrip(self, lib):
        nl = registered_cloud(8, 16, 150, lib, seed=4)
        clone = decode_value(encode_value(nl))
        same_structure(nl, clone)
        clone.validate()

    def test_placement_roundtrip(self, lib):
        nl = ripple_carry_adder(6, lib)
        placement = global_place(nl, seed=1)
        clone = decode_value(encode_value(placement))
        same_structure(placement.netlist, clone.netlist)
        assert clone.positions == placement.positions
        assert clone.die_w_um == placement.die_w_um
        assert clone.die_h_um == placement.die_h_um

    def test_packed_passthrough(self, lib):
        packed = lfsr(8, lib).to_packed()
        clone = decode_value(encode_value(packed))
        assert isinstance(clone, PackedNetlist)
        assert clone.content_digest() == packed.content_digest()

    def test_generic_values_still_work(self):
        for value in ({"wns": -12.5}, [1, 2, 3], "text", None, 4.25):
            assert decode_value(encode_value(value)) == value

    def test_unframed_blob_is_refused(self, lib):
        legacy = pickle.dumps({"netlist": ripple_carry_adder(4, lib)})
        with pytest.raises(CorruptEntry, match="codec frame"):
            decode_value(legacy)

    def test_netlist_blob_beats_pickle(self, lib):
        nl = registered_cloud(8, 16, 1000, lib, seed=6)
        packed_size = len(encode_value(nl))
        pickle_size = len(pickle.dumps(
            nl, protocol=pickle.HIGHEST_PROTOCOL))
        assert packed_size * 3 < pickle_size


# ----------------------------------------------------------------------
# Property: round-trip preserves structure, digest, and timing


edit_script = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 3)),
    min_size=0, max_size=8)


class TestRoundTripProperties:
    @given(st.integers(0, 10_000), st.integers(30, 200), edit_script)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_preserves_timing_bits(self, seed, gates, edits):
        nl = registered_cloud(6, 10, gates, LIB, seed=seed)
        for pick, kind in edits:
            names = list(nl.gates)
            gate = nl.gates[names[pick % len(names)]]
            if kind == 0:          # journaled resize (Vt swap)
                nl.resize_gate(gate.name, _vt_swap(gate.cell.name))
            elif kind == 1:        # rewire a pin to a primary input
                pin = list(gate.pins)[pick % len(gate.pins)]
                pi = nl.primary_inputs[pick % len(nl.primary_inputs)]
                try:
                    nl.rewire_pin(gate.name, pin, pi)
                except ValueError:
                    pass
            elif kind == 2:        # grow fresh logic
                pi = nl.primary_inputs[pick % len(nl.primary_inputs)]
                nl.add_gate("INV_X1_rvt", [pi])
            else:                  # expose another observation point
                nl.add_output(gate.output)
        nl.validate()
        back = nl.to_packed().to_netlist(LIB)
        back.validate()
        assert back.content_digest() == nl.content_digest()
        assert TimingAnalyzer(back).analyze().arrival_ps == \
            TimingAnalyzer(nl).analyze().arrival_ps


# ----------------------------------------------------------------------
# Flow-level acceptance: codec vs pickle


def _pickle_codec(mp):
    """Force every layer back onto wholesale pickling."""
    def enc(value):
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    for mod in (cache_mod, resilience_mod):
        mp.setattr(mod, "encode_value", enc)
        mp.setattr(mod, "decode_value", pickle.loads)


def _qor(result):
    return (result.delay_ps, result.power_uw, result.hpwl_um,
            result.routed_wirelength, result.overflow,
            result.instances, result.area_um2)


class TestFlowAcceptance:
    def test_codec_run_bit_identical_to_pickle_run(self, lib):
        options = FlowOptions(scan=True, cts=True)
        with_codec = run(registered_cloud(8, 16, 120, lib, seed=3),
                         lib, options)
        with pytest.MonkeyPatch.context() as mp:
            _pickle_codec(mp)
            with_pickle = run(registered_cloud(8, 16, 120, lib, seed=3),
                              lib, options)
        assert _qor(with_codec) == _qor(with_pickle)
