"""Content-addressed result cache for flow stages.

Keys are a stable SHA-256 over (stage name, canonicalized inputs);
values are encoded stage results held in an in-memory LRU with an
optional on-disk store.  Re-running a sweep with one knob changed only
re-executes the stages whose key inputs actually changed — everything
upstream and sideways replays from cache.

Values travel through the *packed-design codec*
(:func:`encode_value` / :func:`decode_value`): netlists and
placements are framed as columnar ``.pnl`` bytes
(:class:`~repro.netlist.packed.PackedNetlist`) instead of deep
pickles, and everything else falls back to a fixed-protocol pickle.
The run journal (:class:`~repro.orchestrate.resilience.RunJournal`)
keeps its stage blobs in a :class:`ResultCache` too, under the same
content keys, so one encoding is the single design currency
everywhere a design crosses a boundary.  Cache keys for design-bearing
inputs use the canonical
:meth:`~repro.netlist.packed.PackedNetlist.content_digest` (and, for
placements, :meth:`~repro.place.placement.Placement.content_digest`)
rather than a pickle or a per-entry walk, so structurally identical
designs built in different insertion orders share one entry.  Every
``get`` decodes a *fresh copy*, so downstream stages that mutate their
inputs (scan insertion, detailed placement) can never corrupt a cached
result.

Disk entries are *sealed* (:func:`seal_blob`): a header line carries
the SHA-256 of the payload and the entry's own key, so a truncated
write, a flipped bit, or a blob copied under the wrong key is detected
on read.  A bad entry is moved to a ``quarantine/`` sibling (kept for
forensics) and reported as a miss, so the caller recomputes instead of
crashing, and a disk write that fails (a full or read-only disk) keeps
the entry in memory only — the cache can only ever cost a recompute,
never a wrong or aborted run.  Entries publish through
:func:`atomic_write` (tmp, fsync, rename), so a killed writer leaves
the old entry or the new one, never a torn file, and a published
entry is durable.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

_PICKLE_PROTOCOL = 4
_SEAL_MAGIC = b"RC2 "


class CorruptEntry(RuntimeError):
    """A sealed blob failed its checksum, key, or format check."""


def seal_blob(payload: bytes, key: str = "") -> bytes:
    """Frame ``payload`` with a checksum header for on-disk storage.

    Format: ``b"RC2 <sha256hex> <key>\\n" + payload``.  The key rides
    inside the checksummed frame so an entry copied (or written) under
    the wrong name is as detectable as a flipped bit.
    """
    digest = hashlib.sha256(payload).hexdigest()
    return _SEAL_MAGIC + digest.encode() + b" " + key.encode() \
        + b"\n" + payload


def atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via tmp + fsync + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def unseal_blob(data: bytes, key: str = "") -> bytes:
    """Verify and strip a :func:`seal_blob` frame.

    Raises :class:`CorruptEntry` on a missing/garbled header, checksum
    mismatch (truncation, bit flips), or — when ``key`` is given — a
    header key that names a different entry.
    """
    if not data.startswith(_SEAL_MAGIC):
        raise CorruptEntry("unsealed or foreign blob")
    newline = data.find(b"\n")
    if newline < 0:
        raise CorruptEntry("truncated seal header")
    try:
        digest, entry_key = data[len(_SEAL_MAGIC):newline] \
            .decode().split(" ", 1)
    except (UnicodeDecodeError, ValueError) as err:
        raise CorruptEntry("garbled seal header") from err
    if key and entry_key != key:
        raise CorruptEntry(
            f"entry sealed for key {entry_key[:16]}..., "
            f"expected {key[:16]}...")
    payload = data[newline + 1:]
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CorruptEntry("payload checksum mismatch")
    return payload


_CODEC_MAGIC = b"PVC1"
_TAG_NETLIST = b"N"
_TAG_PLACEMENT = b"P"
_TAG_PICKLE = b"G"


def encode_value(value) -> bytes:
    """Frame a stage value for storage or transport.

    Designs go columnar: a :class:`~repro.netlist.circuit.Netlist`
    becomes (pickled library, ``.pnl`` bytes), and a
    :class:`~repro.place.placement.Placement` becomes (pickled
    non-netlist fields + library, ``.pnl`` bytes of its netlist).
    Everything else is pickled, a bare
    :class:`~repro.netlist.packed.PackedNetlist` included (no stage
    returns one).  ``to_packed()`` / ``to_bytes()`` are memoized on
    the design, so the cache blob and the journal blob of one stage
    output share one packing pass.
    """
    from repro.netlist.circuit import Netlist
    if type(value) is Netlist:
        head = pickle.dumps(value.library, protocol=_PICKLE_PROTOCOL)
        return (_CODEC_MAGIC + _TAG_NETLIST
                + len(head).to_bytes(4, "little") + head
                + value.to_packed().to_bytes())
    from repro.place.placement import Placement
    if type(value) is Placement:
        shell = {f.name: getattr(value, f.name)
                 for f in fields(Placement) if f.name != "netlist"}
        head = pickle.dumps((shell, value.netlist.library),
                            protocol=_PICKLE_PROTOCOL)
        return (_CODEC_MAGIC + _TAG_PLACEMENT
                + len(head).to_bytes(4, "little") + head
                + value.netlist.to_packed().to_bytes())
    return _CODEC_MAGIC + _TAG_PICKLE \
        + pickle.dumps(value, protocol=_PICKLE_PROTOCOL)


def decode_value(data: bytes):
    """Invert :func:`encode_value`, yielding a fresh value.

    A blob without the codec frame raises :class:`CorruptEntry` and is
    never unpickled, so the cache and the journal treat it like any
    other damaged entry: quarantine and recompute.
    """
    if not data.startswith(_CODEC_MAGIC):
        raise CorruptEntry("blob lacks the codec frame")
    tag, body = data[4:5], data[5:]
    if tag == _TAG_PICKLE:
        return pickle.loads(body)
    from repro.netlist.packed import PackedNetlist
    if tag == _TAG_NETLIST:
        n = int.from_bytes(body[:4], "little")
        library = pickle.loads(body[4:4 + n])
        return PackedNetlist.from_bytes(body[4 + n:]) \
            .to_netlist(library)
    if tag == _TAG_PLACEMENT:
        from repro.place.placement import Placement
        n = int.from_bytes(body[:4], "little")
        shell, library = pickle.loads(body[4:4 + n])
        netlist = PackedNetlist.from_bytes(body[4 + n:]) \
            .to_netlist(library)
        return Placement(netlist=netlist, **shell)
    raise CorruptEntry(f"unknown codec tag {tag!r}")


def _design_digest(obj) -> str | None:
    """Canonical key material for design-bearing objects, or ``None``.

    Uses the object's own ``content_digest()`` instead of a pickle or
    a field walk, plus its fresh-name counter (stages that generate
    names must not share an entry across different construction
    histories).  A netlist digests its packed form, and a
    :class:`~repro.place.placement.Placement` hashes its netlist's
    digest and counter, its dimensions and its coordinate tables as
    columns in one SHA-256 pass, so a key costs the same few hash
    objects at any design size.
    """
    digest = getattr(obj, "content_digest", None)
    if digest is None:
        return None
    try:
        counter = getattr(obj, "_counter", None)
        if counter is None:
            counter = getattr(obj, "counter", 0)
        return f"design:{digest()}:{int(counter)};"
    except Exception:   # noqa: BLE001 - fall back to the pickle path
        return None


def _update(h, obj) -> None:
    """Feed a canonical byte encoding of ``obj`` into hash ``h``.

    Deterministic for the container/scalar types flows actually pass
    around; dicts hash as sorted (key, value) digests, sets as sorted
    element digests, design-bearing objects (anything exposing
    ``content_digest``) as that canonical digest, dataclasses
    as (qualname, field dict).  Anything else falls back to a
    fixed-protocol pickle, which is stable within a process for
    identically constructed objects.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(f"f:{obj.hex() if obj == obj else 'nan'};".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq:{len(obj)};".encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        digests = sorted(
            (stable_hash(k), stable_hash(v)) for k, v in obj.items())
        h.update(f"map:{len(obj)};".encode())
        for kd, vd in digests:
            h.update(kd.encode())
            h.update(vd.encode())
    elif isinstance(obj, (set, frozenset)):
        h.update(f"set:{len(obj)};".encode())
        for digest in sorted(stable_hash(item) for item in obj):
            h.update(digest.encode())
    elif (design := _design_digest(obj)) is not None:
        h.update(design.encode())
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__qualname__};".encode())
        _update(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    elif hasattr(obj, "tobytes") and hasattr(obj, "dtype"):
        h.update(f"nd:{obj.dtype}:{getattr(obj, 'shape', '')};".encode())
        h.update(obj.tobytes())
    else:
        h.update(b"pkl:")
        h.update(pickle.dumps(obj, protocol=_PICKLE_PROTOCOL))


def stable_hash(obj) -> str:
    """Hex SHA-256 of the canonical encoding of ``obj``."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def stage_key(name: str, inputs: dict) -> str:
    """Cache key for one stage execution."""
    return stable_hash({"stage": name, "inputs": inputs})


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0          # disk entries quarantined on read
    write_failures: int = 0   # puts whose disk write failed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Two-tier (memory LRU over disk) content-addressed store."""

    def __init__(self, max_memory_entries: int = 128, disk_dir=None):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be positive")
        self.max_memory_entries = max_memory_entries
        self.disk_dir = Path(disk_dir) if disk_dir else None
        if self.disk_dir:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict = OrderedDict()
        self.stats = CacheStats()

    def entry_path(self, key: str) -> Path:
        """On-disk location of ``key``'s sealed entry (disk tier only)."""
        return self.disk_dir / f"{key}.pkl"

    # ------------------------------------------------------------------

    def get(self, key: str):
        """``(True, fresh_copy)`` on hit, ``(False, None)`` on miss.

        A disk entry that fails verification (truncated, bit-flipped,
        sealed under another key, or unpicklable) is quarantined and
        reported as a miss — the stage recomputes and overwrites it.
        """
        blob = self._memory.get(key)
        if blob is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return True, decode_value(blob)
        if self.disk_dir:
            path = self.entry_path(key)
            if path.exists():
                try:
                    blob = unseal_blob(path.read_bytes(), key)
                    value = decode_value(blob)
                except Exception:   # noqa: BLE001 - CorruptEntry,
                    # PackError, or any unpickling error: recompute.
                    self._quarantine(path)
                else:
                    self._remember(key, blob)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    return True, value
        self.stats.misses += 1
        return False, None

    def put(self, key: str, value) -> bool:
        """Store a result under its content key in both tiers; returns
        whether it reached both.  A disk write that raises ``OSError``
        costs only the disk copy (``stats.write_failures`` counts it)."""
        blob = encode_value(value)
        self._remember(key, blob)
        self.stats.puts += 1
        if self.disk_dir:
            try:
                atomic_write(self.entry_path(key), seal_blob(blob, key))
            except OSError:
                self.stats.write_failures += 1
                return False
        return True

    def _quarantine(self, path: Path) -> None:
        """Move a bad disk entry aside (kept for forensics) so the next
        ``put`` can republish a clean one."""
        self.stats.corrupt += 1
        qdir = self.disk_dir / "quarantine"
        qdir.mkdir(exist_ok=True)
        try:
            os.replace(path, qdir / path.name)
        except OSError:        # pragma: no cover - racing quarantines
            path.unlink(missing_ok=True)

    def _remember(self, key: str, blob: bytes) -> None:
        self._memory[key] = blob
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (disk files are left in place)."""
        self._memory.clear()
