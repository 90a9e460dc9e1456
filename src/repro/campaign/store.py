"""On-disk result store with content-addressed caching and integrity.

Each finished run is persisted as one record of the append-only segment
``runs.jsonl``, under a ``key`` that is a
:func:`repro.obs.manifest.fingerprint` over everything that determines
the result: the resolved scenario, the workload spec, the slot budget,
the run's seed entropy, and the package version.  Identity by content
means:

* an interrupted campaign resumes by skipping every key already in the
  segment -- no journal, no partial-state file to reconcile;
* two campaigns sharing grid points share cached runs;
* any change to the config, the seed derivation, or the code version
  changes the key and forces a re-run instead of serving stale rows.

Record contract
---------------

One line per finished run, fields in this order::

    {"key":"<key>","payload":<canonical JSON>,"sha256":"<hex digest>"}

``payload`` is the document in :func:`repro.obs.manifest.canonical_json`
form and ``sha256`` is taken over exactly those payload bytes.  A record
is built from one canonical encode and appended with one ``write`` to an
``O_APPEND`` descriptor.  The *last* record of a key wins, so a re-run
replaces a damaged record by appending.  A writer killed mid-record
leaves a torn last line: it is never indexed (the run reads as "not
cached"), and the next append starts with a newline that fences it off.

The store keeps only ``key -> (offset, length)`` in memory, from one scan
when it is opened plus its own appends.  Every :meth:`ResultStore.load`
and :meth:`ResultStore.is_valid` reads the record's bytes back from disk
and verifies line shape, key and checksum at that moment, raising
:class:`StoreIntegrityError` (or answering ``False``) on any mismatch --
so a corrupt record forces a re-run instead of poisoning the report.
:meth:`ResultStore.fsck` verifies every line of the segment and (with
``repair=True``) rewrites it atomically, keeping the latest verified
record of each key.

Quarantine documents -- the structured failure records the executor
writes for runs that exhausted their attempt budget -- live one file
each under ``failed/<key>.json`` (a rare path), as checksummed
``{"payload": ..., "sha256": ...}`` envelopes written tmp-then-rename,
strictly separate from results so a failure can never be served as a
row.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.grid import RunSpec
from repro.campaign.spec import Campaign
from repro.obs.manifest import _json_default, canonical_json


class StoreError(RuntimeError):
    """A result-store operation failed (bad snapshot, unreadable file)."""


class StoreIntegrityError(StoreError):
    """A store record or file is corrupt, truncated, or fails its
    checksum.

    Carries the offending :attr:`path` (the segment, for a run record)
    so tooling and the error message can point straight at the damage.
    """

    def __init__(self, path: Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(
            f"corrupt store entry {self.path}: {reason}; run "
            "`repro campaign fsck --store <dir>` to scan the store, or "
            "add --repair to evict damaged entries and force a re-run"
        )


def run_key(spec: RunSpec) -> str:
    """The content-addressed cache key of one run.

    Deliberately excludes the campaign *name* (two campaigns asking for
    the same (config, workload, slots, seed) at the same code version
    describe the same run and share its cached result), the
    :class:`~repro.campaign.spec.RetryPolicy`, and the engine selection
    (host-side execution knobs cannot change a deterministic run's
    result -- the python and vector engines are bit-identical by
    contract, so either may serve a cached entry).
    """
    return spec.key


def _payload_digest(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of a document payload."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# -- segment records ---------------------------------------------------

_KEY_RE = re.compile(rb'\{"key":("(?:[^"\\]|\\.)*"),')
_RECORD_RE = re.compile(
    _KEY_RE.pattern + rb'"payload":(.*),"sha256":"([0-9a-f]{64})"\}\n'
)


def _encode_record(key: str, payload: dict[str, Any]) -> bytes:
    """One segment line for a finished run (see *Record contract*)."""
    body = canonical_json(payload)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return (
        f'{{"key":{json.dumps(key)},"payload":{body},"sha256":"{digest}"}}\n'
    ).encode()


def _decode_record(line: bytes) -> tuple[str, bytes]:
    """``(key, payload bytes)`` of one segment line, shape and checksum
    verified; ``ValueError`` with the reason otherwise."""
    match = _RECORD_RE.fullmatch(line)
    if match is None:
        raise ValueError("truncated or invalid record")
    key_json, body, stored = match.groups()
    digest = hashlib.sha256(body).hexdigest()
    if digest != stored.decode():
        raise ValueError(
            f"checksum mismatch (stored {stored[:12].decode()}..., "
            f"computed {digest[:12]}...)"
        )
    return json.loads(key_json), body


def _record_key(line: bytes) -> str | None:
    """The key a line claims (its first field), readable even when the
    rest of the record is damaged; ``None`` if not even that survives."""
    match = _KEY_RE.match(line)
    if match is None:
        return None
    try:
        key: str = json.loads(match.group(1))
    except ValueError:  # a bad escape or non-UTF-8 byte inside the quotes
        return None
    return key


def _lines(data: bytes) -> Iterator[tuple[int, bytes]]:
    """``(offset, line)`` for every line of a segment, newline included;
    a torn tail comes last, without one."""
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset) + 1 or len(data)
        yield offset, data[offset:end]
        offset = end


@dataclass(frozen=True)
class FsckReport:
    """What one :meth:`ResultStore.fsck` scan found (and removed)."""

    #: Records examined: segment lines, quarantine files, and the spec
    #: snapshot if present.
    scanned: int
    #: Records that parsed and passed their checksum.
    ok: int
    #: Pre-checksum quarantine documents accepted as-is (no digest to
    #: verify).
    legacy: int
    #: ``(location, reason)`` for every damaged record found; a segment
    #: line is located as ``<segment path>@<byte offset>``.
    corrupt: tuple[tuple[str, str], ...] = ()
    #: Damaged records removed (only with ``repair=True``).
    repaired: tuple[str, ...] = ()
    #: Leftover ``*.tmp`` files from interrupted writes (always safe to
    #: remove; deleted with ``repair=True``).
    stray_tmp: tuple[str, ...] = ()
    #: Verified segment records shadowed by a later record of the same
    #: key (harmless; dropped with ``repair=True``).
    superseded: int = 0

    @property
    def clean(self) -> bool:
        """Whether the store holds no damaged entries (after any repair)."""
        return not self.corrupt or len(self.repaired) == len(self.corrupt)


class ResultStore:
    """Directory-backed store of finished campaign runs.

    Layout::

        <root>/
          campaign.json        # spec snapshot of the last campaign run here
          runs.jsonl           # one checksummed record per completed run
          failed/<key>.json    # quarantine record per poisoned run

    One process appends to a store at a time (the executor's workers
    hand results back to the supervisor, which is the only writer), and
    ``fsck --repair`` must not run against a store a campaign is writing.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_path = self.root / "runs.jsonl"
        self.failed_dir = self.root / "failed"
        #: Whether a quarantine record can exist (``failed/`` was there
        #: when the store was opened, or this instance wrote one).
        self._failures_seen = self.failed_dir.is_dir()
        self._open_segment()
        self._import_legacy_runs()

    # -- campaign snapshot ---------------------------------------------

    @property
    def spec_path(self) -> Path:
        """Where the campaign spec snapshot lives in this store."""
        return self.root / "campaign.json"

    def save_campaign(self, campaign: Campaign) -> Path:
        """Snapshot the campaign spec (so ``status``/``report`` need only
        the store directory).  Stored as plain JSON (no checksum
        envelope): the snapshot is meant to be humanly inspectable and
        is fully validated by ``Campaign.from_dict`` on load."""
        return self._write_json(self.spec_path, campaign.to_dict())

    def load_campaign(self) -> Campaign:
        """The campaign last saved into this store.

        Raises :class:`StoreIntegrityError` (not a bare
        ``JSONDecodeError``) when the snapshot is truncated or
        hand-edited into invalid JSON.
        """
        if not self.spec_path.exists():
            raise FileNotFoundError(
                f"no campaign snapshot at {self.spec_path}; "
                "run the campaign (or pass --spec) first"
            )
        try:
            raw = json.loads(self.spec_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreIntegrityError(
                self.spec_path, f"invalid JSON ({exc})"
            ) from exc
        return Campaign.from_dict(raw)

    # -- run rows -------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def save(self, key: str, row: dict[str, Any]) -> None:
        """Append one finished run's record (a single ``write``).

        A successful save also clears any quarantine record left by
        earlier failed attempts of the same run.
        """
        record = _encode_record(key, row)
        # A torn tail from a killed writer is fenced off by a leading
        # newline, inside the same write.
        data = b"\n" + record if self._torn else record
        if os.write(self._fd, data) != len(data):
            self._torn = True
            raise StoreError(
                f"short write to {self.segment_path} (disk full?)"
            )
        self._torn = False
        end = os.lseek(self._fd, 0, os.SEEK_CUR)
        self._index[key] = (end - len(record), len(record))
        self.clear_failure(key)

    def load(self, key: str) -> dict[str, Any]:
        """Load one cached run's document back, verifying its checksum.

        Raises ``KeyError`` for a key the store does not hold and
        :class:`StoreIntegrityError` for a record that is torn,
        overwritten, filed under another key, or fails its digest.
        """
        payload: dict[str, Any] = json.loads(self._read_verified(key))
        return payload

    def is_valid(self, key: str) -> bool:
        """Whether a cached record exists *and* passes verification.

        The executor's resume scan uses this: a damaged record reads as
        "not cached" and is recomputed (the appended re-run supersedes
        it), instead of surfacing as a corrupt report row.
        """
        try:
            self._read_verified(key)
        except (KeyError, StoreError):
            return False
        return True

    def keys(self) -> list[str]:
        """Keys of every cached run, sorted (content order, not grid
        order -- the report re-orders via the grid)."""
        return sorted(self._index)

    def __len__(self) -> int:
        return len(self._index)

    # -- quarantine records ---------------------------------------------

    def failure_path_for(self, key: str) -> Path:
        """The file one run's quarantine record lives at."""
        return self.failed_dir / f"{key}.json"

    def save_failure(self, key: str, doc: dict[str, Any]) -> Path:
        """Persist a structured quarantine record for a poisoned run."""
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        self._failures_seen = True
        return self._write_document(self.failure_path_for(key), doc)

    def load_failure(self, key: str) -> dict[str, Any]:
        """Load one quarantine record back (checksum-verified)."""
        return self._read_document(self.failure_path_for(key))

    def failure_keys(self) -> list[str]:
        """Keys of every quarantined run, sorted."""
        if not self.failed_dir.is_dir():
            return []
        return sorted(p.stem for p in self.failed_dir.glob("*.json"))

    def clear_failure(self, key: str) -> None:
        """Drop a run's quarantine record (no-op when absent -- and no
        filesystem call at all while no ``failed/`` has been seen)."""
        if self._failures_seen:
            self.failure_path_for(key).unlink(missing_ok=True)

    # -- integrity ------------------------------------------------------

    def fsck(self, repair: bool = False) -> FsckReport:
        """Verify every record; with ``repair`` drop the damaged ones.

        Checks the spec snapshot (valid JSON + a loadable campaign),
        every line of the segment (shape + checksum), every quarantine
        record (valid JSON + checksum), and reports stray ``*.tmp``
        files from interrupted writes.  ``repair=True`` rewrites the
        segment atomically (tmp + rename) with only the latest verified
        record of each key -- damaged and superseded lines go -- and
        deletes damaged quarantine files and stray tmp files.  Nothing
        is ever patched: a dropped run is simply recomputed by the next
        ``campaign run``.
        """
        scanned = ok = legacy = 0
        corrupt: list[tuple[str, str]] = []
        repaired: list[str] = []
        damaged_files: list[Path] = []

        def _damaged(path: Path, reason: str) -> None:
            corrupt.append((str(path), reason))
            damaged_files.append(path)

        def _check(path: Path) -> None:
            nonlocal scanned, ok, legacy
            scanned += 1
            try:
                raw = json.loads(path.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
                _damaged(path, f"invalid JSON ({exc})")
                return
            if not (isinstance(raw, dict) and "sha256" in raw):
                legacy += 1
                return
            payload = raw.get("payload")
            if not isinstance(payload, dict):
                _damaged(path, "envelope has no payload object")
                return
            digest = _payload_digest(payload)
            if digest != raw["sha256"]:
                _damaged(
                    path,
                    f"checksum mismatch (stored {raw['sha256'][:12]}..., "
                    f"computed {digest[:12]}...)",
                )
                return
            ok += 1

        if self.spec_path.exists():
            scanned += 1
            try:
                Campaign.from_dict(json.loads(self.spec_path.read_text()))
                ok += 1
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
                corrupt.append((str(self.spec_path), f"invalid JSON ({exc})"))
            except (ValueError, TypeError, KeyError) as exc:
                corrupt.append(
                    (str(self.spec_path), f"not a valid campaign spec ({exc})")
                )

        #: Latest verified record per key as ``(offset, length)``, in the
        #: order the survivors appear in the segment.
        live: dict[str, tuple[int, int]] = {}
        damaged: list[tuple[int, str, str | None]] = []
        superseded = 0
        data = self._read_segment()
        for offset, line in _lines(data):
            scanned += 1
            try:
                key, _body = _decode_record(line)
            except ValueError as exc:
                damaged.append((offset, str(exc), _record_key(line)))
                continue
            ok += 1
            if live.pop(key, None) is not None:
                superseded += 1
            live[key] = (offset, len(line))
        damaged_lines: list[str] = []
        for offset, reason, claimed in damaged:
            where = f"{self.segment_path}@{offset}"
            if claimed is not None:
                healed = claimed in live and live[claimed][0] > offset
                reason += f" (key {claimed}" + (
                    ", superseded by a later record)" if healed else ")"
                )
            damaged_lines.append(where)
            corrupt.append((where, reason))
        if self.failed_dir.is_dir():
            for path in sorted(self.failed_dir.glob("*.json")):
                _check(path)

        stray = [
            str(p)
            for p in sorted(self.root.rglob("*.tmp"))
        ]
        if repair:
            # The snapshot is the campaign's identity; evict data only,
            # and let the user replace a broken snapshot by re-running
            # with --spec.
            if damaged_lines or superseded:
                self._rewrite_segment(
                    data[offset:offset + length]
                    for offset, length in live.values()
                )
                repaired.extend(damaged_lines)
            for path in damaged_files:
                path.unlink(missing_ok=True)
                repaired.append(str(path))
            for path_str in stray:
                Path(path_str).unlink(missing_ok=True)
        return FsckReport(
            scanned=scanned,
            ok=ok,
            legacy=legacy,
            corrupt=tuple(corrupt),
            repaired=tuple(repaired),
            stray_tmp=tuple(stray),
            superseded=superseded,
        )

    # -- internals ------------------------------------------------------

    def _open_segment(self) -> None:
        """Open the segment for appending and index it with one scan.

        The index maps each key to the ``(offset, length)`` of its last
        complete line; it carries no verdict -- reads verify.
        """
        self._fd = os.open(
            self.segment_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._close_segment = weakref.finalize(self, os.close, self._fd)
        self._index: dict[str, tuple[int, int]] = {}
        self._torn = False
        for offset, line in _lines(self._read_segment()):
            if not line.endswith(b"\n"):
                self._torn = True  # fenced off by the next save
                break
            key = _record_key(line)
            if key is not None:
                self._index[key] = (offset, len(line))

    def _read_segment(self) -> bytes:
        with open(self._fd, "rb", closefd=False) as segment:
            segment.seek(0)
            return segment.read()

    def _read_verified(self, key: str) -> bytes:
        """The payload bytes of a key's record, re-read from disk and
        verified now; ``KeyError`` if the store has no such record."""
        offset, length = self._index[key]
        try:
            found, body = _decode_record(os.pread(self._fd, length, offset))
            if found != key:
                raise ValueError(f"record is filed under key {found!r}")
        except ValueError as exc:
            raise StoreIntegrityError(
                self.segment_path, f"record {key!r} at byte {offset}: {exc}"
            ) from exc
        return body

    def _rewrite_segment(self, lines: Iterable[bytes]) -> None:
        """Atomically replace the segment with just ``lines``."""
        tmp = self.segment_path.with_name(self.segment_path.name + ".tmp")
        tmp.write_bytes(b"".join(lines))
        os.replace(tmp, self.segment_path)
        self._close_segment()
        self._open_segment()

    def _import_legacy_runs(self) -> None:
        """One-shot import of a file-per-run ``runs/`` directory (the
        layout before the segment): every document that passes the
        envelope check becomes a record, then the directory goes.
        Damaged documents are dropped -- their runs are recomputed."""
        legacy_dir = self.root / "runs"
        if not legacy_dir.is_dir():
            return
        for path in sorted(legacy_dir.glob("*.json")):
            try:
                payload = self._read_document(path)
            except (StoreError, FileNotFoundError):
                continue
            self.save(path.stem, payload)
        shutil.rmtree(legacy_dir)

    def _write_document(self, path: Path, payload: dict[str, Any]) -> Path:
        """Atomic write of a checksummed document envelope."""
        return self._write_json(
            path, {"payload": payload, "sha256": _payload_digest(payload)}
        )

    def _read_document(self, path: Path) -> dict[str, Any]:
        """Read a document back, verifying envelope + checksum."""
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:
            raise StoreIntegrityError(path, f"unreadable ({exc})") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(
                path, f"truncated or invalid JSON ({exc})"
            ) from exc
        if not isinstance(raw, dict):
            raise StoreIntegrityError(path, "document is not a JSON object")
        if "sha256" not in raw:
            # Pre-integrity-layer document: nothing to verify against.
            return raw
        payload = raw.get("payload")
        if not isinstance(payload, dict):
            raise StoreIntegrityError(path, "envelope has no payload object")
        digest = _payload_digest(payload)
        if digest != raw["sha256"]:
            raise StoreIntegrityError(
                path,
                f"checksum mismatch (stored {str(raw['sha256'])[:12]}..., "
                f"computed {digest[:12]}...)",
            )
        return payload

    def _write_json(self, path: Path, payload: dict[str, Any]) -> Path:
        """Atomic JSON write: tmp sibling + rename."""
        text = json.dumps(
            payload, indent=2, sort_keys=True, default=_json_default
        )
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text + "\n")
        os.replace(tmp, path)
        return path
