"""On-disk result store: append-only JSONL keyed by run content hash.

Each completed run is one line in ``<dir>/results.jsonl``::

    {"key": "<sha256>", "scenario": ..., "params": {...}, "seed": ...,
     "version": "...", "record": {...}}

The store is crash-tolerant by construction: lines are appended and
flushed one at a time, and a truncated final line (interrupted write)
is ignored on load — so a killed campaign resumes from its last whole
result.  Re-putting a key appends a new line; the latest line wins on
load, which keeps the file append-only while allowing refreshes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.exp.jsonio import dumps_strict

RESULTS_FILENAME = "results.jsonl"


def read_envelopes(path: str) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """The latest envelope per key, in first-seen key order, and the
    number of malformed lines skipped (a missing file holds none)."""
    records: Dict[str, Dict[str, Any]] = {}
    skipped = 0
    if not os.path.exists(path):
        return records, skipped
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                envelope = json.loads(line)
                key = envelope["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                # Tolerate a partial trailing line from an interrupted
                # run; anything before it is intact.
                skipped += 1
                continue
            records[key] = envelope
    return records, skipped


class ResultStore:
    """Cache of completed run envelopes under a campaign directory."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, RESULTS_FILENAME)
        self._records, self._skipped_lines = read_envelopes(self.path)
        self._stream = open(self.path, "a", encoding="utf-8")
        # A crash mid-append leaves a partial line with no terminator;
        # close it off so the next append starts on a fresh line (the
        # malformed line is already ignored by _load).
        if self._stream.tell() > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    self._stream.write("\n")
                    self._stream.flush()

    # -- mapping interface ---------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored envelope for ``key``, or None on a cache miss."""
        return self._records.get(key)

    def put(self, key: str, envelope: Dict[str, Any]) -> None:
        """Persist ``envelope`` under ``key`` (flushed immediately).

        Serialised strictly (RFC 8259): a non-finite float in a record
        becomes ``null`` rather than a ``NaN`` literal that would break
        every non-Python consumer of the JSONL.
        """
        if self._stream.closed:
            raise ValueError("store is closed")
        payload = dict(envelope)
        payload["key"] = key
        self._stream.write(dumps_strict(payload, sort_keys=True) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._records[key] = payload

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    @property
    def skipped_lines(self) -> int:
        """Malformed lines ignored on load (normally 0, 1 after a crash)."""
        return self._skipped_lines

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<ResultStore {self.path!r} entries={len(self._records)}>"
