"""Content-addressed result cache.

Keys hash the canonical JSON of (operation, parameters, cutoff, format
version); values are the JSON text of results.  An entry is a header line
holding the format version, its key and the sha256 of the body that
follows; a read checks all three, so an edited or misfiled entry is a miss
and is recomputed (a writer who also rewrites the digest is not caught).  The
body is the value text inside a fixed envelope, ``{"version":V,"value":...}``,
and a hit returns that text as it is, with no parsing: the same bytes the
cold computation printed.  Entries of the earlier layout, whose envelope put
"value" first, read as misses and are rewritten.  An entry is read in binary
and decoded as UTF-8 once, so a header line ending in "\\r\\n" or a body that
is not UTF-8 is a miss too.  A hit opens only the entry: the directory is
made by ``make_directory`` on a miss, before the result is computed.
Disk writes are atomic (write-temp-then-rename), so concurrent jobs can
share a cache directory.  A write that fails (a full disk, a read-only
mount, a directory at the entry's path) stores nothing and raises nothing,
as a failed read is a miss."""

import hashlib
import os
import tempfile

from .serialize import FORMAT_VERSION, dumps

_ENVELOPE = '{"version":%d,"value":' % FORMAT_VERSION


class ResultCache:
    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("BPSINV_CACHE_DIR") or None
        self.directory = directory

    def make_directory(self):
        """Create the cache directory if it is missing.  Raises OSError when
        it cannot be created or is not a directory."""
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)

    @staticmethod
    def key_of(op, params):
        payload = dumps({"op": op, "params": params,
                         "version": FORMAT_VERSION})
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    @staticmethod
    def _header(key, body):
        """The header line: the text ``json.dumps`` gives for the version,
        the key and the body's digest, since keys are hex digests."""
        digest = hashlib.sha256(body.encode()).hexdigest()
        return '{"version": %d, "key": "%s", "sha256": "%s"}' % (
            FORMAT_VERSION, key, digest)

    def get(self, key):
        """The value text stored under ``key``, or None on a miss."""
        if not self.directory:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                head, body = fh.read().decode().split("\n", 1)
            if (head == self._header(key, body)
                    and body.startswith(_ENVELOPE) and body.endswith("}")):
                return body[len(_ENVELOPE):-1]
        except (OSError, ValueError):
            # a missing, unreadable, undecodable or truncated entry is a
            # miss; the caller recomputes and rewrites it
            pass
        # so is an entry filed under another key or edited after writing
        return None

    def put(self, key, text):
        """Store the value text ``text`` under ``key``."""
        if not self.directory:
            return
        body = _ENVELOPE + text + "}"
        blob = self._header(key, body) + "\n" + body
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob.encode())
            os.replace(tmp, self._path(key))
        except OSError:
            pass
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
