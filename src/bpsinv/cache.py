"""Content-addressed result cache.

Keys hash the canonical JSON of (operation, parameters, cutoff, format
version); values are serialized results.  An entry is a header line holding
the format version, its key and the sha256 of the serialized value that
follows; a read checks all three, so an edited or misfiled entry is a miss
and is recomputed (a writer who also rewrites the digest is not caught).  Disk
writes are atomic (write-temp-then-rename), so concurrent jobs can share a
cache directory.  Warm reads must reserialize bit-identically to the cold
computation."""

import hashlib
import json
import os
import tempfile

from .serialize import FORMAT_VERSION, dumps


class ResultCache:
    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("BPSINV_CACHE_DIR") or None
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    @staticmethod
    def key_of(op, params):
        payload = dumps({"op": op, "params": params,
                         "version": FORMAT_VERSION})
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    @staticmethod
    def _header(key, body):
        digest = hashlib.sha256(body.encode()).hexdigest()
        return {"version": FORMAT_VERSION, "key": key, "sha256": digest}

    def get(self, key):
        if not self.directory:
            return None
        try:
            with open(self._path(key)) as fh:
                head, body = fh.read().split("\n", 1)
            if json.loads(head) == self._header(key, body):
                return json.loads(body)["value"]
        except (OSError, ValueError):
            # a missing, unreadable or truncated entry is a miss; the caller
            # recomputes and rewrites it
            pass
        # so is an entry filed under another key or edited after writing
        return None

    def put(self, key, value):
        if not self.directory:
            return
        body = dumps({"version": FORMAT_VERSION, "value": value})
        blob = json.dumps(self._header(key, body)) + "\n" + body
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
