"""Content-addressed result cache.

Keys hash the canonical JSON of (operation, parameters, cutoff, format
version); values are serialized results.  Disk writes are atomic
(write-temp-then-rename), so concurrent jobs can share a cache directory.
Warm reads must reserialize bit-identically to the cold computation."""

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

    def get(self, key):
        if not self.directory:
            return None
        try:
            with open(self._path(key)) as fh:
                obj = json.load(fh)
        except (OSError, ValueError):
            # a missing, unreadable or truncated entry is a miss; the caller
            # recomputes and rewrites it
            return None
        if not (isinstance(obj, dict) and "value" in obj
                and obj.get("version") == FORMAT_VERSION):
            return None
        return obj["value"]

    def put(self, key, value):
        if not self.directory:
            return
        blob = dumps({"version": FORMAT_VERSION, "value": value})
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob)
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
