"""Content-addressed on-disk result cache for campaign cells.

Each scenario's result is stored under the SHA-256 of its canonical
spec plus a *code-version salt*: bump :data:`CACHE_SALT` whenever cell
semantics change and every prior entry silently becomes a miss — no
eviction scan, no version checks at read time.

Layout (two-level fan-out to keep directories small)::

    <root>/<digest[:2]>/<digest>.json

Entries are self-describing JSON documents carrying the canonical spec
text next to the result, so a cache directory can be audited with
nothing but ``jq``.  Writes are atomic (temp file + ``os.replace``) so
parallel workers and concurrent campaigns never observe torn entries.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Dict, Optional, Union

from repro.campaign.spec import ScenarioSpec
from repro.obs import clock

PathLike = Union[str, pathlib.Path]

#: Code-version salt mixed into every cache key.  Bump when the
#: semantics of any registered cell change: old entries then miss.
CACHE_SALT = "repro-campaign-v2"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/campaigns``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "campaigns"


class ResultCache:
    """Content-addressed store of per-scenario results.

    Args:
        root: Cache directory (created lazily on first write).
        salt: Code-version salt; see :data:`CACHE_SALT`.
    """

    def __init__(self, root: Optional[PathLike] = None, salt: str = CACHE_SALT):
        self.root = pathlib.Path(root) if root is not None else default_cache_root()
        self.salt = salt

    # -- addressing ------------------------------------------------------------

    def key(self, spec: ScenarioSpec) -> str:
        return spec.digest(self.salt)

    def path_for(self, spec: ScenarioSpec) -> pathlib.Path:
        digest = self.key(spec)
        return self.root / digest[:2] / f"{digest}.json"

    # -- read/write ------------------------------------------------------------

    def get(self, spec: ScenarioSpec) -> Optional[Dict]:
        """The cached result for ``spec``, or ``None`` on a miss.

        Corrupt entries (torn writes from killed processes, manual
        edits) count as misses and are removed.
        """
        path = self.path_for(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            result = payload["result"]
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return result

    def put(self, spec: ScenarioSpec, result: Dict) -> pathlib.Path:
        """Store a result; returns the entry path."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "digest": self.key(spec),
            "salt": self.salt,
            "spec": json.loads(spec.canonical()),
            "stored_unix": clock.wall_time(),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def contains(self, spec: ScenarioSpec) -> bool:
        return self.path_for(spec).is_file()

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
