"""Canonical run keys: the canonicalizer behind every run identity.

:meth:`repro.grid.spec.RunSpec.content_key` is the one answer to "are
these two run requests the same run?" — for the on-disk store of
:mod:`repro.grid.store`, the scheduler's deduplication, and the
per-process caches behind :class:`~repro.harness.runner.Runner`.  This
module supplies its parts:

* :func:`jsonable` produces the canonical JSON-safe form of an
  overrides mapping or any nested structure of dicts / lists / tuples /
  sets (sets become tagged sorted lists, so a set and a list never
  collide; ``1``, ``1.0`` and ``True`` stay apart);
* :func:`content_key` hashes the *full* machine configuration plus the
  workload / preset / overrides and a schema + code version stamp into
  a stable hex digest — the address of a result in the on-disk store.

The schema stamp (:data:`SCHEMA_VERSION`) must be bumped whenever the
meaning of a stored result changes: a new ``RunResult`` field, a change
to simulator semantics that alters measurements, or a change to the key
payload itself.  Bumping it orphans (but does not delete) every old
record; ``python -m repro grid clear`` reclaims the space.
"""

from __future__ import annotations

import enum
import hashlib
import json

#: Version stamp mixed into every content key.  Bump on any change to
#: the stored-result schema or to simulator semantics (see module doc).
SCHEMA_VERSION = 1

#: Tag marking a set in the canonical JSON form; dicts containing this
#: key cannot be confused with it because dict keys stay strings.
_SET_TAG = "__repro_set__"


def jsonable(value):
    """The canonical JSON-safe form of ``value``.

    Returns a structure ``json.dumps`` accepts with no custom encoder:
    dicts keep string keys, sets become ``[_SET_TAG, ...sorted items]``,
    tuples become lists, enum members become their values.  Other
    leaves must be JSON scalars (str / int / float / bool / None);
    anything else raises :class:`TypeError`.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(),
                                                       key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = sorted((repr(v), jsonable(v)) for v in value)
        return [_SET_TAG] + [item for _, item in items]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    raise TypeError(
        f"cannot serialize run-key leaf {value!r} of type "
        f"{type(value).__name__}; use JSON-compatible scalars"
    )


def canonical_json(payload) -> str:
    """Deterministic JSON text for ``payload`` (sorted keys, no spaces)."""
    return json.dumps(jsonable(payload), sort_keys=True,
                      separators=(",", ":"))


def content_key(payload) -> str:
    """Stable sha256 hex digest of a canonicalized key payload.

    The caller supplies the payload dict (full config, workload, preset,
    overrides); this function mixes in :data:`SCHEMA_VERSION` and the
    package version so results recorded by incompatible code never
    collide with fresh ones.
    """
    import repro

    stamped = {
        "schema": SCHEMA_VERSION,
        "code": repro.__version__,
        "payload": payload,
    }
    digest = hashlib.sha256(canonical_json(stamped).encode("utf-8"))
    return digest.hexdigest()


__all__ = ["SCHEMA_VERSION", "jsonable", "canonical_json", "content_key"]
