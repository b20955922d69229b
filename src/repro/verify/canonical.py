"""Canonical JSON: one deterministic byte encoding per pipeline value.

Every conformance feature in :mod:`repro.verify` reduces to the same
question — *are these two pipeline values the same result?* — and the
only robust way to answer it across processes, worker counts, and cache
states is to map each value onto one canonical, JSON-compatible tree and
compare (or hash) that.  This module owns the mapping:

- :func:`canonicalize` folds any value the analysis registry produces —
  dataclasses, enums, sets, tuples, bytes, nested object graphs like
  :class:`~repro.core.chains.ValidationSurvey` — into plain
  JSON-compatible data, deterministically.  Container types are
  normalized (tuples become lists, sets are sorted, dict entries are
  sorted by an encoded key), objects are expanded by type with their
  fields sorted, and long byte strings collapse to a SHA-256 so a
  certificate chain never bloats a snapshot.
- :func:`canonical_bytes` / :func:`digest` serialize that tree with
  fixed ``json.dumps`` settings (sorted keys, tight separators, ASCII
  only, NaN forbidden), so equal values produce equal bytes on any
  platform.
- :func:`first_divergence` walks two canonical trees in lockstep and
  names the first path where they disagree — the structured diff the
  baseline checker and the equivalence matrix render, instead of a bare
  "mismatch".

Volatile telemetry: a few fields measure the *run* rather than the
*study* (wall-clock inside :meth:`ProbeStatsSnapshot.to_json`).  Keys listed in
:data:`VOLATILE_KEYS` are scrubbed to a placeholder during
canonicalization so byte-identity claims quantify results, not timings.
"""

import dataclasses
import enum
import hashlib
import json

#: dict keys whose values measure wall-clock (or otherwise vary between
#: byte-identical runs); scrubbed during canonicalization.
VOLATILE_KEYS = frozenset({"wall_seconds"})

#: replaces every scrubbed value, so presence is still visible.
VOLATILE_PLACEHOLDER = "<volatile>"

#: bytes longer than this are collapsed to their SHA-256.
_BYTES_INLINE_LIMIT = 64


def canonicalize(value):
    """Fold ``value`` into a deterministic JSON-compatible tree.

    Two values canonicalize to the same tree iff the conformance
    harness considers them the same result.
    """
    return _fold(value, seen=())


def _fold(value, seen):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # JSON has no NaN/Infinity; encode them as tagged strings so
        # canonical_bytes never needs allow_nan.
        if value != value:
            return {"__float__": "nan"}
        if value in (float("inf"), float("-inf")):
            return {"__float__": repr(value)}
        return value
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        if len(data) <= _BYTES_INLINE_LIMIT:
            return {"__bytes__": data.hex()}
        return {"__bytes_sha256__": hashlib.sha256(data).hexdigest(),
                "length": len(data)}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    ident = id(value)
    if ident in seen:  # cyclic object graph: terminate, deterministically
        return {"__cycle__": type(value).__name__}
    seen = seen + (ident,)
    if isinstance(value, dict):
        entries = []
        for key, item in value.items():
            encoded_key = _key_text(key)
            folded = (VOLATILE_PLACEHOLDER
                      if isinstance(key, str) and key in VOLATILE_KEYS
                      else _fold(item, seen))
            entries.append((encoded_key, folded))
        entries.sort(key=lambda pair: pair[0])
        return dict(entries)
    if isinstance(value, (list, tuple)):
        return [_fold(item, seen) for item in value]
    if isinstance(value, (set, frozenset)):
        folded = [_fold(item, seen) for item in value]
        return {"__set__": sorted(folded, key=_sort_text)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _fold(getattr(value, f.name), seen)
                  for f in dataclasses.fields(value)
                  if f.name not in VOLATILE_KEYS}
        return {"__dataclass__": type(value).__name__, "fields": fields}
    state = getattr(value, "__dict__", None)
    if state is not None:
        fields = {name: _fold(item, seen)
                  for name, item in sorted(state.items())
                  if name not in VOLATILE_KEYS}
        return {"__object__": type(value).__name__, "fields": fields}
    # Last resort (slotted/opaque objects): repr is assumed stable for
    # the value types the pipeline produces.
    return {"__repr__": repr(value)}


def _key_text(key):
    """A deterministic string encoding of an arbitrary dict key."""
    if isinstance(key, str):
        return key
    return _dumps(_fold(key, seen=()))


def _sort_text(folded):
    """A total order over folded values (for set canonicalization)."""
    return _dumps(folded)


def _dumps(tree):
    return json.dumps(tree, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def canonical_bytes(value):
    """The canonical UTF-8 byte serialization of ``value``."""
    return _dumps(canonicalize(value)).encode("utf-8")


def digest(value):
    """SHA-256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


# --- structured diff -----------------------------------------------------------------


def _preview(tree, limit=80):
    text = _dumps(tree)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def first_divergence(expected, actual, path="$"):
    """The first path where two canonical trees disagree, or ``None``.

    Returns a ``(path, detail)`` pair; ``path`` is a JSONPath-ish
    locator (``$.fields.matched.f1``) and ``detail`` one human line.
    Dict keys are visited in sorted order and lists by index, so "first"
    is deterministic.
    """
    if type(expected) is not type(actual):
        return (path, f"type changed: {type(expected).__name__} -> "
                      f"{type(actual).__name__}")
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                return (f"{path}.{key}",
                        f"missing (baseline has {_preview(expected[key])})")
            if key not in expected:
                return (f"{path}.{key}",
                        f"unexpected (run has {_preview(actual[key])})")
            found = first_divergence(expected[key], actual[key],
                                     f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_divergence(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return (f"{path}[{min(len(expected), len(actual))}]",
                    f"length changed: {len(expected)} -> {len(actual)}")
        return None
    if expected != actual:
        return (path, f"{_preview(expected)} != {_preview(actual)}")
    return None
