"""Campaign-level index: the resumable ledger of a multi-config sweep.

A sweep campaign (:mod:`repro.sweep`) executes many independent study
configurations; each one is expensive, so a crashed or killed campaign
must never re-pay for configs that already finished.  The
:class:`CampaignIndex` is the on-disk ledger making that possible: one
JSON file per campaign recording the full unit list plus, per unit key,
either the completed result payload or the failure reason.

Write discipline mirrors the artifact store's ``.art`` entries: every
update serializes the whole document to a same-directory temp file and
``os.replace``\\ s it into place, so a reader (or a resumed campaign)
can never observe a torn index — it sees the ledger as of the last
completed unit, which is exactly the resume point.

The index is keyed twice over:

- each unit by its **unit key** — a content digest over the unit's spec
  (which itself embeds the config's
  :meth:`~repro.config.StudyConfig.artifact_digest` inputs plus the
  sweep-only knobs: probe latency scale, stage selection);
- the campaign by a **campaign id** — a digest over every unit key plus
  the package version, so ``sweep run`` against an existing out
  directory resumes when the campaign is the same and starts fresh when
  the grid (or the code generation) changed.
"""

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

#: current index file schema version.
CAMPAIGN_FORMAT = 1


def campaign_id_for(unit_keys, version):
    """Content id of a campaign: every unit key plus the code version."""
    payload = {"units": sorted(unit_keys), "version": version}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: largest magnitude of a result number: the aggregator squares their
#: differences, which must stay finite floats.
_MAX_MAGNITUDE = 1e150


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= _MAX_MAGNITUDE


def _is_check(check):
    return isinstance(check, dict) and isinstance(check.get("name"), str) \
        and isinstance(check.get("ok"), bool)


def check_unit_result(result):
    """Raise a one-line ``ValueError`` unless ``result`` is a unit result.

    That is an object with a string ``key``; its optional ``scalars``,
    ``issuer_shares`` and ``invariants`` must have the shapes the sweep
    aggregator reads.
    """
    if not isinstance(result, dict) \
            or not isinstance(result.get("key"), str):
        raise ValueError("unit result must be an object with a string key")
    scalars = result.get("scalars", {})
    shares = result.get("issuer_shares", {})
    invariants = result.get("invariants", {})
    checks = invariants.get("checks", []) \
        if isinstance(invariants, dict) else None
    if not isinstance(scalars, dict) or not all(
            value is None or _is_number(value)
            for value in scalars.values()):
        problem = "scalars must map names to null or numbers within 1e150"
    elif not isinstance(shares, dict) \
            or not all(map(_is_number, shares.values())):
        problem = "issuer_shares must map names to numbers within 1e150"
    elif not isinstance(checks, list) or not all(map(_is_check, checks)):
        problem = ("invariants must be an object whose checks list "
                   "{name: string, ok: bool} objects")
    else:
        return
    raise ValueError(f"unit result {problem}")


class CampaignIndex:
    """The atomic on-disk ledger of one sweep campaign."""

    def __init__(self, path, payload):
        self.path = Path(path)
        self.payload = payload

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, path, units, stage, cache_dir=None, version=None,
               store=None, clock=time.time):
        """Start a fresh ledger for ``units`` (a sequence of unit specs).

        ``units`` must be JSON-serializable dicts each carrying a
        ``"key"`` field (the unit's content digest).  ``store`` is an
        optional store-backend spec (:mod:`repro.store.backend`); when
        omitted it is derived from ``cache_dir`` so older callers keep
        their local-store behaviour.
        """
        if version is None:
            from repro import __version__ as version
        units = [dict(unit) for unit in units]
        payload = {
            "format": CAMPAIGN_FORMAT,
            "campaign_id": campaign_id_for(
                [unit["key"] for unit in units], version),
            "version": version,
            "created_at": clock(),
            "stage": stage,
            "cache_dir": str(cache_dir) if cache_dir else None,
            "units": units,
            "completed": {},
            "failed": {},
        }
        if store is not None:
            payload["store"] = store
        index = cls(path, payload)
        index.save()
        return index

    @classmethod
    def load(cls, path):
        """Parse an index file; raises ``ValueError`` on a bad one."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ValueError(
                f"cannot read campaign index {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"campaign index {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"campaign index {path} is not a JSON "
                             f"object")
        if payload.get("format") != CAMPAIGN_FORMAT:
            raise ValueError(
                f"campaign index {path} has format "
                f"{payload.get('format')!r}; this build reads format "
                f"{CAMPAIGN_FORMAT}")
        completed = payload.get("completed")
        if not isinstance(completed, dict):
            raise ValueError(f"campaign index {path} has no completed "
                             f"map")
        for key, result in completed.items():
            try:
                check_unit_result(result)
            except ValueError as exc:
                raise ValueError(f"campaign index {path}: unit {key!r}: "
                                 f"{exc}") from None
        return cls(path, payload)

    # -- persistence ----------------------------------------------------------

    def save(self):
        """Atomically rewrite the whole ledger (temp file + rename)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(self.payload, indent=1, sort_keys=True) + "\n"
        handle = tempfile.NamedTemporaryFile(
            mode="w", encoding="utf-8", dir=str(self.path.parent),
            prefix=".tmp-campaign-", delete=False)
        with handle:
            handle.write(blob)
        os.replace(handle.name, self.path)
        return self.path

    # -- the ledger -----------------------------------------------------------

    @property
    def campaign_id(self):
        return self.payload["campaign_id"]

    @property
    def stage(self):
        return self.payload.get("stage", "full")

    @property
    def cache_dir(self):
        return self.payload.get("cache_dir")

    @property
    def store_spec(self):
        """The campaign's store-backend spec (:mod:`repro.store.backend`).

        Ledgers written before the fabric existed carry only
        ``cache_dir``; those resolve to the equivalent local spec so a
        pre-fabric campaign resumes unchanged on either backend.
        """
        spec = self.payload.get("store")
        if spec is not None:
            return dict(spec)
        cache_dir = self.cache_dir
        if cache_dir:
            return {"backend": "local", "dir": cache_dir}
        return None

    @property
    def units(self):
        """Every unit spec, in campaign order."""
        return list(self.payload["units"])

    @property
    def completed(self):
        """``{unit key: result payload}`` of finished units."""
        return self.payload["completed"]

    @property
    def failed(self):
        """``{unit key: error string}`` of failed units."""
        return self.payload["failed"]

    def pending_units(self):
        """Unit specs not yet completed, in campaign order.

        Previously *failed* units are pending again — a resume retries
        them (their failure reason is cleared when they complete).
        """
        return [unit for unit in self.units
                if unit["key"] not in self.completed]

    def complete(self, key, result):
        """Record one finished unit and persist the ledger."""
        self.payload["completed"][key] = result
        self.payload["failed"].pop(key, None)
        self.save()

    def fail(self, key, error):
        """Record one failed unit (kept pending for resume) and persist."""
        self.payload["failed"][key] = str(error)
        self.save()

    def results(self):
        """Completed result payloads, in campaign unit order."""
        return [self.completed[unit["key"]] for unit in self.units
                if unit["key"] in self.completed]

    def matches(self, unit_keys, version=None):
        """Whether this ledger describes exactly ``unit_keys`` at ``version``."""
        if version is None:
            from repro import __version__ as version
        return self.campaign_id == campaign_id_for(unit_keys, version)
