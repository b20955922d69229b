"""Output checks: every checked operation is attempted; a wrong one fails.

``error_rate`` is ``failed / attempted`` over these checks.  What one
operation is depends on the workload:

- report-cold: one analysis node (or artifact) digest compared with the
  golden baseline, with the same seed's earlier runs, or with the other
  half of a traced run; one paper invariant.
- serve-open: one HTTP request.  It must answer 200, and a non-volatile
  route must answer the body the service gave in-process at boot.
- sweep-cluster: one unit execution.  It must complete, and a warm-pass
  unit must reproduce its cold-pass ``config_digest``.
"""

import hashlib

#: routes whose bodies describe the server's own state, not the study.
VOLATILE_ROUTES = frozenset({"healthz"})


class Tally:
    """Attempted / failed counts plus the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def absorb(self, payload):
        """Add counts another process reported (``to_json`` shape)."""
        self.attempted += payload["attempted"]
        self.failed += payload["failed"]
        self.failures.extend(payload["failures"][:20 - len(self.failures)])

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def to_json(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": list(self.failures)}


def body_digest(body):
    return hashlib.sha256(body).hexdigest()


def compare_digests(tally, expected, observed, label):
    """One check per node of ``expected``: equal digest in ``observed``."""
    for node in sorted(expected):
        got = observed.get(node)
        tally.check(got == expected[node],
                    f"{label}: {node} digest {str(got)[:12]} != "
                    f"{expected[node][:12]}")


def check_response(tally, route, url, status, digest, expected):
    """One check per request (``digest`` is None when nothing arrived)."""
    if status != 200:
        return tally.check(False, f"{url}: HTTP {status}")
    if route in VOLATILE_ROUTES:
        return tally.check(True, url)
    want = expected.get(url)
    return tally.check(want is not None and digest == want,
                       f"{url}: body differs from the in-process answer")


def check_units(tally, cold, warms, unit_keys):
    """One check per unit per pass.

    ``cold`` and each of ``warms`` map unit key -> result payload.
    """
    for key in unit_keys:
        first = cold.get(key)
        tally.check(first is not None and first.get("ok") is True,
                    f"cold pass: unit {key[:12]} did not complete")
    for warm in warms:
        for key in unit_keys:
            first, second = cold.get(key), warm.get(key)
            ok = (second is not None and second.get("ok") is True
                  and first is not None
                  and second.get("config_digest")
                  == first.get("config_digest"))
            tally.check(ok, f"warm pass: unit {key[:12]} did not "
                            f"complete or changed its config_digest")
