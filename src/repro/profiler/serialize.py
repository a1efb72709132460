"""Profile persistence — the profiler-to-compiler interface.

The paper's §1.2: "The IMPACT-I Profiler to C Compiler interface allows
the profile information to be automatically used by the IMPACT-I C
Compiler." In a real toolchain that interface is a file; this module
provides the JSON round trip, with a content fingerprint so a stale
profile is rejected rather than silently misapplied to changed code.
"""

from __future__ import annotations

import hashlib
import json

from repro.il.module import ILModule
from repro.profiler.profile import ProfileData
from repro.vm.counters import Counters

FORMAT_VERSION = 1


def module_fingerprint(module: ILModule) -> str:
    """A stable hash of the module's call-site structure.

    Covers what the profile is keyed by: function names and the
    (caller, site id, callee) triples. Code edits that renumber or move
    call sites invalidate the profile; pure body edits do not.
    """
    digest = hashlib.sha256()
    for name in sorted(module.functions):
        digest.update(name.encode())
        digest.update(b"\x00")
    for caller, instr in sorted(
        module.call_sites(), key=lambda pair: pair[1].site
    ):
        callee = instr.name if instr.name else "<indirect>"
        digest.update(f"{caller}:{instr.site}:{callee};".encode())
    return digest.hexdigest()[:16]


def dump_profile(profile: ProfileData, module: ILModule | None = None) -> str:
    """Serialize a profile (optionally bound to a module fingerprint)."""
    payload = {
        "format": FORMAT_VERSION,
        "runs": profile.runs,
        "totals": {
            "il": profile.total.il,
            "ct": profile.total.ct,
            "calls": profile.total.calls,
            "returns": profile.total.returns,
        },
        "node_weights": profile.node_weights,
        "arc_weights": {str(site): w for site, w in profile.arc_weights.items()},
    }
    if module is not None:
        payload["fingerprint"] = module_fingerprint(module)
    return json.dumps(payload, indent=2, sort_keys=True)


def _field(payload: dict, name: str, table: bool = False):
    """``payload[name]``, a JSON object when ``table``; raises
    ValueError naming the field when it is missing or ill-typed."""
    if name not in payload:
        raise ValueError(f"profile has no {name!r} field")
    value = payload[name]
    if table and not isinstance(value, dict):
        raise ValueError(f"profile field {name!r} is not a JSON object")
    return value


def _number(convert, value, name: str):
    """``convert(value)``; raises ValueError naming the field ``name``
    when ``value`` is not a number."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"profile field {name!r} holds {value!r}, not a number"
        ) from None


def load_profile(text: str, module: ILModule | None = None) -> ProfileData:
    """Deserialize; raises ValueError on text that is not a profile of
    this format (naming the missing or ill-typed field) or whose
    fingerprint does not match ``module``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("profile is not a JSON object")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format {payload.get('format')!r}"
        )
    if module is not None and "fingerprint" in payload:
        expected = module_fingerprint(module)
        if payload["fingerprint"] != expected:
            raise ValueError(
                "profile fingerprint mismatch: the program's call sites"
                " changed since this profile was collected"
            )
    totals = _field(payload, "totals", table=True) if "totals" in payload else {}
    counters = Counters(
        **{
            name: _number(int, totals.get(name, 0), "totals")
            for name in ("il", "ct", "calls", "returns")
        }
    )
    profile = ProfileData(
        runs=_number(int, _field(payload, "runs"), "runs"), total=counters
    )
    profile.node_weights = {
        str(name): _number(float, weight, "node_weights")
        for name, weight in _field(payload, "node_weights", table=True).items()
    }
    profile.arc_weights = {
        _number(int, site, "arc_weights"): _number(float, weight, "arc_weights")
        for site, weight in _field(payload, "arc_weights", table=True).items()
    }
    return profile
