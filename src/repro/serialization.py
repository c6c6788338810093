"""The shared versioned-JSON protocol for batch results.

Every batch result the harness produces — a :class:`SweepResult`, a
:class:`ChaosReport`, a :class:`SanitizeReport` — serializes to the same
envelope::

    {"schema": <int>, "kind": "<result kind>", ...body...}

so the result cache, the persistence layer (:mod:`repro.harness.store`)
and the ``repro`` CLI treat all of them uniformly: one schema version,
one ``kind`` tag to dispatch on, and *typed* load failures
(:class:`~repro.errors.ExperimentError`) that always name the source
and the found/expected versions instead of leaking bare ``KeyError``\\ s.

This module also holds the canonical-form helpers the content-addressed
cache keys on: :func:`canonical_json` (sorted keys, minimal separators,
so semantically equal payloads hash equal) and the
:class:`~repro.gpu.config.DeviceConfig` dict round-trip.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Dict, Iterable, Iterator, Union

from repro.errors import ConfigError, ExperimentError
from repro.gpu.config import DeviceConfig
from repro.gpu.topology import Topology
from repro.model.calibration import CalibratedTimings

__all__ = [
    "COMPATIBLE_SCHEMA_VERSIONS",
    "JOB_STATES",
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "check_envelope",
    "device_config_from_dict",
    "device_config_to_dict",
    "dump_job_failure",
    "dump_job_status",
    "dump_result",
    "parse_job_failure",
    "parse_job_status",
    "parse_result",
    "plain",
    "require",
    "shape_errors",
]

#: current schema of every serialized batch result.  Version 1 was the
#: pre-protocol sweep-only format of :mod:`repro.harness.store`; version
#: 2 introduced the shared envelope across all result kinds; version 3
#: added partial-failure provenance (``retries``, ``quarantined``) to
#: sweep, chaos and sanitize results.
RESULT_SCHEMA_VERSION = 3

#: envelope versions this build reads by default.  Version 3 is a pure
#: field addition over 2 (readers default the new provenance fields), so
#: both parse.
COMPATIBLE_SCHEMA_VERSIONS = (2, RESULT_SCHEMA_VERSION)


def plain(value: Any) -> Any:
    """Recursively coerce a value into plain JSON-serializable types.

    Numpy scalars become Python ints/floats, tuples become lists, dict
    keys become strings — everything the cache and the envelope dumps
    need to round-trip losslessly through ``json``.
    """
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise ExperimentError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic minimal JSON: sorted keys, no whitespace.

    Semantically equal payloads produce byte-equal text — the property
    the content-addressed cache key depends on.
    """
    return json.dumps(
        plain(payload), sort_keys=True, separators=(",", ":")
    )


def dump_result(kind: str, body: Dict[str, Any]) -> str:
    """Render a batch result as versioned, deterministic JSON."""
    envelope = {"schema": RESULT_SCHEMA_VERSION, "kind": kind}
    envelope.update(body)
    return json.dumps(plain(envelope), indent=1, sort_keys=True)


def check_envelope(
    payload: Any,
    *,
    kind: Union[str, Iterable[str]],
    source: str = "<string>",
    accept: Iterable[int] = COMPATIBLE_SCHEMA_VERSIONS,
) -> Dict[str, Any]:
    """Validate an envelope's kind and schema; return the payload.

    Every failure is a typed :class:`~repro.errors.ExperimentError`
    naming ``source`` (usually a file path) and, for version mismatches,
    the found and expected schema versions.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if not isinstance(payload, dict):
        raise ExperimentError(
            f"{source} does not contain a JSON object "
            f"(found {type(payload).__name__})"
        )
    found_kind = payload.get("kind")
    if found_kind not in kinds:
        wanted = " or ".join(kinds)
        raise ExperimentError(
            f"{source} does not contain a {wanted} result "
            f"(found kind {found_kind!r})"
        )
    accepted = tuple(accept)
    found = payload.get("schema")
    if found not in accepted:
        wanted = ", ".join(str(v) for v in accepted)
        raise ExperimentError(
            f"{source} has schema {found!r}; this build reads "
            f"version(s) {wanted}"
        )
    return payload


def parse_result(
    text: str,
    *,
    kind: Union[str, Iterable[str]],
    source: str = "<string>",
    accept: Iterable[int] = COMPATIBLE_SCHEMA_VERSIONS,
) -> Dict[str, Any]:
    """Parse and envelope-check serialized JSON text."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep or too many digits too
        raise ExperimentError(f"{source} is not valid JSON: {exc}") from exc
    return check_envelope(payload, kind=kind, source=source, accept=accept)


def require(payload: Dict[str, Any], key: str, source: str = "<string>") -> Any:
    """Fetch a required envelope field, or fail with a typed error."""
    try:
        return payload[key]
    except KeyError:
        raise ExperimentError(
            f"{source}: missing required field {key!r} "
            f"(schema {payload.get('schema')!r}, kind {payload.get('kind')!r})"
        ) from None


@contextmanager
def shape_errors(source: str = "<string>") -> Iterator[None]:
    """Re-raise the error a field of the wrong shape causes, typed."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(
            f"{source}: malformed field ({type(exc).__name__}: {exc})"
        ) from exc


# ---------------------------------------------------------------------------
# Job envelopes (the sweep service's wire protocol — docs/service.md)
# ---------------------------------------------------------------------------

#: every state a service job can be in.  ``queued`` jobs wait for a
#: worker (possibly backed off after a lease expiry); ``leased`` jobs
#: are owned by exactly one worker under a time-bounded lease; ``done``
#: and ``failed`` are terminal.
JOB_STATES = ("queued", "leased", "done", "failed")


def dump_job_status(job: Dict[str, Any]) -> str:
    """Render one job row as a ``kind="job-status"`` envelope.

    The body is the job's public face: identity, spec, lifecycle state,
    attempt/lease bookkeeping.  The stored result and failure envelopes
    are *not* inlined (they have their own endpoints and kinds) — only
    flags saying whether they exist.
    """
    state = job.get("state")
    if state not in JOB_STATES:
        raise ExperimentError(
            f"job {job.get('id')!r} has unknown state {state!r}; "
            f"expected one of: {', '.join(JOB_STATES)}"
        )
    return dump_result(
        "job-status",
        {
            "id": job["id"],
            "spec": job["spec"],
            "state": state,
            "attempts": job.get("attempts", 0),
            "submitted_at": job.get("submitted_at"),
            "eligible_at": job.get("eligible_at"),
            "lease_owner": job.get("lease_owner"),
            "lease_expires_at": job.get("lease_expires_at"),
            "updated_at": job.get("updated_at"),
            "has_result": bool(job.get("result")),
            "has_error": bool(job.get("error")),
        },
    )


def parse_job_status(text: str, *, source: str = "<string>") -> Dict[str, Any]:
    """Parse and validate a ``job-status`` envelope."""
    payload = parse_result(text, kind="job-status", source=source)
    state = require(payload, "state", source)
    if state not in JOB_STATES:
        raise ExperimentError(
            f"{source}: unknown job state {state!r}; "
            f"expected one of: {', '.join(JOB_STATES)}"
        )
    require(payload, "id", source)
    require(payload, "spec", source)
    return payload


def dump_job_failure(
    error_type: str,
    message: str,
    *,
    job_id: str,
    attempts: int,
) -> str:
    """Render a terminal job failure as a ``kind="job-failure"`` envelope.

    This is what the job table stores (and the result endpoint serves)
    when a job exhausts its retry budget or its worker raises a typed
    error — the service's analogue of the executor's typed
    :class:`~repro.errors.ExecutorError`, serialized so the failure
    survives service restarts byte-for-byte.
    """
    return dump_result(
        "job-failure",
        {
            "id": job_id,
            "error": {"type": error_type, "message": message},
            "attempts": attempts,
        },
    )


def parse_job_failure(text: str, *, source: str = "<string>") -> Dict[str, Any]:
    """Parse and validate a ``job-failure`` envelope."""
    payload = parse_result(text, kind="job-failure", source=source)
    error = require(payload, "error", source)
    if not isinstance(error, dict) or "type" not in error or "message" not in error:
        raise ExperimentError(
            f"{source}: job-failure 'error' must be a dict with "
            f"'type' and 'message', got {error!r}"
        )
    require(payload, "id", source)
    return payload


def device_config_to_dict(config: DeviceConfig) -> Dict[str, Any]:
    """A plain-dict form of a device config (JSON- and pickle-safe)."""
    return plain(asdict(config))


def device_config_from_dict(payload: Dict[str, Any]) -> DeviceConfig:
    """Rebuild a :class:`DeviceConfig` from :func:`device_config_to_dict`.

    Dicts serialized before the topology field existed (no ``topology``
    key) rebuild with the default single-device topology.  A body that is
    not an object, names an unknown field (such as one a later version
    removed) or holds a bad value raises :class:`~repro.errors.ConfigError`.
    """
    try:
        body = dict(payload)
        for name, cls in (("timings", CalibratedTimings), ("topology", Topology)):
            nested = body.pop(name, None)
            if nested is not None:
                body[name] = cls(**nested)
        return DeviceConfig(**body)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"bad device config: {exc}") from exc
