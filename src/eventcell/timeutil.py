"""RFC 3339 timestamp helpers. Everything inside the pipeline is UTC."""
from __future__ import annotations

from datetime import datetime, timedelta, timezone, tzinfo
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import ConfigError, UnparseableTimestamp

UTC = timezone.utc


def parse_rfc3339(text: str, default_tz: tzinfo = UTC) -> datetime:
    """Parse an RFC 3339 / ISO 8601 timestamp into an aware UTC datetime.

    Naive timestamps are interpreted in ``default_tz`` (a source-declared
    zone); aware ones are converted to UTC.
    """
    if not isinstance(text, str) or not text.strip():
        raise UnparseableTimestamp(f"empty or non-string timestamp: {text!r}")
    raw = text.strip()
    # Python 3.10 fromisoformat does not accept the 'Z' suffix.
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise UnparseableTimestamp(f"cannot parse timestamp {text!r}: {exc}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=default_tz)
    try:
        return parsed.astimezone(UTC)
    except OverflowError:
        raise UnparseableTimestamp(f"timestamp {text!r} is out of range in UTC") from None


def format_rfc3339(ts: datetime) -> str:
    """Render an aware datetime as an RFC 3339 UTC string with a Z suffix."""
    if ts.tzinfo is None:
        raise ValueError("refusing to format a naive datetime")
    ts = ts.astimezone(UTC).replace(tzinfo=None)
    if ts.microsecond:
        return ts.isoformat(timespec="microseconds") + "Z"
    return ts.isoformat(timespec="seconds") + "Z"


def resolve_zone(name: str) -> tzinfo:
    """Resolve a config timezone string: 'UTC', a '+HH:MM' offset, or an IANA name."""
    label = name.strip()
    if label.upper() in ("UTC", "Z", ""):
        return UTC
    if label[0] in "+-" and len(label) == 6 and label[3] == ":":
        try:
            hours, minutes = int(label[1:3]), int(label[4:6])
        except ValueError:
            raise ConfigError(f"bad timezone offset {name!r}") from None
        delta = timedelta(hours=hours, minutes=minutes)
        return timezone(-delta if label[0] == "-" else delta)
    try:
        return ZoneInfo(label)
    except (ZoneInfoNotFoundError, ValueError):
        raise ConfigError(f"unknown timezone {name!r}") from None
