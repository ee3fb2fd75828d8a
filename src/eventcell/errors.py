"""Exception types shared across the pipeline."""


class EventcellError(Exception):
    """Base class for all package errors."""


class ConfigError(EventcellError):
    """A configuration value is missing, inconsistent or out of range."""


class SchemaError(EventcellError):
    """An input file does not match its documented schema."""


class InvariantError(EventcellError):
    """A loaded or constructed record violates a type invariant."""


class SpecError(EventcellError):
    """A scenario specification is invalid or internally inconsistent."""


class SourceUnreachable(EventcellError):
    """A configured source could not be read (I/O or HTTP failure)."""

    def __init__(self, source_id: str, detail: str):
        super().__init__(f"source '{source_id}' unreachable: {detail}")
        self.source_id = source_id


class MalformedPayload(EventcellError):
    """A source payload container could not be decoded."""


class MissingRequiredField(EventcellError):
    """A record lacks a field the canonical format requires."""


class UnparseableTimestamp(EventcellError):
    """A timestamp string could not be interpreted."""


class NonUniformPeriod(EventcellError):
    """KPI timestamps are not on a uniform sampling grid."""


class InsufficientHistory(EventcellError):
    """A series is too short for the requested periodic baseline."""


class DegenerateGeometry(EventcellError):
    """A geometric operation received points between which it is undefined.

    ``geo.initial_bearing_deg`` raises it from a pole, between exact
    antipodes, and for coincident points: those where both components of
    the direction between them are zero in floating point, i.e. identical
    points or points whose coordinate differences are subnormal and
    underflow.
    """


class OutOfRange(EventcellError):
    """An event lies entirely outside the span of a series."""


class LengthMismatch(EventcellError):
    """Two vectors that must be paired have different lengths."""


class NoDefinedCorrelations(EventcellError):
    """Every correlation in an aggregation group is undefined."""


class UnknownCell(EventcellError):
    """A cell id is absent from the loaded topology."""
