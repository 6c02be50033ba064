"""Exception hierarchy shared across the pipeline.

Each class declares the CLI exit code and the stderr label of its family,
so keep the split between configuration, parse, infrastructure and
validation failures intact.
"""

from __future__ import annotations


class TrajstoryError(Exception):
    """Base class for all errors raised by this package.

    ``step`` names the pipeline step that hit the failure when the
    orchestrator propagates it, else None.
    """

    exit_code = 2
    label = "error"
    step: str | None = None


class ConfigurationError(TrajstoryError):
    """Invalid or inconsistent configuration (bad schema tag, bad request)."""

    label = "configuration error"


class ParseError(TrajstoryError):
    """Malformed input that cannot be parsed (dataset header, story markup).

    A story markup error names its character position in the message
    ("at offset N").
    """

    exit_code = 3


class NotFoundError(TrajstoryError):
    """A requested item (trajectory id) does not exist."""


class InfrastructureError(TrajstoryError):
    """Transient failure of an external dependency; safe to retry."""

    exit_code = 4
    label = "infrastructure error"


class ProtocolError(InfrastructureError):
    """Remote endpoint answered, but the payload violates the wire format."""


class MalformedStoryError(TrajstoryError):
    """Backend produced a story without any point-of-interest markup."""


class StoryValidationError(TrajstoryError):
    """Generation retries exhausted; ``run`` is the failed run, with its last report and draft."""

    exit_code = 5
    label = "validation failure"

    def __init__(self, message: str, run=None):
        super().__init__(message)
        self.run = run
