"""Exception hierarchy shared across the package.

Every error the package defines derives from PatchVoteError, so callers
can catch one base class.
"""


class PatchVoteError(Exception):
    """Base class for all package errors."""


class MeshError(PatchVoteError):
    """Degenerate or otherwise unusable mesh geometry."""


class RenderError(PatchVoteError):
    """Rasterization cannot proceed (bad view, empty projection)."""


class DescriptorError(PatchVoteError):
    """Invalid patch geometry (e.g. a patch side below two pixels)."""


class ConfigError(PatchVoteError):
    """Configuration file rejected; message names the offending key."""


class SynthError(PatchVoteError):
    """Invalid synthetic-shape spec or benchmark arguments."""


class TrainingError(PatchVoteError):
    """Training cannot proceed (empty corpus, an anchor without labels)."""


class EmptyIndexError(PatchVoteError):
    """The patch index holds no records."""


class NoRetrievalError(PatchVoteError):
    """Every query patch was excluded; no vote could be cast."""


class FormatError(PatchVoteError):
    """An artifact file, binary or JSON, is malformed or truncated."""
