"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage/config problems -> 2,
data and file-format problems -> 3, numerical failures -> 4.
"""


class CropYieldError(Exception):
    """Base class for all package errors."""


class ConfigError(CropYieldError):
    """Bad configuration: unknown key, bad or out-of-range value, config and data disagree."""


class ShapeMismatchError(CropYieldError):
    """Tensor shapes incompatible with the requested operation."""


class DomainError(CropYieldError):
    """Input outside the mathematical domain of an operation (zero norm, Y_i = 0, ...)."""


class DataFormatError(CropYieldError):
    """Base class for on-disk format problems."""


class MalformedHeaderError(DataFormatError):
    """File header does not match the expected magic/field layout."""


class TruncatedPayloadError(DataFormatError):
    """File ended before the declared payload was complete."""


class ChecksumMismatchError(DataFormatError):
    """Stored checksum does not match the recomputed payload checksum."""


class StagePrerequisiteError(CropYieldError):
    """A resumed pipeline stage is missing an upstream artifact."""


class GraphConsumedError(CropYieldError):
    """A backward reached a tensor whose graph an earlier backward already consumed."""


class NumericalError(CropYieldError):
    """Non-finite values where finite ones are required (diverged training, bad grads)."""
