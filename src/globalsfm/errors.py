"""Exception types raised by the reconstruction stages."""


class GlobalSfmError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(GlobalSfmError):
    """A direction was requested for a (near-)zero vector."""


class BehindCamera(GlobalSfmError):
    """A point projected with non-positive camera-frame depth."""


class DegenerateError(GlobalSfmError):
    """Geometry too degenerate to solve (coincident centers, parallel rays, ...)."""


class DegenerateScene(GlobalSfmError):
    """A synthetic scene failed its minimum-visibility requirements."""


class TooFewMatches(GlobalSfmError):
    """Not enough correspondences for the requested estimation."""


class NoModelFound(GlobalSfmError):
    """RANSAC exhausted its budget without a model reaching minimum support."""


class CheiralityAmbiguous(GlobalSfmError):
    """No essential-matrix decomposition candidate has strict majority support."""


class IndeterminateSystem(GlobalSfmError):
    """Normal equations are rank deficient / numerically singular."""


class Disconnected(GlobalSfmError):
    """The measurement graph is not connected."""


class Underconstrained(GlobalSfmError):
    """Translation recovery is not parallel-rigid (extra nullspace beyond gauge)."""


class TrackTooShort(GlobalSfmError):
    """Track has fewer views than the configured minimum."""


class AllTracksFiltered(GlobalSfmError):
    """Reprojection filtering removed every track."""


class MissingPose(GlobalSfmError):
    """A pose required for metric computation is absent."""


class InputError(GlobalSfmError):
    """Pipeline inputs are missing or malformed."""


class ConfigError(GlobalSfmError):
    """Configuration failed validation."""
