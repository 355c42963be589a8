"""Exception types shared across the package."""


class PerisysError(Exception):
    """Base class for every error raised by perisys."""


class ZeroValueError(PerisysError):
    """A value that must be nonzero (parameter, initial value, log input) is zero."""


class SpecSyntaxError(PerisysError):
    """Malformed spec document or rational literal."""


class ShapeError(PerisysError):
    """Structurally wrong spec: bad types, wrong list lengths, non-positive delays, p > q."""


class BitLengthExceededError(PerisysError):
    """A trajectory value outgrew the configured bit-length cap."""


class BitCapSettingError(PerisysError, ValueError):
    """``PERISYS_MAX_BITS`` is set, but not to a positive integer; also a ValueError."""


class WrongBackendError(PerisysError):
    """An unknown backend name was given to ``iter_pairs``."""


class TooFewPointsError(PerisysError, ValueError):
    """A law ("needs n >= N") or statistic needs a longer trajectory; also a ValueError."""


class ArgumentRangeError(PerisysError, ValueError):
    """A library call got a delay, stride or offset outside its range; also a ValueError."""


class TrajectoryIndexError(PerisysError, IndexError):
    """A ``Trajectory`` accessor got an index outside its logical range; also an IndexError."""
