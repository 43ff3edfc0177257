"""Exception types shared across the library."""


class JmmlError(Exception):
    """Base class for all library errors."""


class ChannelError(JmmlError):
    """A bad row of a (channels, samples) signal; names the channel if known."""

    def __init__(self, message, channel=None):
        if channel is not None:
            message = f"{message} (channel={channel})"
        super().__init__(message)
        self.channel = channel


class DegenerateSignal(ChannelError):
    """Signal has no usable variation (constant or all-zero input)."""


class FeatureOverflow(ChannelError):
    """A finite signal's biomarker is not finite: its scale overflows float64."""


class DegenerateVector(JmmlError):
    """Zero-norm vector where a direction is required."""


class ShapeError(JmmlError):
    """Array dimensions do not match the declared contract."""


class NumericalError(JmmlError):
    """Decomposition failure or non-finite values in a numeric routine."""


class EmptyClassError(JmmlError):
    """A class label has no samples where at least one is required."""


class SingleClassError(JmmlError):
    """Only one class present where two are required."""


class PairingError(JmmlError):
    """Modality sample counts cannot be paired by index."""


class RangeError(JmmlError):
    """Value outside its documented domain."""


class LabelError(JmmlError):
    """Unknown emotion label or category."""


class UnsupportedConfiguration(JmmlError):
    """Requested configuration outside the supported scope."""
