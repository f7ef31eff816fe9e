"""Exception types shared across the package."""


class AdvmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(AdvmError):
    """Two tensors, a dataset's images and labels, or ensemble members disagree in shape."""


class NonFiniteGradient(AdvmError):
    """An attack iteration's averaged loss or gradient is NaN or infinite."""


class LabelOutOfRange(AdvmError):
    """A class label is not an integer in [0, num_classes)."""


class EmptyDataset(AdvmError):
    """An operation that needs at least one example got none."""


class TooFew(AdvmError):
    """A subsample was requested that is larger than the dataset."""


class VersionMismatch(AdvmError):
    """A file was written by an incompatible format version."""


class CorruptFile(AdvmError):
    """A file exists but is damaged: cut short, padded, or not the expected format."""


class WorkerLost(AdvmError):
    """A worker process died before it returned its share of a batch."""
