"""Exception types shared across the package."""


class AdvmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(AdvmError):
    """Two tensors that must agree in shape do not."""


class NonFiniteGradient(AdvmError):
    """An attack iteration's averaged loss or gradient is NaN or infinite."""


class LabelOutOfRange(AdvmError):
    """A class label is outside [0, num_classes)."""


class EmptyDataset(AdvmError):
    """An operation that needs at least one example got none."""


class TooFew(AdvmError):
    """A subsample was requested that is larger than the dataset."""


class ClassCountMismatch(AdvmError):
    """Models combined into an ensemble disagree on the label space."""


class BadMagic(AdvmError):
    """A binary file does not start with the expected magic number."""


class VersionMismatch(AdvmError):
    """A file was written by an incompatible format version."""


class LengthMismatch(AdvmError):
    """A binary file's payload does not match its declared dimensions."""


class CorruptFile(AdvmError):
    """A file exists but cannot be parsed as the expected format."""


class WorkerLost(AdvmError):
    """A worker process died before it returned its share of a batch."""
