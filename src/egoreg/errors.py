"""Exception types shared across the pipeline."""


class EgoregError(Exception):
    """Base class for every error raised by this package."""


class ImageTooSmall(EgoregError):
    pass


class RoiTooSmall(EgoregError):
    pass


class NotPositiveDefinite(EgoregError):
    pass


class DimensionMismatch(EgoregError):
    pass


class DegenerateInput(EgoregError):
    pass


class ShapeMismatch(EgoregError):
    pass


class RaggedTracks(EgoregError):
    pass


class SizeMismatch(EgoregError):
    pass


class SingleClass(EgoregError):
    """Training labels contain only one class."""


class TooFewDescriptors(EgoregError):
    pass


class EmptyInput(EgoregError):
    pass


class DegenerateConfiguration(EgoregError):
    """Point configuration does not constrain a unique camera pose."""


class TooFewCorrespondences(EgoregError):
    pass


class BadMagic(EgoregError):
    pass


class VersionUnsupported(EgoregError):
    pass


class IndexModelMismatch(EgoregError):
    """A retrieval index names model images the model does not hold."""


class CorruptTable(EgoregError):
    """A binary table is inconsistent with its declared counts or bounds."""


__all__ = [name for name, obj in list(globals().items())
           if isinstance(obj, type) and issubclass(obj, Exception)]
