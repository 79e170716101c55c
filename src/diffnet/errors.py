"""Exception types shared across the package."""

__all__ = [
    "DatasetError",
    "DiffnetError",
    "EmptyGraphError",
    "FileFormatError",
    "MalformedEventError",
]


class DiffnetError(Exception):
    """Base class for all diffnet errors."""


class MalformedEventError(DiffnetError, ValueError):
    """An interaction event violates the event schema."""


class FileFormatError(DiffnetError, ValueError):
    """A data file failed to parse; carries the offending line number."""

    def __init__(self, message: str, path=None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        if path is not None and line_no is not None:
            where = f"{path}:{line_no}: "
        elif path is not None:
            where = f"{path}: "
        else:
            where = ""
        super().__init__(f"{where}{message}")


class EmptyGraphError(DiffnetError, ValueError):
    """An operation requiring at least one node was given an empty graph."""


class DatasetError(DiffnetError, ValueError):
    """Dataset assembly failed (unresolvable paths, inconsistent metadata)."""
