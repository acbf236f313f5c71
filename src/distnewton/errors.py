"""Structured errors shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class AsymmetricMatrixError(ValueError):
    """A symmetric-only routine received a matrix that is not symmetric."""


class NonFiniteInputError(ValueError):
    """An input holds a NaN or an infinity."""


class NonFiniteReportError(NonFiniteInputError):
    """A worker report holds a NaN or an infinity; `report` is its index."""

    def __init__(self, report: int, message: str):
        super().__init__(f"report {report}: {message}")
        self.report = report


class ConfigError(ValueError):
    """A configuration value failed validation; `field` names the key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class IdxFormatError(ValueError):
    """Base class for IDX file parsing failures; `path` names the file at fault."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class BadMagicError(IdxFormatError):
    pass


class TruncatedFileError(IdxFormatError):
    pass


class CountMismatchError(IdxFormatError):
    pass
