"""Structured errors shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


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
    """A malformed IDX file: `part` ("images" or "labels") names which file
    of the pair is at fault, and the message starts with its path."""

    def __init__(self, part: str, path, message: str):
        super().__init__(f"{path}: {message}")
        self.part = part
