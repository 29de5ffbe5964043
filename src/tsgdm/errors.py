"""Exception types shared across the package, and the lower-bound check
the config classes raise them from."""


class TsgdmError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TsgdmError, ValueError):
    """A numeric argument is outside its allowed range."""


def check_minimums(config: object, **minimums: float) -> None:
    """Raise :class:`DomainError` for the first named field of ``config``
    below its minimum or NaN. A None field is unset and passes."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if value is not None and not value >= low:
            raise DomainError(f"{name} must be >= {low}, got {value}")


class NetworkError(TsgdmError):
    """Remote backend unreachable after exhausting retries."""


class AuthError(TsgdmError):
    """Remote backend rejected the credentials."""


class ProtocolError(TsgdmError):
    """Remote backend returned a response that could not be interpreted."""


class CacheMissError(TsgdmError, KeyError):
    """Replay cache holds no entry for the request digest."""


class BudgetExceededError(TsgdmError):
    """The gateway call budget for a run was exhausted."""


class EmptySetError(TsgdmError, ValueError):
    """Scoring was asked to average over zero examples."""


class SizeError(TsgdmError, ValueError):
    """A sample without replacement was larger than its pool."""


class ParseError(TsgdmError, ValueError):
    """A dataset line was not a well-formed record."""


class LabelError(TsgdmError, ValueError):
    """A dataset label fell outside the declared label set."""


class ConfigError(TsgdmError, ValueError):
    """An experiment config value failed validation."""


class UnknownFieldError(ConfigError):
    """An experiment config contained a field this package does not define."""
