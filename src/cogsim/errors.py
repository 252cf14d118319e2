"""Exception types shared across the framework."""


class SimulationError(Exception):
    """Base class for all framework errors."""


class ContractViolation(SimulationError):
    """An operation was invoked outside its stated preconditions."""


class AgentMissing(SimulationError):
    """The environment emitted an actionable observation for an unknown agent."""


class SchemaViolation(SimulationError):
    """An action body failed validation against its response schema."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class ParseFailure(SchemaViolation):
    """Structured parsing exhausted its retries without a valid payload."""


class UnknownRecipient(SimulationError):
    """A message names a destination outside the agent population."""


class ReplayMiss(SimulationError):
    """A replay backend saw a request with no recorded result."""


class RemoteExhausted(SimulationError):
    """A remote backend spent all retry attempts without success."""


class RemoteTimeout(SimulationError):
    """A remote backend timed out on its final attempt."""


class LoanRefused(SimulationError):
    """A loan request would push principal past the loan-to-value cap."""


class UndefinedRatio(SimulationError):
    """A buy/sell ratio was requested over a day with zero sell orders."""


class DegenerateX(SimulationError):
    """Least-squares fit requested on a constant predictor."""


class UnknownPost(SimulationError):
    """A social action targeted a post id that does not exist."""


class IncompleteSheet(SimulationError):
    """A response sheet is missing answers for some items."""


class LengthMismatch(SimulationError):
    """Paired samples of unequal length."""


class ZeroVariance(SimulationError):
    """A t-test was requested on samples with zero spread."""


class TooFewSamples(SimulationError):
    """A t-test was requested on fewer than two samples."""


class ConfigError(SimulationError, ValueError):
    """A config value failed its check. ``field`` names it: its dotted path
    in a config, or a constructor's parameter, which the config parser prefixes."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.message = message
        self.field = field
