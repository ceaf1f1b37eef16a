"""Exception types shared across the package."""


class TopofluxError(Exception):
    """Base class for all domain errors."""


class ConfigError(TopofluxError):
    """Invalid scenario configuration (schema violation, bad units, bad combination).

    ``pointer`` is a JSON-pointer-style path to the offending field when known.
    """

    def __init__(self, message, pointer=""):
        self.pointer = pointer
        super().__init__(f"{message} (at '{pointer}')" if pointer else message)


class ValidityError(TopofluxError):
    """Device parameters fall outside the regime where the coupling law holds."""


class NoSolutionError(ValidityError):
    """The resonance condition has no solution for the given wire parameters."""


class IntegrationError(TopofluxError):
    """Master-equation propagation failed its checks (step count or length, trace drift)."""
