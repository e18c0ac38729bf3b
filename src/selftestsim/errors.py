"""Shared exception types for the simulator."""


class SelfTestError(Exception):
    """Base class for all package errors."""


class ParameterError(SelfTestError, ValueError):
    """Invalid configuration or function-family parameters."""


class DomainError(SelfTestError, ValueError):
    """Input outside the declared domain (preimage, register, index...)."""


class FamilyError(SelfTestError, TypeError):
    """A family-specific decoding was called with the wrong trapdoor family."""


class ProtocolError(SelfTestError, RuntimeError):
    """Out-of-sequence or malformed protocol message, on the verifier's side or the device's."""


class TransportError(SelfTestError, RuntimeError):
    """Framing/transport failure (timeout, truncation, bad version)."""


class ModelError(SelfTestError, ValueError):
    """A white-box device model violates a structural requirement."""
