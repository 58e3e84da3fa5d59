"""Exception hierarchy for the exfiltration pipeline.

Every stage raises a distinct exception class so the harness can report
exactly which layer killed a run (error_kind in run reports is the class
name).
"""


class AirgapError(Exception):
    """Base class for all pipeline errors."""


class MalformedInput(AirgapError, ValueError):
    """A file or buffer from outside the program does not parse."""


# ---- framing layer ----

class EmptyPayload(AirgapError):
    pass


class PayloadTooLong(AirgapError):
    pass


class SyncNotFound(AirgapError):
    pass


class LengthOutOfRange(AirgapError):
    pass


class CrcMismatch(AirgapError):
    pass


# ---- modem layer ----

class NyquistViolation(AirgapError):
    pass


class SymbolRateTooHigh(AirgapError):
    pass


class SignalTooShort(AirgapError):
    pass


class EmptyTrace(AirgapError):
    pass


# ---- QR / optical steganography ----

class PayloadTooLarge(AirgapError):
    pass


class UncorrectableErrors(AirgapError):
    pass


class MalformedFormatInfo(AirgapError):
    pass


class SecretTooLarge(AirgapError):
    pass


class NoSecret(AirgapError):
    pass


class CarrierTooSmall(AirgapError):
    pass


# ---- removable-media hiding ----

class SizeOutOfRange(AirgapError):
    pass


class DiskFull(AirgapError):
    pass


class InvalidName(AirgapError):
    pass


class DuplicateName(AirgapError):
    pass


class NoSuchFile(AirgapError):
    pass


class InsufficientSlack(AirgapError):
    pass


class NoPayload(AirgapError):
    pass
