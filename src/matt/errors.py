"""Error taxonomy shared by the kernel, the semantics engine, and the CLI.

Every error carries a stable short code (used in diagnostics and exit-code
decisions) and an optional source span: the offset into the source text
where the offending syntax starts, which the CLI prints as line:col.
"""

from __future__ import annotations


class MattError(Exception):
    code = "Error"

    def __init__(self, message: str, span: int | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        return self.message


class MalformedTable(MattError):
    code = "MalformedTable"


class NotComposable(MattError):
    code = "NotComposable"


class IllTypedCellExpression(MattError):
    code = "IllTypedCellExpression"


class ModeMismatch(MattError):
    code = "ModeMismatch"


class UnknownConstant(MattError):
    code = "UnknownConstant"


class NotSharp(MattError):
    code = "NotSharp"


class NotTransparent(MattError):
    code = "NotTransparent"


class NotSinister(MattError):
    code = "NotSinister"


class NotTangible(MattError):
    code = "NotTangible"


class KeyTypeMismatch(MattError):
    code = "KeyTypeMismatch"


class ExpectedPi(MattError):
    code = "ExpectedPi"


class ExpectedF(MattError):
    code = "ExpectedF"


class ExpectedU(MattError):
    code = "ExpectedU"


class ConversionFailure(MattError):
    code = "ConversionFailure"

    def __init__(self, message, span=None, trace=()):
        super().__init__(message, span)
        self.trace = tuple(trace)


class ParseError(MattError):
    code = "ParseError"


class CapExceeded(MattError):
    code = "CapExceeded"


class LimitAbsent(MattError):
    code = "LimitAbsent"


class NotColax(MattError):
    code = "NotColax"
