"""Error taxonomy shared by the library and the command line tool.

exit_code conventions: 2 = malformed input, 3 = outside the supported
fragment or catalog, 4 = internal invariant violation.
"""


class EvolsymError(Exception):
    exit_code = 4


class InputError(EvolsymError):
    exit_code = 2


class ParseError(InputError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownSymbolError(ParseError):
    pass


class EvalDomainError(InputError):
    """Numeric evaluation left the domain (ln of a nonpositive value,
    division by zero within tolerance, even root of a negative value)."""


class UnsupportedError(EvolsymError):
    exit_code = 3


class InternalError(EvolsymError):
    exit_code = 4
