"""Exception hierarchy shared by all modules.

Four user-facing categories map onto distinct CLI exit codes: input
format problems, precondition violations, exceeded search/step bounds,
and violations of invariants the theory guarantees. The CLI exits with
the class's `exit_code`, which a subclass inherits from its category.
"""


class IHSConeError(Exception):
    exit_code = 1


class InputFormatError(IHSConeError):
    """Malformed input: bad JSON, non-square gram, unknown type tag, ..."""

    exit_code = 2


class PreconditionError(IHSConeError, ValueError):
    """An operation was called outside its documented domain."""

    exit_code = 3


class DegenerateGramError(PreconditionError):
    """Gram matrix with determinant zero."""


class DimensionMismatchError(PreconditionError):
    """Vector length does not match the lattice rank."""


class SignatureError(PreconditionError):
    """Lattice signature is not the required (1, rank-1)."""


class PellRangeError(PreconditionError):
    """Pell parameter N < 2."""


class PellSquareError(PreconditionError):
    """Pell parameter N is a perfect square; x^2 - N*y^2 = 1 is trivial."""


class NonIntegralReflectionError(PreconditionError):
    """2*pairing(root, v) is not divisible by norm(root)."""


class BoundExceededError(IHSConeError):
    """A configured cap (Pell index, reduction steps, rank limit, the
    interpreter's int-to-str digit limit) was hit."""

    exit_code = 4


class ContractViolationError(IHSConeError):
    """A certified identity from the theory failed on the given input."""

    exit_code = 5


class MixedRationalityError(ContractViolationError):
    """Rank-2 boundary rays came out one rational, one irrational."""
