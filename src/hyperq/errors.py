"""Exceptions shared across the package, and the readers of outside input that raise them."""


class EngineError(ValueError):
    """Base class for domain errors raised by the engine."""


class ZeroGermError(EngineError):
    """An operation that needs a nonzero germ received zero."""


class DegenerateDiagonalError(EngineError):
    """The denominator of a two-variable germ vanishes on the diagonal."""


class NotFinitePointError(EngineError):
    """The germ is not a finite point of the requested structure."""


class StructureMismatchError(EngineError):
    """Operands belong to different metric structures."""


class ModulusViolationError(EngineError):
    """A declared Cauchy modulus failed its sampled certificate."""


class NonMonotoneGeneratorError(EngineError):
    """A set family declared monotone is not."""


class NotDisjointError(EngineError):
    """Sets required to be disjoint overlap."""


class ModeViolationError(EngineError):
    """A sigma-family's declared mode was not proved."""


class OutOfAlgebraError(EngineError):
    """The expression leaves the supported interval algebra."""


class LimitUndecidableError(EngineError):
    """No exact closed form for the requested limit could be established."""


# CPython's default cap on the digits int() converts from a string.
MAX_INT_DIGITS = 4300


def read_int(text: str, what: str, error=EngineError) -> int:
    """``text`` as an integer: an optional ``-`` and at most
    MAX_INT_DIGITS ASCII digits (``int`` would also take spaces, ``+``,
    ``_`` and other scripts' digits, and refuses longer runs with its
    own message).  Anything else raises ``error`` naming ``what``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"{what} needs an integer, not {text!r}")
    if len(digits) > MAX_INT_DIGITS:
        raise error(
            f"{what} needs an integer of at most {MAX_INT_DIGITS} digits, not one of {len(digits)}"
        )
    return int(text)


def read_fields(text: str, what: str, keys, once):
    """The stripped ``(key, value)`` pairs of the ``key: value`` lines of
    ``text`` in file order; ``#`` starts a comment anywhere on a line.
    ``EngineError`` (naming ``what``) is raised at the first line with no
    colon, with a key not in ``keys``, or repeating a key in ``once``."""
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = (part.strip() for part in line.partition(":"))
        if not colon:
            raise EngineError(f"bad {what} line: {line!r}")
        if key not in keys:
            raise EngineError(f"unknown {what} key {key!r}")
        if key in seen:
            raise EngineError(f"{what} key {key!r} appears more than once")
        if key in once:
            seen.add(key)
        yield key, value
