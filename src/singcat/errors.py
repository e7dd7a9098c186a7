"""The error for a broken internal invariant."""


class InvariantError(RuntimeError):
    """A computed value broke a property that holds for every valid input,
    so the fault lies in the program, not in its input.  It is not a
    ValueError, so that no handler for malformed input can swallow it."""
