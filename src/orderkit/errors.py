"""Exception types shared across the toolkit."""


class OrderkitError(Exception):
    """Base class for all orderkit errors."""


class CycleError(OrderkitError):
    """The transitive closure of the given pairs breaks antisymmetry."""

    def __init__(self, cycle_members):
        self.cycle_members = tuple(cycle_members)
        super().__init__(f"order cycle through {', '.join(map(str, self.cycle_members))}")


class UnknownLabelError(OrderkitError):
    def __init__(self, label, line=None):
        self.label = label
        self.line = line
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown element label {label!r}{at}")


class NotALatticeError(OrderkitError):
    """A pair of elements lacks a least upper bound or greatest lower bound."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "join" or "meet"
        super().__init__(f"no {kind} for pair {pair}")


class SizeLimitError(OrderkitError):
    """A definitional enumeration would exceed its configured cap."""

    def __init__(self, what, needed, cap):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what}: {needed} exceeds cap {cap}")


class InputError(OrderkitError, ValueError):
    """A size, count or setting outside its valid range."""


class UnknownNameError(OrderkitError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown instance name {name!r}")


class ParseError(OrderkitError):
    """Bad poset file or predicate expression; carries a location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}: {message}"
        elif column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)
