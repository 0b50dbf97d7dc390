"""Exception types shared across the library."""


class HdalibError(Exception):
    """Base class for all library errors."""


class AxiomViolation(HdalibError):
    """An ipomset axiom failed: cyclic order, uncovered pair, bad interface,
    or a precedence relation that is not an interval order."""


class InterfaceMismatch(HdalibError):
    """Gluing was attempted along interfaces that are not isomorphic losets."""


class NotRemovable(HdalibError):
    """Target removal asked for events outside rfin(P)."""


class MalformedInterval(HdalibError):
    """An interval representation has end < begin or unparseable endpoints."""


class NotDownClosed(HdalibError):
    """A language declared closed is missing a refinement of a member."""


class FaceTypingError(HdalibError):
    """A face map points at a cell of the wrong loset type."""


class ParseError(HdalibError):
    """A file or expression does not match its grammar."""
