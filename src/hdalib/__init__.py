"""Higher-dimensional automata, ipomset languages, and their quotients."""

from .errors import (
    AxiomViolation,
    FaceTypingError,
    HdalibError,
    InterfaceMismatch,
    MalformedInterval,
    NotDownClosed,
    NotRemovable,
    ParseError,
)
from .ipomset import (
    EMPTY,
    Ipomset,
    IntervalRow,
    Loset,
    StarterTerminator,
    StepSequence,
    STARTER,
    TERMINATOR,
    canonicalize,
    down_close,
    enumerate_divisions,
    fin,
    from_intervals,
    glue,
    identity,
    refinements,
    remove_targets,
    rfin_events,
    sparse_decomposition,
    starter,
    subsumes,
    subsumes_witness,
    terminator,
)

__version__ = "0.1.0"
