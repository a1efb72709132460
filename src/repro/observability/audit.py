"""The inline-decision audit log.

Every call-graph arc the selector considers produces exactly one
:class:`InlineDecision` carrying the §2.3.3 cost inputs and a reason
code, making the paper's cost function fully inspectable:

===================  ==============================================
Reason code          §3 cost-function clause
===================  ==============================================
``ACCEPTED``         final clause — cost is ``code_size(callee)``
``NOT_DIRECT``       precondition: callee body unavailable (``$$$``)
                     or call through a pointer (``###``)
``ORDER_VIOLATION``  §3.3 linearization: callee not strictly before
                     its caller in the linear sequence
``CALLEE_UNAVAILABLE``  the callee has no body in the module (or no
                     position in the linear sequence at all), so there
                     is nothing to expand — distinct from a mere
                     ordering conflict between two available bodies
``SELF_RECURSIVE``   §2.3 scope: simple recursion never expanded
``RECURSIVE_LIMIT``  first clause — recursive path and
                     ``control_stack_usage > BOUND``
``BELOW_THRESHOLD``  second clause — ``weight(arc) < T``
``SIZE_LIMIT``       third clause — expansion would push the program
                     past the code-size limit
``RETURN_MISMATCH``  the call site consumes a result but the callee
                     has a valueless ``RET``: physical expansion would
                     leave the destination register unwritten, so the
                     arc is never expandable
``MAX_EXPANSIONS``   implementation safety valve on the number of
                     physical expansions
===================  ==============================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DecisionReason(enum.Enum):
    """Why an arc was accepted for — or excluded from — expansion."""

    ACCEPTED = "ACCEPTED"
    NOT_DIRECT = "NOT_DIRECT"
    ORDER_VIOLATION = "ORDER_VIOLATION"
    CALLEE_UNAVAILABLE = "CALLEE_UNAVAILABLE"
    SELF_RECURSIVE = "SELF_RECURSIVE"
    RECURSIVE_LIMIT = "RECURSIVE_LIMIT"
    BELOW_THRESHOLD = "BELOW_THRESHOLD"
    SIZE_LIMIT = "SIZE_LIMIT"
    RETURN_MISMATCH = "RETURN_MISMATCH"
    MAX_EXPANSIONS = "MAX_EXPANSIONS"


@dataclass
class InlineDecision:
    """One selector verdict on one call-graph arc."""

    site: int
    caller: str
    callee: str
    weight: float
    reason: DecisionReason
    #: The §2.3.3 cost for accepted arcs (the callee's code size);
    #: ``None`` when the arc never reached the cost function.
    cost: float | None = None
    #: The cost-function inputs at decision time (threshold, sizes,
    #: limits, stack usage — whatever the reached clauses examined).
    inputs: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.reason is DecisionReason.ACCEPTED

    def to_record(self) -> dict:
        """Flatten into a JSONL-ready trace record."""
        return {
            "type": "inline_decision",
            "site": self.site,
            "caller": self.caller,
            "callee": self.callee,
            "weight": self.weight,
            "reason": self.reason.value,
            "cost": self.cost,
            "inputs": dict(self.inputs),
        }
