"""Exception types and the computation budget guard shared by all modules."""

from __future__ import annotations


class EllnmdsError(Exception):
    """Base class for all library errors."""


class NotPrime(EllnmdsError):
    pass


class NotPrimePower(EllnmdsError):
    pass


class Overflow(EllnmdsError):
    pass


class DivisionByZero(EllnmdsError):
    pass


class EvenCharacteristic(EllnmdsError):
    pass


class Singular(EllnmdsError):
    pass


class ScanLimitExceeded(EllnmdsError):
    pass


class BadIndex(EllnmdsError):
    pass


class KOutOfRange(EllnmdsError):
    pass


class ArcPropertyViolated(EllnmdsError):
    """A hyperplane met the point set in more than k points.

    For images of elliptic curves this can only happen through an
    implementation bug, so it is raised loudly instead of being reported.
    """


class InvariantViolated(EllnmdsError):
    """An internal invariant failed; only an implementation bug can cause it."""


class DimensionMismatch(EllnmdsError):
    pass


class PointOnCurve(EllnmdsError):
    pass


class NoFrameFound(EllnmdsError):
    pass


class NoWitnessFound(EllnmdsError):
    """No witness hyperplane exists for the point under the case analysis.

    Carries the point so callers can collect surviving candidates.
    """

    def __init__(self, point, message=""):
        self.point = tuple(point)
        super().__init__(message or f"no witness hyperplane for {self.point}")


class FrameViolation(EllnmdsError):
    pass


class HypothesisNotMet(EllnmdsError):
    pass


class BudgetExceeded(EllnmdsError):
    """Raised before starting work whose estimated cost exceeds the budget."""

    def __init__(self, label: str, estimate: int, remaining: int):
        self.label = label
        self.estimate = int(estimate)
        self.remaining = int(remaining)
        super().__init__(
            f"{label}: estimated cost {self.estimate:_} element-multiplications "
            f"exceeds remaining budget {self.remaining:_}"
        )


DEFAULT_BUDGET_LIMIT = 5_000_000_000


class Budget:
    """Tracks estimated element-multiplication spend across big scans.

    Operations estimate their cost up front and call :meth:`charge`; a charge
    that would push the total past the limit raises :class:`BudgetExceeded`
    without doing any work.  A limit of ``None`` disables the guard but still
    accounts spend for reports.
    """

    def __init__(self, limit: int | None = DEFAULT_BUDGET_LIMIT):
        self.limit = limit
        self.spent = 0

    @property
    def remaining(self) -> int:
        if self.limit is None:
            return 2**63 - 1
        return max(0, self.limit - self.spent)

    def charge(self, label: str, estimate: int) -> None:
        if estimate < 0:
            raise InvariantViolated(f"{label}: negative cost estimate {int(estimate)}")
        if self.limit is not None and self.spent + int(estimate) > self.limit:
            raise BudgetExceeded(label, int(estimate), self.remaining)
        self.spent += int(estimate)


def ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()
