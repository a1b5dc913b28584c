"""Exception types shared across the package."""


class LambdaOpsError(Exception):
    """Base class for all package errors."""


class NonSymmetricInput(LambdaOpsError):
    """Input polynomial is not symmetric in the requested alphabet."""


class NotReduced(LambdaOpsError):
    """Operand must lie in the augmentation ideal (zero constant/unit part)."""


class NotAugmented(LambdaOpsError):
    """Operand must have vanishing augmentation before looping."""


class WindowExhausted(LambdaOpsError):
    """A required integer left the active window [-W, W]."""


class TruncationExceeded(LambdaOpsError):
    """A required generator index exceeds the truncation level."""


class InvalidFamily(LambdaOpsError):
    """Orthogonal-idempotent family invariants violated."""


class RegistrationFailure(LambdaOpsError):
    """A model failed its axiom suite at registration."""


class RankUnderflow(LambdaOpsError):
    """Restriction below rank one is undefined."""


class IndexOutOfRange(LambdaOpsError):
    """Generator index incompatible with the model rank."""
