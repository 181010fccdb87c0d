"""Exception types shared across the package."""


class KGeoError(Exception):
    """Base class for all package-specific failures."""

    row = None  # batch index of the failing row, when a batched solve raises

    def at_row(self, row):
        self.row = int(row)
        return self


class NonAdmissiblePsi(KGeoError):
    """Background potential produces a non-positive reference density."""


class IncompatibleMass(KGeoError):
    """Prescribed density does not integrate to the reference mass."""


class SingularSystem(KGeoError):
    """Linear system of a solve step is singular or numerically unusable."""


class NoConvergence(KGeoError):
    """Newton iteration exhausted its budget above the residual tolerance."""

    def __init__(self, message, residual_sup=None, iterations=None):
        super().__init__(message)
        self.residual_sup = residual_sup
        self.iterations = iterations


class PositivityLoss(KGeoError):
    """Damping could not keep an iterate inside the positivity cone."""


class NegativeDensity(KGeoError):
    """Entropy-type integrand received a density below -1e-10."""


class FamilyMismatch(KGeoError):
    """Fiber family does not align with the requested path or average size."""


class InteriorTooThin(KGeoError):
    """Time direction has no interior rows left to mollify."""


class NotASolution(KGeoError):
    """Field handed to a solution-only check does not solve its equation."""


class SkippedHypothesis(KGeoError):
    """Input data violates the hypotheses of the lemma being checked."""


class ConfigError(KGeoError):
    """Experiment configuration is malformed or inconsistent."""


class SchemaViolation(KGeoError):
    """A config or report does not match its shipped JSON schema.

    ``message`` and ``json_path`` are those of the violation that
    jsonschema.exceptions.best_match would report.
    """

    def __init__(self, schema, message, json_path):
        super().__init__(f"{schema} document does not match its schema: {message} (at {json_path})")
        self.schema = schema
        self.message = message
        self.json_path = json_path
