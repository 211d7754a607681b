"""Exception types shared across the package."""


class ContractViolation(Exception):
    """A caller broke a documented precondition (dimension mismatch, dangling
    adjacency, removing a variable with live factors, ...)."""


class SingularGaussianError(Exception):
    """Precision matrix is not invertible where moments were requested."""


class DegeneratePlaneError(Exception):
    """Plane passes through (or too close to) the origin, where the minimal
    normal-times-distance parametrisation collapses."""


class CapacityError(Exception):
    """A routing pool ran out of slots; message names the exhausted pool."""


class FormatError(Exception):
    """Malformed or version-mismatched serialised artefact."""
