"""geotits: exact verification of Solomon-Tits style theorems for finite
collections of geodesic subspaces in Euclidean, hyperbolic and spherical
geometry."""

__version__ = "0.1.0"

# There is one integer kernel, in pure Python; the name stays for
# tools that record which kernel produced a result.
kernel_backend = "python"


class HypothesesError(Exception):
    """A documented precondition of a check fails for the scene (exit 3).
    Each precondition is decided once, before the expensive part; any
    other exception is an internal error."""
