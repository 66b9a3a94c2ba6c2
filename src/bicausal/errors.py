"""Semantic exception hierarchy.

Every error raised by the library derives from :class:`BicausalError`, so
callers (notably the CLI) can map failures to an error category without
string matching.
"""


class BicausalError(Exception):
    """Base class for all library errors."""

    category = "internal"


class InvalidParameter(BicausalError):
    """A parameter, hyperparameter, or configuration value violates its domain."""

    category = "invalid-parameter"


class DegenerateData(BicausalError):
    """Sample moments are collinear/constant; maximum likelihood variances vanish."""

    category = "degenerate-data"


class NumericalDegeneracy(BicausalError):
    """A log argument that is positive in exact arithmetic came out non-positive,
    or a value that is finite in exact arithmetic overflowed.

    Signals corrupted or overflowing sufficient statistics rather than a
    modeling failure.
    """

    category = "numerical-degeneracy"


class NonConcaveAtMle(BicausalError):
    """The log-likelihood Hessian is not negative definite at the supplied optimum."""

    category = "non-concave-at-mle"


class NonConvergedQuadrature(BicausalError):
    """Grid refinement stalled before reaching the requested agreement."""

    category = "non-converged-quadrature"


class ArgumentOutOfDomain(BicausalError):
    """A closed-form expression was evaluated outside its mathematical domain."""

    category = "argument-out-of-domain"


class ConfigError(BicausalError):
    """Malformed configuration file or CLI argument combination."""

    category = "config"


class DataFormatError(BicausalError):
    """A dataset file could not be parsed."""

    category = "data-format"
