"""Closed-form probabilistic bounds for conic condition numbers.

Tail and log-expectation bounds driven by the ambient dimension p, the
degree d of the polynomials cutting out the ill-posed set, the cap
radius sigma, and the threshold t (or tube radius eps). All sums are
evaluated in log space so that large p and d stay finite, and a bound
beyond the double range is inf. Scalar arithmetic on the standard library
only: `import spherecond` and every `spherecond bounds` mode load no numpy.
"""

from __future__ import annotations

import math


def _log_O(p: int) -> float:
    """ln O_p, the volume of S^p."""
    return math.log(2.0) + 0.5 * (p + 1) * math.log(math.pi) - math.lgamma(0.5 * (p + 1))


def _log_binom(n: int, k: int) -> float:
    """ln C(n, k)."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _logsumexp(a) -> float:
    """ln sum exp(a) for finite a: the max, plus the log of the sum of the shifted exps."""
    top = max(a)
    return float(top + math.log(math.fsum(math.exp(x - top) for x in a)))


def _exp(log_value: float) -> float:
    """exp of a log bound: inf, without a warning, beyond the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _check_range(p: int, d: int, sigma: float, eps: float | None = None,
                 min_p: int = 1) -> None:
    if p < 1:
        raise ValueError("p must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    if eps is not None and not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if p < min_p:
        raise ValueError(f"this bound needs p >= {min_p}")


def _log_tail_core(p: int, d: int, ratio: float) -> float:
    """ln of 4 sum_k C(p,k)(2d)^k (1+r)^{p-k} r^k + (2p O_p/O_{p-1}) (2d)^p r^p."""
    log_r = math.log(ratio)
    log_2d = math.log(2.0 * d)
    log_1r = math.log1p(ratio)
    terms = []
    if p >= 2:
        terms.append(_logsumexp([
            math.log(4.0) + _log_binom(p, k) + k * log_2d + (p - k) * log_1r + k * log_r
            for k in range(1, p)
        ]))
    last = (
        math.log(2.0 * p) + _log_O(p) - _log_O(p - 1) + p * (log_2d + log_r)
    )
    terms.append(last)
    return _logsumexp(terms)


def log_tail_bound(p: int, d: int, sigma: float, t: float) -> float:
    """ln tail_bound(p, d, sigma, t), finite also where the bound overflows a double."""
    _check_range(p, d, sigma)
    if not 1.0 <= t < math.inf:
        raise ValueError("t must be >= 1 and finite (the bound is vacuous below 1)")
    return _log_tail_core(p, d, 1.0 / (t * sigma))


def tail_bound(p: int, d: int, sigma: float, t: float) -> float:
    """Upper bound on Prob{C(z) >= t} for z uniform on a cap of radius sigma;
    inf, without a warning, beyond the double range."""
    return _exp(log_tail_bound(p, d, sigma, t))


def log_tube_ratio_bound(p: int, d: int, sigma: float, eps: float) -> float:
    """ln tube_ratio_bound(p, d, sigma, eps), finite also where the bound overflows a double."""
    _check_range(p, d, sigma, eps)
    return _log_tail_core(p, d, eps / sigma)


def tube_ratio_bound(p: int, d: int, sigma: float, eps: float) -> float:
    """Upper bound on vol(T(W,eps) cap B(a,sigma)) / vol B(a,sigma); inf beyond
    the double range."""
    return _exp(log_tube_ratio_bound(p, d, sigma, eps))


def expectation_bound(p: int, d: int, sigma: float) -> float:
    """Upper bound on E ln C over the cap: 2 ln p + 2 ln d + 2 ln(1/sigma) + 5.5."""
    _check_range(p, d, sigma, min_p=2)
    return 2.0 * math.log(p) + 2.0 * math.log(d) + 2.0 * math.log(1.0 / sigma) + 5.5


def smooth_tube_bound(p: int, d: int, sigma: float, eps: float) -> float:
    """Absolute-volume bound on the normal tube around a smooth hypersurface patch.

    (4 O_{p-1}/p) sum_{k<p} C(p,k) d^k eps^k sigma^{p-k} + 2 O_p d^p eps^p.
    Stated for even degree d; odd d is accepted for exploratory use. inf beyond
    the double range.
    """
    _check_range(p, d, sigma, eps, min_p=2)
    log_d, log_e, log_s = math.log(d), math.log(eps), math.log(sigma)
    logs = [
        math.log(4.0) + _log_O(p - 1) - math.log(p)
        + _log_binom(p, k) + k * (log_d + log_e) + (p - k) * log_s
        for k in range(1, p)
    ]
    logs.append(math.log(2.0) + _log_O(p) + p * (log_d + log_e))
    return _exp(_logsumexp(logs))


def curvature_integral_bound(p: int, d: int, sigma: float, i: int) -> float:
    """Degree bound on the i-th absolute curvature integral over a cap patch:

    2 C(p-1,i) O_{p-1} d^{i+1} sigma^{p-i-1}, inf beyond the double range.
    """
    if not 0 <= i <= p - 1 or d < 1 or not 0.0 < sigma <= 1.0:
        raise ValueError("need 0 <= i <= p-1, d >= 1, sigma in (0, 1]")
    return _exp(
        math.log(2.0) + _log_binom(p - 1, i) + _log_O(p - 1)
        + (i + 1) * math.log(d) + (p - i - 1) * math.log(sigma)
    )


def linear_tail_bound(p: int, d: int, sigma: float, eps: float) -> float | None:
    """Linearized tail bound (8e+4) d p eps/sigma, valid only for small eps.

    Returns None when eps exceeds sigma / ((1+2d)(p-1)), where the
    linearization does not apply.
    """
    _check_range(p, d, sigma, eps, min_p=2)
    if eps > sigma / ((1 + 2 * d) * (p - 1)):
        return None
    return (8.0 * math.e + 4.0) * d * p * eps / sigma


PROBLEM_KINDS = ("matrix-inversion", "moore-penrose", "eigen-real", "eigen-complex", "polysys")


class ProblemDescriptor:
    """A named problem, one of PROBLEM_KINDS, whose ill-posed set has known
    dimension and degree: moore-penrose takes (l, m), polysys its degrees, the
    other kinds n. A size of another kind is an error.

    Immutable, compared and hashed by its fields. A plain class, not a frozen
    dataclass: importing `dataclasses` (and `inspect`) was most of this module's
    share of a cold `spherecond bounds`.
    """

    __slots__ = ("kind", "n", "l", "m", "degrees")

    def __init__(self, kind: str, n: int | None = None, l: int | None = None,
                 m: int | None = None, degrees: tuple[int, ...] | None = None):
        for name, value in zip(self.__slots__, (kind, n, l, m, degrees)):
            object.__setattr__(self, name, value)
        # the fields are the CLI's flags, so each message names the flag to fix
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        sizes = {"moore-penrose": ("l", "m"), "polysys": ("degrees",)}.get(self.kind, ("n",))
        other = [f"--{name}" for name in ("n", "l", "m", "degrees")
                 if name not in sizes and getattr(self, name) is not None]
        if other:
            raise ValueError(f"{self.kind} takes no {', '.join(other)}")
        if self.kind == "moore-penrose":
            if self.l is None or self.m is None or not self.l >= self.m >= 1:
                raise ValueError("moore-penrose needs --l >= --m >= 1")
        elif self.kind == "polysys":
            if not self.degrees or any(d < 1 for d in self.degrees):
                raise ValueError("polysys needs --degrees, each >= 1")
        elif self.n is None or self.n < 2:
            raise ValueError(f"{self.kind} needs --n >= 2")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # unpickling must not go through __setattr__
        return type(self), self._fields()

    def ambient_dim_and_degree(self) -> tuple[int, int]:
        """(p, d) of the sphere and defining-polynomial degree for tail bounds."""
        if self.kind == "matrix-inversion":
            return self.n**2 - 1, self.n
        if self.kind == "moore-penrose":
            return self.l * self.m - 1, self.m
        if self.kind == "eigen-real":
            return self.n**2 - 1, self.n**2 - self.n
        if self.kind == "eigen-complex":
            return 2 * self.n**2 - 1, self.n**2 - self.n
        nvars = len(self.degrees)
        dim = sum(math.comb(nvars + di, nvars) for di in self.degrees)
        bezout = math.prod(self.degrees)
        return dim - 1, 2 * nvars * bezout**2


def application_bound(problem: ProblemDescriptor, sigma: float) -> float:
    """Bound on E ln C for a named problem: the paper's corollary, which coarsens
    expectation_bound at the problem's (p, d) and so lies above it."""
    p, d = problem.ambient_dim_and_degree()
    _check_range(p, d, sigma, min_p=2)
    ls = 2.0 * math.log(1.0 / sigma)
    if problem.kind == "matrix-inversion":
        return 6.0 * math.log(problem.n) + ls + 5.5
    if problem.kind == "moore-penrose":
        return 2.0 * math.log(problem.l) + 4.0 * math.log(problem.m) + ls + 5.5
    if problem.kind == "eigen-real":
        return 8.0 * math.log(problem.n) + ls + 6.0
    if problem.kind == "eigen-complex":
        return 8.0 * math.log(problem.n) + ls + 6.0 + 2.0 * math.log(2.0)
    nvars = len(problem.degrees)
    bezout = math.prod(problem.degrees)
    return (2.0 * math.log(p) + 4.0 * math.log(bezout)
            + 2.0 * math.log(nvars) + ls + 7.0)
