"""Spectral exponential sums and the explicit-formula comparison.

Eigenvalue data (spectral parameters r_j with lambda_j = 1 + r_j^2) is user
supplied; nothing here ships a claimed spectrum.  File format: plain text,
one positive decimal per line, ascending; '#' starts a comment; an optional
"# source: <string>" header is recorded as provenance.

Given a table, the module evaluates

    S(T, X)  = sum_{0 < r_j <= T} X^(i r_j)               (compensated)
    E-side   = 2 Re sum_{0 < r_j <= T} X^(1+i r_j)/(1+i r_j)

and compares the spectral side with a geodesic count: the residual
|psi - X^2/2 - E-side| is the object the pointwise explicit formula bounds
by O(X^2 log X / T) in the regime T <= sqrt(X).  The smoothed variant
integrates the spectral main+oscillatory integrand against a unit-mass
kernel on (Y, 2Y) and is meaningful when T Y > X^(1+xi).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueFileError
from .geodesics import KernelSpec, _integrate
from .harness import compensated_sum, fit_exponent


@dataclass
class EigenvalueTable:
    """Sorted positive, finite spectral parameters r_j with provenance."""

    r_values: list
    source: str = ""
    checksum: str = ""

    def __post_init__(self):
        for i, r in enumerate(self.r_values):
            if not 0 < r < math.inf:
                raise ValueError(f"spectral parameter {r!r} at index {i} is not "
                                 f"positive and finite")
            if i and r <= self.r_values[i - 1]:
                raise ValueError(f"table not strictly ascending at index {i}")

    def count_upto(self, T: float) -> int:
        return int(np.searchsorted(np.asarray(self.r_values), T, side="right"))


def load_eigenvalues(path: str) -> EigenvalueTable:
    """Parse an eigenvalue file; validates ordering, positivity and finiteness."""
    rs: list[float] = []
    source = ""
    with open(path, "rb") as fh:
        raw = fh.read()
    checksum = hashlib.sha256(raw).hexdigest()
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if body.lower().startswith("source:"):
                source = body[len("source:"):].strip()
            continue
        try:
            r = float(text)
        except ValueError as exc:
            raise EigenvalueFileError(f"cannot parse {text!r}", line=lineno) from exc
        if not 0 < r < math.inf:
            raise EigenvalueFileError(f"entry {text!r} is not positive and finite",
                                      line=lineno)
        if rs and r <= rs[-1]:
            raise EigenvalueFileError(f"entry {r} not strictly ascending", line=lineno)
        rs.append(r)
    return EigenvalueTable(r_values=rs, source=source, checksum=checksum)


def spectral_sum(table: EigenvalueTable, T: float, X: float) -> complex:
    """S(T, X) = sum_{0 < r_j <= T} X^(i r_j), Kahan-compensated."""
    if not (0 <= T and 1 <= X < math.inf):
        raise ValueError(f"need T >= 0 and a finite X >= 1, got T={T!r}, X={X!r}")
    lx = math.log(X)
    return compensated_sum(complex(math.cos(r * lx), math.sin(r * lx))
                           for r in table.r_values if r <= T)


def stx_bound_report(table: EigenvalueTable, t_grid, x_grid) -> list:
    """Rows (T, X, |S(T,X)|, ratio) with ratio = |S| / (T^2 X^(1/4)).

    The assertion the suite makes is a trend (ratios do not grow with T
    along the grid), not any fixed constant.
    """
    if not table.r_values:
        raise ValueError("empty eigenvalue table")
    rows = []
    for T in t_grid:
        for X in x_grid:
            s = abs(spectral_sum(table, T, X))
            rows.append((float(T), float(X), s, s / (T**2 * X**0.25)))
    return rows


def _spectral_main(table: EigenvalueTable, T: float, X: float) -> float:
    """2 Re sum_{r_j <= T} X^(1+i r_j) / (1 + i r_j)."""
    lx = math.log(X)
    return compensated_sum(2.0 * (X * complex(math.cos(r * lx), math.sin(r * lx))
                                  / complex(1.0, r)).real
                           for r in table.r_values if r <= T).real


@dataclass
class ExplicitFormulaResidual:
    X: float
    T: float
    residual: float
    spectral_side: float
    regime_ok: bool   # pointwise formula stated for T <= sqrt(X)


def explicit_formula_residual(table: EigenvalueTable, X: float, T: float,
                              geodesic_psi: float) -> ExplicitFormulaResidual:
    """|psi - X^2/2 - 2 Re sum X^(1+ir_j)/(1+ir_j)| with a regime flag."""
    if not table.r_values:
        spectral = 0.0
    else:
        spectral = _spectral_main(table, T, X)
    residual = abs(geodesic_psi - X * X / 2.0 - spectral)
    return ExplicitFormulaResidual(X=float(X), T=float(T), residual=residual,
                                   spectral_side=spectral,
                                   regime_ok=T <= math.sqrt(X))


@dataclass
class SmoothedSpectralSide:
    X: float
    T: float
    Y: float
    value: float
    regime_ok: bool   # needs T Y > X^(1+xi)


def smoothed_spectral_side(table: EigenvalueTable, X: float, T: float,
                           kernel: KernelSpec, xi: float = 0.1) -> SmoothedSpectralSide:
    """integral (1/2 (X+u)^2 + 2 Re sum (X+u)^(1+ir_j)/(1+ir_j)) k(u) du.

    Quadrature at 1e-6 relative: composite Gauss-Legendre with enough
    segments to resolve the fastest oscillation (X+u)^(i r_max).
    """
    Y = kernel.Y
    rs = [r for r in table.r_values if r <= T]
    rmax = rs[-1] if rs else 0.0
    # phase r log(X+u): derivative <= r_max / X per unit u; resolve ~8 pts/period
    periods = rmax * Y / max(X, 1.0) / (2.0 * math.pi)
    segments = max(64, int(8 * periods) + 1)

    def integrand(u):
        lxu = np.log(X + u)
        osc = 0.0
        for r in rs:
            osc = osc + ((X + u) * np.exp(1j * r * lxu) / complex(1.0, r)).real
        return (0.5 * (X + u) ** 2 + 2.0 * osc) * kernel.value(u)

    val = float(_integrate(integrand, Y, 2.0 * Y, segments=segments))
    return SmoothedSpectralSide(X=float(X), T=float(T), Y=float(Y), value=val,
                                regime_ok=T * Y > X ** (1.0 + xi))


def weyl_law_exponent(table: EigenvalueTable) -> float | None:
    """Fitted exponent of #(r_j <= T) against T; None unless the data spans
    at least one decade."""
    if not table.r_values:
        return None
    rmin, rmax = table.r_values[0], table.r_values[-1]
    if rmax < 10.0 * rmin:
        return None
    ts = np.geomspace(rmin * 2.0, rmax, 12)
    counts = np.array([table.count_upto(t) for t in ts], dtype=np.float64)
    keep = counts > 0
    return fit_exponent(zip(ts[keep], counts[keep])).slope
