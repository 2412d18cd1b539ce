"""Experiment plumbing: exponent fits, compensated sums, and machine-readable
output.

Every "fitted exponent" in the package goes through fit_exponent (least
squares on log-log axes), every compensated sum through compensated_sum.
Output helpers emit CSV with a header row naming each quantity, or JSON
objects carrying a schema version.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

JSON_SCHEMA_VERSION = 1


@dataclass
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    samples: list  # (x, y) pairs as fitted

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("fit needs at least two samples")
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared out of [0, 1]")


def fit_exponent(samples) -> FitResult:
    """Least squares of log(magnitude) against log(scale).

    samples: iterable of (scale, magnitude), scales and magnitudes positive
    and finite, at least two distinct scales.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if len(pts) < 2:
        raise ValueError("need at least two samples")
    if not all(0 < x < math.inf and 0 < y < math.inf for x, y in pts):
        raise ValueError("scales and magnitudes must be positive and finite")
    if len({x for x, _ in pts}) < 2:
        raise ValueError("need at least two distinct scales")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    n = len(pts)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    syy = sum((y - my) ** 2 for y in ly)
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(lx, ly))
    r2 = 1.0 if syy == 0 else max(0.0, 1.0 - ss_res / syy)
    return FitResult(slope=slope, intercept=intercept, r_squared=r2, samples=pts)


def compensated_sum(terms) -> complex:
    """Kahan sum of real or complex terms, the real and imaginary parts each
    carrying its own compensation; the long oscillatory sums of spectral
    accumulate here."""
    sr = si = cr = ci = 0.0
    for term in terms:
        yr = term.real - cr
        tr = sr + yr
        cr = (tr - sr) - yr
        sr = tr
        yi = term.imag - ci
        ti = si + yi
        ci = (ti - si) - yi
        si = ti
    return complex(sr, si)


def write_csv(rows: list, header: list, path: str | None = None) -> str:
    """Render rows to CSV (returns the text; writes it when path given)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def write_json(obj, path: str | None = None) -> str:
    """Render an object to versioned JSON (schema field added at top level).

    Standard JSON only: a nan or infinite value raises ValueError rather
    than printing the non-standard NaN or Infinity.
    """
    payload = {"schema": JSON_SCHEMA_VERSION}
    payload.update(obj)
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default,
                      allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _json_default(value):
    from fractions import Fraction
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "pair"):
        return str(value)
    if hasattr(value, "__dict__"):
        return {k: v for k, v in vars(value).items() if not k.startswith("_")}
    raise TypeError(f"cannot serialize {type(value)}")
