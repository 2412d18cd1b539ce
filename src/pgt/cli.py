"""Command-line interface.

Subcommands: psi, interval, smoothed, lfun, circle, kloosterman, spectral,
exponents, verify.  Output is JSON (schema-versioned) or CSV with named
columns; given identical options (seed included) the output bytes are
identical run to run.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from . import exponents as ex
from . import gaussian as g
from . import geodesics as geo
from . import lattice
from . import lfunctions as lf
from . import quad_counts as qc
from . import spectral as spec_mod
from .acceptance import run_all
from .characters import discriminant_split, is_perfect_square, quadratic_character
from .errors import EigenvalueFileError, OverflowGuardError
from .gaussian import GaussianInt, canonical_rep
from .harness import write_csv, write_json


def parse_gaussian(text: str) -> GaussianInt:
    """Parse '3+2i', '-5', '4i', '1-i', 'i' into a Gaussian integer."""
    s = text.strip().replace(" ", "")
    m = re.fullmatch(r"([+-]?\d+)", s)
    if m:
        return _gaussian(int(m.group(1)), 0, repr(text))
    m = re.fullmatch(r"([+-]?\d*)i", s)
    if m:
        part = m.group(1)
        if part in ("", "+"):
            return GaussianInt(0, 1)
        if part == "-":
            return GaussianInt(0, -1)
        return _gaussian(0, int(part), repr(text))
    m = re.fullmatch(r"([+-]?\d+)([+-]\d*)i", s)
    if m:
        re_part = int(m.group(1))
        im_text = m.group(2)
        if im_text in ("+", "-"):
            im_text += "1"
        return _gaussian(re_part, int(im_text), repr(text))
    raise argparse.ArgumentTypeError(f"cannot parse Gaussian integer {text!r}")


def _gaussian(re_part: int, im_part: int, what: str) -> GaussianInt:
    try:
        return GaussianInt(re_part, im_part)
    except OverflowGuardError:
        raise argparse.ArgumentTypeError(
            f"components must lie below 2^31 in size, got {what}") from None


def parse_discriminant(text: str) -> GaussianInt:
    """--delta: a Gaussian integer that is neither zero nor a perfect square."""
    delta = parse_gaussian(text)
    if is_perfect_square(delta):
        raise argparse.ArgumentTypeError(
            f"delta must be nonzero and not a perfect square, got {text!r}")
    return delta


def parse_trace(text: str) -> GaussianInt:
    """--trace: a Gaussian integer n whose delta = n^2 - 4 passes parse_discriminant."""
    n = parse_gaussian(text)
    re_part, im_part = g.sub(g.mul(n.pair, n.pair), (4, 0))
    if is_perfect_square(_gaussian(re_part, im_part, f"n^2 - 4 for n = {text!r}")):
        raise argparse.ArgumentTypeError(
            f"delta = n^2 - 4 must be nonzero and not a perfect square, got n = {text!r}")
    return n


def parse_modulus(text: str) -> GaussianInt:
    """--c of kloosterman: nonzero, with norm within the enumeration cutoff."""
    c = parse_gaussian(text)
    if c.is_zero() or c.norm() > qc.KLOOSTERMAN_NORM_CUTOFF:
        raise argparse.ArgumentTypeError(
            f"modulus must be nonzero with norm <= {qc.KLOOSTERMAN_NORM_CUTOFF}, "
            f"got {text!r}")
    return c


def parse_theta(text: str) -> Fraction:
    return Fraction(text)


def in_range(lo, hi, *, kind=float, open_lo=False, open_hi=False):
    """An argparse type: text read by kind whose value lies between lo and hi,
    each end excluded when its open_ flag is set; nan lies in no range."""
    def number(text):  # argparse names it in "invalid number value"
        value = kind(text)
        if not ((lo < value if open_lo else lo <= value)
                and (value < hi if open_hi else value <= hi)):
            shown = [f"{v:g}" if isinstance(v, float) else str(v) for v in (lo, hi)]
            raise argparse.ArgumentTypeError(
                f"must lie in {'(' if open_lo else '['}{shown[0]}, "
                f"{shown[1]}{')' if open_hi else ']'}, got {text!r}")
        return value
    return number


# a tolerance, smoothing length, threshold or window: a finite float > 0
parse_positive = in_range(0.0, math.inf, open_lo=True, open_hi=True)
parse_seed = in_range(0, 2**64, kind=int, open_hi=True)
parse_psi_x = in_range(10.0, geo.PSI_X_CAP)
parse_m = in_range(0.0, lattice.CIRCLE_M_CAP, open_lo=True)


def parse_grid(text: str) -> list:
    """'1e3:1e6' = decades from 1e3 to 1e6; or comma-separated values.

    The bounds and values lie in (0, lattice.CIRCLE_M_CAP], and a grid has
    at least two distinct values (the fit's least number).
    """
    if ":" in text:
        m, hi = (parse_m(x) for x in text.split(":", 1))
        grid = []
        while m <= hi * 1.0000001:
            grid.append(m)
            m *= 10.0
    else:
        grid = text.split(",")
    grid = [parse_m(m) for m in grid]
    if len(set(grid)) < 2:
        raise argparse.ArgumentTypeError(
            f"needs at least two distinct values, got {text!r}")
    return grid


def _emit(args, obj, header, rows=None) -> None:
    """Write obj as JSON, or as CSV: rows under header, by default the one
    row of obj's values at the header's columns."""
    if args.format == "csv":
        if rows is None:
            rows = [[obj[k] for k in header]]
        text = write_csv(rows, header, args.output)
    else:
        text = write_json(obj, args.output)
    if not args.output:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=parse_positive, default=None,
                   help="accuracy target (default: each command's own)")


def _psi_options(args) -> geo.PsiOptions:
    if args.tol is None:
        return geo.PsiOptions(V=args.v)
    return geo.PsiOptions(tol=args.tol, V=args.v)


def cmd_psi(args) -> int:
    opts = _psi_options(args)
    r = geo.psi(args.x, opts)
    _emit(args, {
        "command": "psi", "x": r.X, "psi": r.psi, "main": r.main,
        "remainder": r.remainder, "constant_used": r.constant_used,
        "v_used": r.v_used, "band": r.band, "n_terms": r.n_terms,
    }, ["x", "psi", "main", "remainder", "constant_used", "v_used", "band", "n_terms"])
    return 0


def cmd_interval(args) -> int:
    Y = args.y if args.y is not None else args.x ** args.nu
    opts = _psi_options(args)
    r = geo.psi_short_interval(args.x, Y, opts)
    _emit(args, {
        "command": "interval", "x": r.X, "y": r.Y, "nu": math.log(r.Y) / math.log(r.X),
        "difference": r.difference, "main": r.main, "remainder": r.remainder,
        "normalized_error": r.normalized_error, "v_used": r.v_used,
        "band": r.band, "n_terms": r.n_terms,
    }, ["x", "y", "difference", "main", "remainder", "normalized_error", "v_used",
        "band", "n_terms"])
    return 0


def cmd_smoothed(args) -> int:
    kernel = geo.KernelSpec(Y=args.y)
    opts = _psi_options(args)
    sm = geo.psi_smoothed(args.x, kernel, opts)
    lo = geo.psi(args.x, opts)
    _emit(args, {
        "command": "smoothed", "x": args.x, "y": args.y, "psi_smoothed": sm,
        "psi": lo.psi, "kernel_mass": kernel.mass,
    }, ["x", "y", "psi_smoothed", "psi", "kernel_mass"])
    return 0


def cmd_lfun(args) -> int:
    if args.trace is not None:
        n = args.trace
        delta = n * n - GaussianInt(4, 0)
    else:
        delta = args.delta
        n = None
    tol = args.tol if args.tol is not None else 1e-3
    split = discriminant_split(delta)
    char = quadratic_character(delta)
    V = args.v if args.v is not None else lf.choose_V(delta, tol=tol)
    gv = lf.zagier_L1(delta, V, n=n)
    tval = lf.T_l_poly(1.0, split.D, split.l, char)
    lval = lf.L_chi(1.0, char, V / 8.0)
    _emit(args, {
        "command": "lfun", "delta": str(delta), "D": str(split.D),
        "l": str(split.l.value), "even_value": char.even_value,
        "unit_value": char.unit_value, "v_used": V, "G_V": gv.value,
        "tail_estimate": gv.tail_estimate, "T_at_1": complex(tval).real,
        "L_at_1": lval.value.real, "product": complex(tval).real * lval.value.real,
    }, ["delta", "D", "l", "even_value", "v_used", "G_V", "T_at_1", "L_at_1"])
    return 0


def cmd_circle(args) -> int:
    fit = lattice.eta_fit(args.m_grid, n_centers=args.centers, seed=args.seed)
    rows = [[M, w] for M, w in fit.samples]
    rows.append(["fitted_exponent", fit.fitted_exponent])
    _emit(args, {
        "command": "circle", "samples": fit.samples,
        "fitted_exponent": fit.fitted_exponent, "constant": fit.constant,
        "seed": fit.seed, "n_centers": fit.n_centers,
    }, ["M", "max_remainder"], rows)
    return 0


def cmd_kloosterman(args) -> int:
    c = canonical_rep(args.c)
    kv = qc.kloosterman(args.m, args.n, c)
    ratio = qc.weil_ratio(args.m, args.n, c, kv.value)
    _emit(args, {
        "command": "kloosterman", "m": str(args.m), "n": str(args.n),
        "c": str(c.value), "value_re": kv.value.real, "value_im": kv.value.imag,
        "weil_ratio": ratio,
    }, ["m", "n", "c", "value_re", "value_im", "weil_ratio"])
    return 0


def cmd_spectral(args) -> int:
    try:
        table = spec_mod.load_eigenvalues(args.file)
    except FileNotFoundError:
        print(f"eigenvalue file not found: {args.file}", file=sys.stderr)
        return 2
    except EigenvalueFileError as exc:
        print(f"bad eigenvalue file {args.file}: {exc}", file=sys.stderr)
        return 2
    s = spec_mod.spectral_sum(table, args.t, args.x)
    obj = {
        "command": "spectral", "file": args.file, "source": table.source,
        "checksum": table.checksum, "count": table.count_upto(args.t),
        "T": args.t, "x": args.x, "S_re": s.real, "S_im": s.imag,
        "abs_S": abs(s),
    }
    wexp = spec_mod.weyl_law_exponent(table)
    if wexp is not None:
        obj["weyl_exponent"] = wexp
    _emit(args, obj, ["T", "x", "S_re", "S_im", "abs_S"])
    return 0


def cmd_exponents(args) -> int:
    rows = []
    obj = {"command": "exponents"}
    if args.nu is not None:
        sigma, beta = ex.solve_beta(args.nu)
        obj["nu"] = args.nu
        obj["sigma"] = sigma
        obj["beta_nu"] = beta
        rows.append(["beta_nu", args.nu, "", sigma, beta])
    if args.nu is not None and args.eta is not None:
        sigma_a, alpha = ex.solve_alpha(args.nu, args.eta)
        obj["eta"] = args.eta
        obj["sigma_alpha"] = sigma_a
        obj["alpha_nu_eta"] = alpha
        rows.append(["alpha_nu_eta", args.nu, args.eta, sigma_a, alpha])
    if args.theta is not None:
        cors = ex.corollary_exponents(args.theta)
        shorts = ex.short_interval_exponents(args.theta)
        obj["theta"] = str(args.theta)
        obj["corollary"] = {k: str(v) for k, v in cors.items() if k != "theta"}
        obj["short_interval"] = {k: str(v) for k, v in shorts.items() if k != "theta"}
        for k, v in cors.items():
            if k != "theta":
                rows.append([k, str(args.theta), "", "", str(v)])
        for k, v in shorts.items():
            if k != "theta":
                rows.append([k, str(args.theta), "", "", str(v)])
    if args.nu is None and args.theta is None:
        system = ex.uncond_system()
        obj["system"] = {k: v for k, v in system.items() if k != "closed_forms"}
        rows.append(["sigma", "", "", system["sigma"], ""])
        rows.append(["nu", "", "", "", system["nu"]])
        rows.append(["beta", "", "", "", system["beta"]])
        rows.append(["pointwise_exponent", "", "", "", system["pointwise_exponent"]])
    _emit(args, obj, ["quantity", "nu", "eta", "sigma", "value"], rows)
    return 0


def cmd_verify(args) -> int:
    if args.eigenvalues is not None:
        try:
            open(args.eigenvalues, "rb").close()
        except FileNotFoundError:
            print(f"eigenvalue file not found: {args.eigenvalues}", file=sys.stderr)
            return 2
    results, ok = run_all(quick=args.quick, eigenvalue_path=args.eigenvalues)
    total = sum(r.runtime for r in results)
    print(f"{'OK' if ok else 'FAILURES PRESENT'}; total runtime {total:.0f}s")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgt",
        description="Geodesic counting on the Picard manifold: L-functions, "
                    "lattice counts, Kloosterman sums, exponent balancing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi", help="weighted geodesic count up to x")
    p.add_argument("--x", type=parse_psi_x, required=True)
    p.add_argument("--v", type=parse_positive, default=None, help="smoothing length override")
    _add_tol(p)
    _add_common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("interval", help="short-interval difference at y = x^nu")
    p.add_argument("--x", type=in_range(1.0, geo.PSI_X_CAP, open_lo=True), required=True)
    p.add_argument("--nu", type=in_range(0.0, 1.0, open_lo=True), default=0.7)
    p.add_argument("--y", type=parse_positive, default=None, help="explicit window length")
    p.add_argument("--v", type=parse_positive, default=None)
    _add_tol(p)
    _add_common(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("smoothed", help="kernel-smoothed count")
    p.add_argument("--x", type=parse_psi_x, required=True)
    p.add_argument("--y", type=parse_positive, required=True)
    p.add_argument("--v", type=parse_positive, default=None)
    _add_tol(p)
    _add_common(p)
    p.set_defaults(func=cmd_smoothed)

    p = sub.add_parser("lfun", help="smoothed form L-value and its factorization")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--delta", type=parse_discriminant)
    grp.add_argument("--trace", type=parse_trace, help="trace n; delta = n^2-4")
    p.add_argument("--v", type=parse_positive, default=None)
    _add_tol(p)
    _add_common(p)
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("circle", help="shifted-circle remainder sweep")
    p.add_argument("--m-grid", type=parse_grid, default="1e3:1e6")
    p.add_argument("--centers", type=in_range(1, math.inf, kind=int, open_hi=True),
                   default=100)
    p.add_argument("--seed", type=parse_seed, default=7)
    _add_common(p)
    p.set_defaults(func=cmd_circle)

    p = sub.add_parser("kloosterman", help="one Kloosterman sum and its Weil ratio")
    p.add_argument("--m", type=parse_gaussian, required=True)
    p.add_argument("--n", type=parse_gaussian, required=True)
    p.add_argument("--c", type=parse_modulus, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_kloosterman)

    p = sub.add_parser("spectral", help="spectral exponential sum from a data file")
    p.add_argument("--file", required=True)
    p.add_argument("--t", type=in_range(0.0, math.inf, open_hi=True), required=True)
    p.add_argument("--x", type=in_range(1.0, math.inf, open_hi=True), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("exponents", help="balancing equations and headline exponents")
    p.add_argument("--theta", type=parse_theta, default=None,
                   help="subconvexity exponent as a rational, e.g. 1/6")
    p.add_argument("--nu", type=in_range(1.0 / 3.0, 1.0, open_lo=True), default=None)
    p.add_argument("--eta", type=in_range(0.25, 0.5, open_lo=True), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="reduced cutoffs")
    p.add_argument("--eigenvalues", default=None,
                   help="optional eigenvalue file for the conditional criterion")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
