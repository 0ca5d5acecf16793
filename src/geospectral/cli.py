"""Command-line interface.

Subcommands: decompose, verify, canonical, gen.  Exit codes are a stable
contract: 0 success, 1 I/O or parse error, 2 not diagonalizable, 3
eigensolver non-convergence, 64 usage error.  The default decomposition
tolerance, verify's included, can be overridden by the GEOSPECTRAL_TOL
environment variable; an explicit --tol flag wins over the environment.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import matio
from .errors import (
    ConvergenceError,
    GenerationError,
    GeoSpectralError,
    NotDiagonalizableError,
)
from .realdecomp import DEFAULT_TOL, decompose, real_canonical_form
from .verify import PlantedSpectrum, ToleranceProfile, gen_test_matrix, run_identity_suite

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_DIAGONALIZABLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64

# first matching class wins; every subcommand's errors end here
_EXIT_CODES = (
    (NotDiagonalizableError, EXIT_NOT_DIAGONALIZABLE),
    (ConvergenceError, EXIT_NO_CONVERGENCE),
    (GeoSpectralError, EXIT_IO),
    (OSError, EXIT_IO),
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64; argparse's own 2 means "not diagonalizable" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_tol(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("GEOSPECTRAL_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            print(f"warning: ignoring bad GEOSPECTRAL_TOL={env!r}", file=sys.stderr)
    return DEFAULT_TOL


def _write_json(doc, output):
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            matio.dump_json(doc, fh)
    else:
        matio.dump_json(doc, sys.stdout)


def cmd_decompose(args):
    m = matio.parse_matrix(args.input, args.format)
    dec = decompose(m, _resolve_tol(args.tol))
    doc = matio.decomposition_to_doc(dec, input_digest=matio.file_digest(args.input))
    _write_json(doc, args.output)
    return EXIT_OK


def cmd_verify(args):
    m = matio.parse_matrix(args.input, args.format)
    profile = ToleranceProfile(reconstruction=_resolve_tol(None))
    if args.tol_scale is not None:
        profile = profile.scaled(args.tol_scale)
    report = run_identity_suite(m, profile)
    width = max(len(c.name) for c in report.checks)
    print(f"{'check':<{width}}  {'residual':>12}  {'tolerance':>12}  status")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{c.name:<{width}}  {c.residual:>12.3e}  {c.tolerance:>12.3e}  {status}"
        if c.detail:
            line += f"  ({c.detail})"
        print(line)
    print(f"overall: {'PASS' if report.overall else 'FAIL'} "
          f"({report.elapsed_seconds:.3f}s)")
    return EXIT_OK if report.overall else EXIT_IO


def cmd_canonical(args):
    m = matio.parse_matrix(args.input, args.format)
    dec = decompose(m, _resolve_tol(args.tol))
    b_real, l_real = real_canonical_form(dec)
    residual = np.linalg.norm(b_real @ l_real @ np.linalg.inv(b_real) - m, "fro")
    norm_m = np.linalg.norm(m, "fro")
    rel = residual / norm_m if norm_m else residual
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        matio.write_matrix_market(out / "B_real.mtx", b_real, comment="real eigenvector basis")
        matio.write_matrix_market(out / "L_real.mtx", l_real, comment="real canonical block form")
        print(f"wrote {out / 'B_real.mtx'} and {out / 'L_real.mtx'}")
        print(f"similarity residual: {rel:.3e}")
    else:
        _write_json(
            {
                "schema_version": matio.SCHEMA_VERSION,
                "B_real": matio.matrix_to_doc(b_real),
                "L_real": matio.matrix_to_doc(l_real),
                "similarity_residual": rel,
            },
            args.output,
        )
    return EXIT_OK


def _draw_spectrum(rng, n_real, n_pairs, min_separation=0.05):
    """Seeded eigenvalue draw with enforced pairwise separation."""
    for _ in range(1000):
        reals = tuple(float(x) for x in rng.uniform(-2.0, 2.0, n_real))
        pairs = tuple(
            (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 2.0)))
            for _ in range(n_pairs)
        )
        spec = PlantedSpectrum(reals, pairs, basis_seed=0)
        if spec.min_separation() >= min_separation:
            return reals, pairs
    raise GenerationError("could not draw a separated spectrum")


def cmd_gen(args):
    n_real = args.real if args.real is not None else args.size - 2 * (args.pairs or 0)
    n_pairs = args.pairs or 0
    if n_real < 0 or n_real + 2 * n_pairs != args.size:
        print(
            f"error: --real {n_real} + 2*--pairs {n_pairs} != --size {args.size}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    reals, pairs = _draw_spectrum(rng, n_real, n_pairs)
    spec = PlantedSpectrum(reals, pairs, basis_seed=args.seed, condition_cap=args.cond_cap)
    m = gen_test_matrix(spec)
    fmt = matio.detect_format(args.output) or matio.FORMAT_MATRIX_MARKET
    if fmt == matio.FORMAT_CSV:
        matio.write_csv(args.output, m)
    else:
        matio.write_matrix_market(args.output, m, comment=f"planted spectrum, seed {args.seed}")
    sidecar = args.output + ".spectrum.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        matio.dump_json(
            {
                "schema_version": matio.SCHEMA_VERSION,
                "seed": args.seed,
                "condition_cap": args.cond_cap,
                "real_eigenvalues": list(reals),
                "complex_pairs": [list(p) for p in pairs],
                "min_separation": spec.min_separation(),
            },
            fh,
        )
    print(f"wrote {args.output} and {sidecar}")
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="geospectral",
        description="Real, coordinate-free spectral decomposition of real matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a matrix into real and plane terms")
    p.add_argument("input", help="matrix file (.mtx Matrix Market array or .csv)")
    p.add_argument("--format", choices=[matio.FORMAT_MATRIX_MARKET, matio.FORMAT_CSV])
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", "-o", default=None, help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="run the identity-check suite on a matrix")
    p.add_argument("input")
    p.add_argument("--format", choices=[matio.FORMAT_MATRIX_MARKET, matio.FORMAT_CSV])
    p.add_argument("--tol-scale", type=float, default=None,
                   help="multiply every check tolerance by this factor")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("canonical", help="emit the real canonical form B_real, L_real")
    p.add_argument("input")
    p.add_argument("--format", choices=[matio.FORMAT_MATRIX_MARKET, matio.FORMAT_CSV])
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", "-o", default=None, help="JSON output path (default stdout)")
    p.add_argument("--output-dir", default=None,
                   help="write B_real.mtx / L_real.mtx here instead of JSON")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("gen", help="generate a planted-spectrum test matrix")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--real", type=int, default=None)
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cond-cap", type=float, default=1e4)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
