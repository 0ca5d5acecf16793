"""Command-line interface.

Subcommands: decompose, verify, canonical, gen.  Exit codes are a stable
contract: 0 success, 1 I/O or parse error, 2 not diagonalizable, 3
eigensolver non-convergence, 64 usage error.  The default decomposition
tolerance, verify's included, can be overridden by the GEOSPECTRAL_TOL
environment variable; an explicit --tol flag wins over the environment.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import densecore as dc
from . import matio
from .errors import ConvergenceError, GeoSpectralError, NotDiagonalizableError
from .realdecomp import DEFAULT_TOL, decompose, real_canonical_form
from .verify import PlantedSpectrum, gen_test_matrix, run_identity_suite

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


def _number(cast, accept, what):
    """argparse type: cast the text and require accept(value).  Text with a
    '_' or a non-ASCII character is refused before the cast, as matio
    refuses it in a matrix file (int() and float() read digit separators
    and other scripts' digits); a NaN fails every comparison, so it is
    rejected too."""

    def parse(text):
        try:
            if not matio._plain(text):
                raise ValueError(text)
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


_POSITIVE_FLOAT = _number(float, lambda v: v > 0.0, "a positive number")
_POSITIVE_INT = _number(int, lambda v: v >= 1, "a positive integer")
_COUNT = _number(int, lambda v: v >= 0, "a non-negative integer")
# a condition number is >= 1, and the cap goes into the strict-JSON sidecar
_CONDITION_CAP = _number(float, lambda v: 1.0 <= v < np.inf, "a finite number >= 1")


def _resolve_tol(flag_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("GEOSPECTRAL_TOL")
    if env:
        try:
            return _POSITIVE_FLOAT(env)
        except argparse.ArgumentTypeError:
            print(f"warning: ignoring bad GEOSPECTRAL_TOL={env!r}", file=sys.stderr)
    return DEFAULT_TOL


def _write_json(doc, output):
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            matio.dump_json(doc, fh)
    else:
        matio.dump_json(doc, sys.stdout)


def cmd_decompose(args):
    m, digest = matio.parse_matrix(args.input, args.format)
    dec = decompose(m, _resolve_tol(args.tol))
    doc = matio.decomposition_to_doc(dec, input_digest=digest)
    _write_json(doc, args.output)
    return EXIT_OK


def cmd_verify(args):
    m, _ = matio.parse_matrix(args.input, args.format)
    report = run_identity_suite(m, _resolve_tol(None), args.tol_scale)
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
    m, _ = matio.parse_matrix(args.input, args.format)
    dec = decompose(m, _resolve_tol(args.tol))
    b_real, l_real, b_inv = real_canonical_form(dec)
    # decompose's exact power-of-two scale keeps the norms finite at any |M|
    s = dc.pow2_scale(m)
    m_s = m / s
    residual = dc.frobenius_norm(b_real @ (l_real / s) @ b_inv - m_s)
    rel = residual / (dc.frobenius_norm(m_s) or 1.0)
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


def _draw_spectrum(rng, n_real, n_pairs):
    """Seeded eigenvalue draw: the real eigenvalues, and the pairs' real
    parts, lie one per cell of a grid over [-2, 2], jittered by up to 0.3
    cell, so no draw fails at any size; each omega ~ U(0.3, 2)."""

    def grid(count):
        cells = np.arange(count) + 0.5 + rng.uniform(-0.3, 0.3, count)
        return -2.0 + 4.0 * cells / max(count, 1)

    reals = tuple(grid(n_real).tolist())
    pairs = tuple(zip(grid(n_pairs).tolist(), rng.uniform(0.3, 2.0, n_pairs).tolist()))
    return reals, pairs


def cmd_gen(args):
    n_real = args.size - 2 * args.pairs
    if n_real < 0:
        print(f"error: --pairs {args.pairs} needs --size >= {2 * args.pairs}, "
              f"got {args.size}", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    reals, pairs = _draw_spectrum(rng, n_real, args.pairs)
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
                "min_separation": spec.min_separation() if spec.dim >= 2 else None,
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
    # argument groups shared by subcommands, declared once
    matrix = _Parser(add_help=False)
    matrix.add_argument("input", help="matrix file (.mtx Matrix Market array or .csv)")
    matrix.add_argument("--format", choices=[matio.FORMAT_MATRIX_MARKET, matio.FORMAT_CSV])
    decomposition = _Parser(add_help=False)
    decomposition.add_argument("--tol", type=_POSITIVE_FLOAT, default=None)
    decomposition.add_argument("--output", "-o", default=None, help="JSON output path (default stdout)")

    p = sub.add_parser("decompose", parents=[matrix, decomposition],
                       help="decompose a matrix into real and plane terms")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", parents=[matrix], help="run the identity-check suite on a matrix")
    p.add_argument("--tol-scale", type=_POSITIVE_FLOAT, default=1.0,
                   help="multiply every check tolerance by this factor")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("canonical", parents=[matrix, decomposition],
                       help="emit the real canonical form B_real, L_real")
    p.add_argument("--output-dir", default=None,
                   help="write B_real.mtx / L_real.mtx here instead of JSON")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("gen", help="generate a planted-spectrum test matrix")
    p.add_argument("--size", type=_POSITIVE_INT, required=True)
    p.add_argument("--pairs", type=_COUNT, default=0)
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--cond-cap", type=_CONDITION_CAP, default=1e4)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


# parse_args leaves a parser unchanged, so main builds one per process
_main_parser = functools.cache(build_parser)


def main(argv=None):
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
