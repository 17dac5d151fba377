"""Command line front end: q-expansions, metric/connection tables, and the
verification suites.

Exit codes: 0 all good, 1 verification failure, 2 usage error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import shlex
import sys
from collections.abc import Sequence

import numpy as np

from . import __version__
from .connection import gamma_closed, gamma_from_metric
from .indexing import omega_list
from .metric import metric_pair
from .qseries import (SL2_WORDS, QSeries, TruncationError, anomaly_residual,
                      delta, eisenstein, g2_series, serre_derivative)
from .symplectic import DegeneracyError, SiegelPoint
from .verify import SUITES, UsageError, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


def _parse_g_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"bad degree range {text!r}; use N or A..B") from exc
    return lo, hi


def _parse_complex(text: str) -> complex:
    """A complex number written with a final i (or j) for the imaginary
    unit; an i elsewhere, as in "inf", is left alone."""
    spelled = text.replace(" ", "")
    if spelled.endswith("i"):
        spelled = spelled[:-1] + "j"
    try:
        return complex(spelled)
    except ValueError as exc:
        raise UsageError(f"bad complex number {text!r}") from exc


def _load_point(args) -> SiegelPoint:
    if args.point:
        try:
            with open(args.point) as handle:
                return SiegelPoint.from_json(handle.read())
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read point file {args.point}: {exc}")
    if args.g is None:
        raise UsageError("either --point FILE or --g N is required")
    g = args.g
    if g < 1:
        raise UsageError(f"--g must be >= 1, got {g}")
    return SiegelPoint(g, np.zeros((g, g)), np.eye(g))


def _open_for_writing(path: str, mode: str = "w"):
    """The file at path, opened for writing; a path that cannot be written
    (a missing directory, a directory) is a usage error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(pieces: list[str], out_path: str | None) -> None:
    """Write the pieces of a text and a newline, to the file or stdout."""
    if out_path:
        with _open_for_writing(out_path) as handle:
            handle.writelines(pieces)
            handle.write("\n")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


# The table commands write their JSON text directly, in exactly the layout
# of json.dumps(payload, indent=2, sort_keys=True): a list or object opened
# at nesting depth d puts its items at 2(d+1) spaces and its closing bracket
# at 2d.  A value is a list of pieces of text, written one after another, so
# a table of thousands of entries is neither run through the pure-Python
# indenting encoder nor copied into one string.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray) -> list[str]:
    """Every value of a real array, flattened, spelled as json spells a
    float: float.__repr__, and NaN, Infinity or -Infinity.  Each distinct
    bit pattern is spelled once; keying by bits, not by value, keeps -0.0
    apart from 0.0."""
    bits, where = np.unique(np.asarray(values, dtype=np.float64).ravel()
                            .view(np.uint64), return_inverse=True)
    spelled = np.array([_NON_FINITE.get(text, text) for text in
                        map(float.__repr__, bits.view(np.float64).tolist())],
                       dtype=object)
    return spelled[where].tolist()


def _list_pieces(items: Sequence[str], depth: int) -> list[str]:
    """A list whose items are finished texts."""
    if not items:
        return ["[]"]
    inner = "\n" + "  " * (depth + 1)
    pieces = ["," + inner] * (2 * len(items) + 1)
    pieces[0] = "[" + inner
    pieces[1::2] = items
    pieces[-1] = "\n" + "  " * depth + "]"
    return pieces


def _object_pieces(fields: dict[str, list[str]], depth: int) -> list[str]:
    """An object whose field values are given as pieces, in key order."""
    inner = "\n" + "  " * (depth + 1)
    pieces = []
    for key in sorted(fields):
        pieces.append(f",{inner}{json.dumps(key)}: ")
        pieces.extend(fields[key])
    pieces[0] = "{" + pieces[0][1:]
    pieces.append("\n" + "  " * depth + "}")
    return pieces


def _matrix_pieces(values: np.ndarray, depth: int) -> list[str]:
    """A real matrix as a list of rows of floats."""
    texts = _float_texts(values)
    n = values.shape[-1]
    return _list_pieces(["".join(_list_pieces(texts[row:row + n], depth + 1))
                         for row in range(0, len(texts), n)], depth)


@functools.lru_cache(maxsize=32)
def _pair_texts(g: int, depth: int) -> tuple[str, ...]:
    """Each pair of Omega as a list of its two indices, built once per
    degree and depth."""
    return tuple("".join(_list_pieces([str(i), str(j)], depth))
                 for i, j in omega_list(g))


# the q-series that qexp and serre name, by their number of terms; each
# maker is looked up by name when it is called
_SERIES = {"E2": lambda n: eisenstein(2, n),
           "E4": lambda n: eisenstein(4, n),
           "E6": lambda n: eisenstein(6, n),
           "Delta": lambda n: delta(n),
           "G2": lambda n: g2_series(n)}


def _named_series(form: str, terms: int, names: Sequence[str]) -> QSeries:
    """The series named form, to the given number of terms; form must be
    one of names."""
    if form not in names:
        raise UsageError(f"unknown form {form!r}; "
                         f"choose from {', '.join(names)}")
    if terms < 1:
        raise UsageError("--terms must be >= 1")
    return _SERIES[form](terms)


def _cmd_qexp(args) -> int:
    series = _named_series(args.form, args.terms, list(_SERIES))
    if args.form == "G2":
        print("prefactor: pi/3")
    print(", ".join(str(c) for c in series.coeffs))
    return EXIT_OK


def _cmd_serre(args) -> int:
    out = serre_derivative(
        _named_series(args.form, args.terms, ("E4", "E6", "Delta")))
    print(f"weight: {out.weight}")
    print(", ".join(str(c) for c in out.coeffs))
    return EXIT_OK


def _cmd_anomaly(args) -> int:
    z = _parse_complex(args.z)
    if not cmath.isfinite(z):
        raise UsageError(f"--z must be finite, got {args.z!r}")
    if z.imag <= 0:
        raise UsageError("--z must lie in the upper half plane")
    if args.gamma not in SL2_WORDS:
        raise UsageError(f"unknown element {args.gamma!r}; "
                         f"choose from {', '.join(SL2_WORDS)}")
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be finite and positive, got {args.tol}")
    residual = anomaly_residual(SL2_WORDS[args.gamma], z, args.terms)
    ok = residual < args.tol
    print(f"gamma={args.gamma} z={z} residual={residual:.3e} "
          f"tol={args.tol:.1e} {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cmd_metric(args) -> int:
    point = _load_point(args)
    pair = metric_pair(point)
    _emit(_object_pieces({
        "g": [str(point.g)],
        "omega": _list_pieces(_pair_texts(point.g, 2), 1),
        "W": _matrix_pieces(pair.W, 1),
        "M": _matrix_pieces(pair.M, 1),
    }, 0), args.out)
    return EXIT_OK


_GAMMA_METHODS = {"closed": None, "metricA": "A", "metricB": "B",
                  "metricB-expanded": "B-expanded"}


def _cmd_gamma(args) -> int:
    point = _load_point(args)
    if args.method not in _GAMMA_METHODS:
        raise UsageError(f"unknown method {args.method!r}; "
                         f"choose from {', '.join(_GAMMA_METHODS)}")
    _emit(_object_pieces({
        "g": [str(point.g)],
        "method": [json.dumps(args.method)],
        "point": _object_pieces({"g": [str(point.g)],
                                 "X": _matrix_pieces(point.X, 2),
                                 "Y": _matrix_pieces(point.Y, 2)}, 1),
        "entries": [_entry_texts(point, args.method)],
    }, 0), args.out)
    return EXIT_OK


def _table_entries(point: SiegelPoint, method: str
                   ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The method's coefficients at the point above 1e-14 of the largest
    magnitude, in index order: their index arrays (K, I, J) and their
    values.  The cutoff is relative, as Gamma scales as Y^{-1}.  The table
    is freed on return, before the output text is built."""
    if method == "closed":
        table = gamma_closed(point)
    else:
        table = gamma_from_metric(point, _GAMMA_METHODS[method])
    magnitude = np.abs(table)
    largest = float(magnitude.max())
    # a NaN entry leaves no largest magnitude; then the floor 1e-14 holds
    cutoff = 1e-14 if np.isnan(largest) else 1e-14 * largest
    where = np.flatnonzero(magnitude > cutoff)
    return np.unravel_index(where, table.shape), table.take(where)


@functools.cache
def _entry_layout() -> tuple[str, ...]:
    """The fixed texts of the entry list's layout, read off the writers'
    own templates: the list's start, separator and end, then the keys of
    an entry object and its closing bracket."""
    start, between, end = "".join(_list_pieces(["%s"] * 2, 1)).split("%s")
    return (start, between, end) + tuple("".join(_object_pieces(
        dict.fromkeys(("I", "J", "K", "im", "re"), ["%s"]), 2)).split("%s"))


@functools.lru_cache(maxsize=16)
def _field_texts(g: int) -> tuple[np.ndarray, ...]:
    """Per pair of Omega, the read-only texts of an entry's "I" field (with
    the close of the previous entry), "J" field and "K" field (with the
    "im" key), built once per degree."""
    _, between, _, key_i, key_j, key_k, key_im, _, close = _entry_layout()
    pairs = _pair_texts(g, 3)
    texts = (np.array([close + between + key_i + t for t in pairs], object),
             np.array([key_j + t for t in pairs], object),
             np.array([key_k + t + key_im for t in pairs], object))
    for column in texts:
        column.setflags(write=False)
    return texts


def _entry_texts(point: SiegelPoint, method: str) -> str:
    """The entry list at depth 1, one object {"I", "J", "K", "im", "re"}
    per entry of the table, as one text.  Each field's text is built once
    per pair and degree, gathered per entry by the index arrays, and every
    piece is joined once, so no text is built per entry."""
    (k, a, b), values = _table_entries(point, method)
    if not values.size:
        return "[]"
    start, _, end, key_i, _, _, _, key_re, close = _entry_layout()
    texts_i, texts_j, texts_k = _field_texts(point.g)
    pieces = [key_re] * (6 * values.size)
    pieces[0::6] = texts_i[a].tolist()
    pieces[1::6] = texts_j[b].tolist()
    pieces[2::6] = texts_k[k].tolist()
    pieces[3::6] = _float_texts(values.imag)
    pieces[5::6] = _float_texts(values.real)
    pieces[0] = start + key_i + _pair_texts(point.g, 3)[a[0]]
    pieces.append(close + end)
    return "".join(pieces)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad weight list {text!r}; use e.g. 1,2") from exc
    return ks


def _cmd_verify(args) -> int:
    g_range = _parse_g_range(args.g)
    ks = _parse_weights(args.k)
    # an unwritable report path is refused before any case runs; the probe
    # appends nothing and removes a file it made, so the path stays as is
    if args.report:
        existed = os.path.lexists(args.report)
        _open_for_writing(args.report, "a").close()
        if not existed:
            os.remove(args.report)
    report = run_suite(args.suite, g_range, seed=args.seed, tol=args.tol,
                       ks=ks)
    summary = report.summary
    for record in report.records:
        if not record.passed and not args.quiet:
            detail = (f"residual={record.residual:.3e} "
                      f"tol={record.tolerance:.1e}"
                      if record.residual is not None else "exact check failed")
            print(f"FAIL {record.suite}.{record.check} "
                  f"{json.dumps(record.params, sort_keys=True)} {detail}",
                  file=sys.stderr)
    print(f"suite={args.suite} g={g_range[0]}..{g_range[1]} "
          f"seed={args.seed} total={summary['total']} "
          f"passed={summary['passed']} failed={summary['failed']}")
    if args.report:
        _emit([json.dumps(report.to_dict(include_timings=args.timings),
                          indent=2, sort_keys=True)], args.report)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegel",
        description="Connection coefficients, derivative operators and "
                    "exact q-expansion checks on the Siegel upper half "
                    "space.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qexp", help="print exact q-expansion coefficients")
    p.add_argument("--form", required=True,
                   help="E2, E4, E6, Delta or G2")
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(func=_cmd_qexp)

    p = sub.add_parser("serre", help="weight-raising derivative of a form")
    p.add_argument("--form", required=True, help="E4, E6 or Delta")
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(func=_cmd_serre)

    p = sub.add_parser("anomaly",
                       help="check the weight-2 transformation defect")
    p.add_argument("--z", required=True, help='evaluation point, e.g. "0.2+1.1i"')
    p.add_argument("--gamma", default="S",
                   help=f"group element: {', '.join(SL2_WORDS)}")
    p.add_argument("--terms", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_anomaly)

    for name, text, func in (
            ("metric", "emit the metric matrices W and M", _cmd_metric),
            ("gamma", "emit connection coefficients", _cmd_gamma)):
        p = sub.add_parser(name, help=text)
        # a point file or a degree, not both
        where = p.add_mutually_exclusive_group()
        where.add_argument("--point", help="SiegelPoint JSON file")
        where.add_argument("--g", type=int,
                           help="degree (point defaults to i*I)")
        if name == "gamma":
            p.add_argument("--method", default="closed", help="closed, "
                           "metricA, metricB or metricB-expanded")
        p.add_argument("--out", help="output JSON file (default stdout)")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help=f"{', '.join(SUITES)} or all")
    p.add_argument("--g", default="1..5", help="degree range A..B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", default="1,2",
                   help="weight parameters for the operators suite")
    p.add_argument("--tol", type=float, default=None,
                   help="override every residual tolerance")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the report "
                        "(breaks byte-stability)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built on the first call.  Each
    parse returns a fresh namespace filled from the defaults, so nothing
    carries over from one call to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneracyError as exc:
        print(f"error: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryError:
        # a table too large to allocate; metric and gamma build their whole
        # text before they open --out or write to stdout
        request = shlex.join(sys.argv[1:] if argv is None else argv)
        print(f"error: not enough memory for: siegel {request}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
