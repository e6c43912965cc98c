"""Command-line front end: construction, conversion, and verification.

Exit codes: 0 success (corrected findings included), 1 domain error,
failed verification, a failed ``verify`` worker, or stdout that
cannot be written, 2 usage error.  JSON output is schema-stable and
byte-identical across runs with the same seed.  ``verify`` is always
exact.  A check it reports as ``skipped`` examined nothing; one reported
as ``pass-corrected`` held on every sample, on some only in the corrected
form its details state.  The coordinate text picks the backend of
``simplex --point``: ``1/3`` stays exact, ``0.25`` is a float.  Every
decision on a float (a ``--point`` coordinate or a ``spectral --g``
value) is exact on the decimal it prints as, so a decimal of up to 15
significant digits in the normal float range is decided as typed; its
printed values are still computed in floats.
Each command imports the modules it runs in its own body, and only JSON
output imports ``json``, so a process loads only those.

A CLI process (``python -m lpgg.cli`` or the installed ``lpgg`` script)
enters through :func:`run`: it flushes stdout and ends with
``os._exit``, so the interpreter does not tear down the modules it
loaded.  In-process callers use :func:`main`, which returns the exit
code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import (ATLAS_LIMIT, CANONICAL_BASIS_LIMIT, DEFAULT_N_MAX, DEFAULT_SEED,
               FRAME_LIMIT, SUITES, __version__)
from .algebra import AlgebraError
from .scalars import InexactSqrtError

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _fail(code, message):
    """Print ``message`` as one stderr line, dropped if stderr cannot be
    written, and return the exit ``code``."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass
    return code


def _print_json(payload):
    import json
    print(json.dumps(payload, indent=2, sort_keys=True))


def _matrix_json(matrix):
    return [[value.to_json_terms() for value in row] for row in matrix]


def _matrix_csv_rows(name, matrix):
    yield [name]
    for row in matrix:
        yield [str(v) for v in row]


# -- commands ---------------------------------------------------------------------------


def cmd_mult_table(args) -> int:
    from . import frames
    from .textform import format_multivector
    size = args.n
    sign = 1 if args.sign == "+" else -1
    frame = frames.build_null_frame(size, sign)
    table = frames.verify_multiplication_table(frame)

    a1, a2 = frame.vector(1), frame.vector(2)
    labels = ["a1", "a2", "a1*a2", "a2*a1"]
    elements = [a1, a2, a1 * a2, a2 * a1]
    grid = [
        [format_multivector(row_el * col_el) for col_el in elements]
        for row_el in elements
    ]
    payload = {
        "size": size,
        "sign": args.sign,
        "labels": labels,
        "grid": grid,
        "pairs_checked": table.checked,
        "violations": list(table.violations),
        "ok": table.ok,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        print(f"pair product grid (n+1 = {size}, sign {args.sign}):")
        width = max(len(cell) for row in grid for cell in row)
        header = " " * 8 + "  ".join(label.ljust(width) for label in labels)
        print(header)
        for label, row in zip(labels, grid):
            print(f"{label:>6s}  " + "  ".join(cell.ljust(width) for cell in row))
        print(
            f"checked {table.checked} products over all pairs: "
            + ("all match" if table.ok else f"violations: {table.violations}")
        )
    return 0 if table.ok else DOMAIN_ERROR


def cmd_frame(args) -> int:
    from . import frames
    from .textform import format_multivector
    size = args.n
    frame = frames.build_null_frame(size, 1 if args.sign == "+" else -1)
    recip = frames.reciprocal_frame(frame)
    if args.format == "json":
        payload = {
            "size": size,
            "sign": args.sign,
            "exact": True,
            "T": _matrix_json(frame.t_matrix),
            "T_inverse": _matrix_json(frame.t_inverse),
            "null_vectors": [format_multivector(a) for a in frame.vectors],
            "reciprocal_vectors": [format_multivector(r) for r in recip],
        }
        _print_json(payload)
    else:
        import csv

        writer = csv.writer(sys.stdout)
        for section, matrix in (("T", frame.t_matrix),
                                ("T_inverse", frame.t_inverse)):
            for row in _matrix_csv_rows(section, matrix):
                writer.writerow(row)
        writer.writerow(["null_vectors"])
        for a in frame.vectors:
            writer.writerow([format_multivector(a)])
        writer.writerow(["reciprocal_vectors"])
        for r in recip:
            writer.writerow([format_multivector(r)])
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name != "all" and name not in SUITES:
        return _fail(USAGE_ERROR,
                     f"unknown suite {name!r}; pick from all, {', '.join(SUITES)}")
    from . import verify
    try:
        report = verify.run_suite(name, n_max=args.n_max, seed=args.seed)
    except verify.SuiteWorkerError as exc:
        return _fail(DOMAIN_ERROR, f"verify: a suite worker failed: {exc}")
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code()


def cmd_spectral(args) -> int:
    import json

    from . import frames, spectral
    from .textform import format_multivector
    try:
        raw = json.loads(args.g)
    except ValueError as exc:  # not JSON, or an integer too long to convert
        return _fail(USAGE_ERROR, f"--g must be JSON: {exc}")
    if not isinstance(raw, dict):
        return _fail(USAGE_ERROR, "--g must be a JSON object of g_ij coefficients")
    coefficients = {}
    try:
        for key, value in raw.items():
            # str.isdigit and Fraction(str) also take non-ASCII digits.
            if not (len(key) == 3 and key[0] == "g" and key[1:].isdigit()
                    and key.isascii()):
                raise ValueError(f"bad coefficient key {key!r}")
            i, j = int(key[1]), int(key[2])
            if isinstance(value, str) and not value.isascii():
                raise ValueError(f"{key} must be written in ASCII: {value!r}")
            if isinstance(value, (str, int)) and not isinstance(value, bool):
                value = Fraction(value)
            elif not isinstance(value, float):
                raise ValueError(f"{key} must be a number or a 'p/q' string")
            elif not math.isfinite(value):
                raise ValueError(f"{key} must be finite, not {value!r}")
            coefficients[(i, j)] = value
        op = spectral.BivectorOperator(frames.build_null_frame(3, 1), coefficients)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(USAGE_ERROR, f"bad --g: {exc}")
    try:
        decomposition = spectral.spectral_decompose(op)
    except (spectral.DegenerateSpectrumError, ValueError, InexactSqrtError) as exc:
        return _fail(DOMAIN_ERROR, f"spectral error: {exc}")
    payload = decomposition.to_json()
    payload["element"] = format_multivector(op.element())
    _print_json(payload)
    return 0


def cmd_simplex(args) -> int:
    from . import frames, simplex
    from .textform import format_multivector
    size = args.n + 1
    if not args.point and not args.vertices and not args.vertices_file:
        return _fail(USAGE_ERROR, "need --point, --vertices, or --vertices-file")
    frame = frames.build_null_frame(size, 1)
    payload = {"n": args.n}

    if args.point:
        try:
            coords = tuple(
                simplex.parse_coordinate(c) for c in args.point.split(",")
            )
            point = simplex.SimplexPoint(frame, coords)
        except (ValueError, ZeroDivisionError) as exc:
            return _fail(USAGE_ERROR, f"bad --point: {exc}")
        norm_sq = point.norm_squared()
        try:
            norm_sq_float = float(norm_sq)
        except OverflowError:
            norm_sq_float = math.inf
        if not math.isfinite(norm_sq_float):
            return _fail(DOMAIN_ERROR, "--point: |x|^2 overflows a float")
        payload.update({
            "coordinates": [str(c) for c in coords],
            "barycentric": point.is_barycentric(),
            "norm_squared": str(norm_sq),
            "norm_squared_float": norm_sq_float,
            "on_cone": point.is_on_cone(),
        })
        if not point.is_on_cone():
            try:
                payload["unit"] = format_multivector(point.unit())
            except (simplex.LightConeError, InexactSqrtError) as exc:
                payload["unit_error"] = str(exc)

    if args.vertices or args.vertices_file:
        try:
            if args.vertices_file:
                with open(args.vertices_file) as handle:
                    text = handle.read()
            else:
                text = args.vertices.replace(";", "\n")
            matrix = simplex.simplicial_matrix_from_csv(
                frame, text, barycentric=not args.free_vertices
            )
            content, degenerate = simplex.content_vertices(matrix)
        except (OSError, ValueError, ZeroDivisionError) as exc:
            return _fail(USAGE_ERROR, f"bad vertex rows: {exc}")
        payload["vertices"] = {
            "rows": [[str(v) for v in row] for row in matrix.rows],
            "content": format_multivector(content),
            "degenerate": degenerate,
            "closed": simplex.is_closed(matrix),
            "order": simplex.order(matrix),
        }

    payload["content"] = format_multivector(simplex.content_null(frame))
    _print_json(payload)
    return 0


def cmd_express(args) -> int:
    from . import frames
    from .textform import ParseError, format_multivector, parse_multivector
    size = args.n
    frame = frames.build_null_frame(size, 1)
    try:
        mv = parse_multivector(args.mv, frame.algebra)
    except (ParseError, AlgebraError, InexactSqrtError) as exc:
        return _fail(USAGE_ERROR, f"bad --mv: {exc}")
    subsets = frames.canonical_subsets(size)
    coefficients = frames.express_in_null_basis(frame, mv)

    def product_label(subset):
        if not subset:
            return "1"
        return "*".join(f"a{t + 1}" for t in range(size) if subset >> t & 1)

    payload = {
        "input": format_multivector(mv),
        "null_products": {
            product_label(s): str(c)
            for s, c in zip(subsets, coefficients) if c
        },
    }
    if args.a_matrix:
        from . import star
        payload["a_matrix"] = star.a_matrix(frame, mv).to_json()
    _print_json(payload)
    return 0


def cmd_classify(args) -> int:
    from . import atlas
    data = atlas.atlas(args.max)
    if args.format == "json":
        payload = {
            "levels": {str(k): v for k, v in data["levels"].items()},
            "sign_sequence": data["sign_sequence"],
            "product_sequence": data["product_sequence"],
            "rows": [row._asdict() for row in data["rows"]],
        }
        _print_json(payload)
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["p", "q", "sign", "product_of_signs"])
        for row in data["rows"]:
            writer.writerow(
                [row.p, row.q,
                 "+" if row.square_sign > 0 else "-",
                 "+" if row.generator_sign_product > 0 else "-"]
            )
    else:
        for level in sorted(data["levels"]):
            print(f"level {level}: {data['levels'][level]}")
        print("sign sequence:", data["sign_sequence"])
        print("product sequence:", data["product_sequence"])
    return 0


def ascii_int(text: str) -> int:
    """``int(text)`` for ASCII text only; ``int`` also reads other scripts' digits."""
    try:
        if text.isascii():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """``--help`` and ``--version`` fail on stdout like any command (argparse
    drops a failed write); usage errors go through :func:`_fail`, since
    argparse before 3.11 lets a failed stderr write raise."""

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            _fail(None, message.removesuffix("\n"))
        elif file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpgg",
        description=(
            "Correlated null-frame geometric algebra: construction, "
            "conversion, spectral, simplex, and verification commands."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult-table", help="pair product grid and table check")
    p.add_argument("--n", type=ascii_int, required=True,
                   help="frame size (count of null vectors)")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_mult_table, bounds={"n": (2, CANONICAL_BASIS_LIMIT)})

    p = sub.add_parser("frame", help="emit T, T^-1, null and reciprocal vectors")
    p.add_argument("--n", type=ascii_int, required=True,
                   help="frame size (count of null vectors)")
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_frame, bounds={"n": (2, FRAME_LIMIT)})

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   help="all, " + ", ".join(SUITES))
    p.add_argument("--n-max", type=ascii_int, default=DEFAULT_N_MAX,
                   help="largest frame size n+1 and signature p+q any check "
                        f"examines, in 2..{FRAME_LIMIT}; checks with "
                        "no size left are skipped")
    p.add_argument("--seed", type=ascii_int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify, bounds={"n_max": (2, FRAME_LIMIT)})

    p = sub.add_parser("spectral", help="spectral decomposition of g_ij")
    p.add_argument("--g", required=True,
                   help='JSON like {"g12": 1, "g21": "1/2"}')
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("simplex", help="barycentric point and vertex-set "
                                       "diagnostics")
    p.add_argument("--n", type=ascii_int, required=True, help="simplex dimension n")
    p.add_argument("--point",
                   help="comma-separated coordinates (n+1 of them)")
    p.add_argument("--vertices",
                   help="inline vertex rows, ';'-separated CSV lines")
    p.add_argument("--vertices-file",
                   help="CSV file with one vertex row per line")
    p.add_argument("--free-vertices", action="store_true",
                   help="skip the barycentric row checks")
    p.set_defaults(func=cmd_simplex, bounds={"n": (1, FRAME_LIMIT - 1)})

    p = sub.add_parser("express", help="expand a multivector over the "
                                       "canonical null products")
    p.add_argument("--n", type=ascii_int, required=True,
                   help="frame size (count of null vectors)")
    p.add_argument("--mv", required=True,
                   help="multivector text, e.g. '1/2*e1 + 1/2*f1'")
    p.add_argument("--a-matrix", action="store_true",
                   help="include the A-matrix grid in the output")
    p.set_defaults(func=cmd_express, bounds={"n": (2, CANONICAL_BASIS_LIMIT)})

    p = sub.add_parser("classify", help="pseudoscalar sign atlas")
    p.add_argument("--max", type=ascii_int, default=6, help="largest level p+q")
    p.add_argument("--format", choices=["text", "json", "csv"],
                   default="text")
    p.set_defaults(func=cmd_classify, bounds={"max": (1, ATLAS_LIMIT)})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse turns `--opt=--` into []
            return _fail(USAGE_ERROR, f"--{name.replace('_', '-')} needs a value")
    # Each subparser declares its integer ranges; no command module is loaded yet.
    for name, (lo, hi) in getattr(args, "bounds", {}).items():
        value = getattr(args, name)
        if not lo <= value <= hi:
            flag = "--" + name.replace("_", "-")
            return _fail(USAGE_ERROR, f"{flag} must be in {lo}..{hi}, got {value}")
    try:
        return args.func(args)
    except AlgebraError as exc:
        return _fail(DOMAIN_ERROR, str(exc))


def run():
    """The process entry: ``main()``, a flush, then ``os._exit`` with its code.

    Stdout that cannot be written, or that was closed at start, exits 1
    with one line on stderr, or none if the reader closed the pipe.  A
    stderr closed at start becomes ``os.devnull``, since argparse prints a
    usage error on stdout when ``sys.stderr`` is ``None``.  No output needs
    the interpreter's teardown, so the process skips it; an exception that
    is not an ``OSError`` still takes Python's normal path.
    """
    try:
        if sys.stderr is None:
            sys.stderr = open(os.devnull, "w")
        if sys.stdout is None:
            raise OSError("stdout is closed")
        try:
            code = main()
        except SystemExit as exc:  # argparse: 2 for usage errors, 0 for --help, --version
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = DOMAIN_ERROR
    except OSError as exc:
        code = _fail(DOMAIN_ERROR, f"lpgg: {exc}")
    os._exit(code)


if __name__ == "__main__":
    run()
