"""Command-line front end.

Subcommands: ``transform`` (transform CSV), ``hilbert`` (a chosen
conjugate as CSV), ``radial`` (r,leray,ibp,oracle columns, the cells a
route refused left empty) and ``verify`` (a named check suite with a plain-text
report plus a CSV twin).  Exit codes: 0 success, 1 verification failures
(report still written), 2 bad flags, 3 bad input data or a request too
large for memory.
"""

from __future__ import annotations

import gc

# What these imports allocate lives until exit, yet with the collector on,
# `import numpy` alone ran 27 gen-0 and 2 gen-1 collections, 2.1-2.6 ms in all
# (counted with gc.callbacks on a 2-vCPU VM).  So the collector is paused across
# the imports, and then left as the caller had it.  A pause alone only defers
# the walk: the first gen-0 collection after it visits all 21,000 young objects
# at the same cost.  Where this module is the program (python -m bvfourier.cli),
# what the imports made is therefore frozen at once, as main() would freeze it
# anyway; a module that imports this one keeps its objects in their generations.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import csv
    import io
    import itertools
    import os
    import sys
    from collections.abc import Iterable
    from pathlib import Path

    # BVF_THREADS sets the process's one pool, so OpenBLAS gets no threads of its
    # own; starting them made a fresh `import numpy` take 158 ms against 97 ms at
    # one thread (medians of 15, numpy 2.4.6 on a 2-vCPU VM)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import numpy as np

    from .grids import (
        DecayClass,
        Family,
        FamilySpec,
        SampledFunction,
        family_value,
        make_uniform_grid,
        read_samples_csv,
        sample,
    )
    from .hilbert import hilbert_multiplier, hilbert_pv, modified_hilbert, periodic_conjugate
    from .reports import PROFILES, SUITE_NAMES, format_report_line, report_fields
finally:
    if __name__ == "__main__":
        gc.freeze()
    if _collecting:
        gc.enable()

# Every command loads grids and hilbert (fourier imports hilbert); fourier,
# radial and suites are imported inside the one command that runs them,
# so a process loads only what its command needs.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

# family scale flag -> (FamilySpec parameter, help text), shared by every input command
_FAMILY_FLAGS = {
    "width": ("width", "support width (box, triangle, raised_cosine, smoothed_box)"),
    "sigma": ("sigma", "gaussian scale"),
    "scale": ("a", "scale parameter a (poisson kernels)"),
    "taper": ("taper", "smoothed_box taper length"),
    "period": ("period", "period (triangle_wave_periodic)"),
}


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the strings of chunks, in order, to a temp file beside path, then move it over path.

    The chunks are consumed one at a time, so a generator of blocks keeps only
    one block in memory.  If anything raises, the temp file is removed and path
    is left as it was.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Rows formatted per write.  Writing the 2^17 + 1 rows of a `transform` at
# n = 2^16 + 1 after the transform, medians of 9 fresh processes on a 2-vCPU
# VM, with the tracemalloc peak of writing 2^17 + 1 rows of three columns
# mixed with subnormals, signed zeros and +-1e308: blocks of 512 rows 74 ms
# and 166 kB, 1024 rows 61 ms and 269 kB, 1536 rows 57 ms and 394 kB, 2048
# rows 55 ms and 518 kB, 4096 rows 53 ms and 1.0 MB, 8192 rows 51 ms and
# 2.0 MB, one block of the whole table 72 ms and 32 MB.  Formatting 4096 rows
# per block with Python's `%` took 133 ms and 795 kB.  The first table also
# imports the kernel, whose compile and tables peak near 0.5 MB.
_ROWS = 1536


def _format_rows(columns: tuple[np.ndarray, ...], lo: int) -> str:
    from ._text import csv_rows

    return csv_rows([c[lo : lo + _ROWS] for c in columns])


def _write_table(path: str, header: str, *columns: np.ndarray) -> None:
    """Write real columns under a header line: the first (the abscissa) in shortest
    round-trip form, so it reads back bit for bit, the rest to 12 significant digits
    (a masked cell of a masked array is written empty).

    The text is Python's "%r" and "%.12g", rendered by :func:`bvfourier._text.csv_rows`.
    Rows are formatted and written _ROWS at a time, so memory does not grow with
    the output text; the bytes are those of formatting the whole table at once.
    """
    blocks = (_format_rows(columns, lo) for lo in range(0, len(columns[0]), _ROWS))
    _atomic_write(Path(path), itertools.chain([header + "\n"], blocks))


def _add_input_args(sub: argparse.ArgumentParser, csv_help: str) -> None:
    sub.add_argument("--family", choices=[f.value for f in Family], help="built-in test family")
    sub.add_argument("--csv", help=csv_help)
    for flag, (_, help_text) in _FAMILY_FLAGS.items():
        sub.add_argument(f"--{flag}", type=float, help=help_text)


def _add_line_input_args(sub: argparse.ArgumentParser) -> None:
    _add_input_args(sub, "CSV input (x,value) instead of a family")
    sub.add_argument(
        "--decay",
        choices=[d.value for d in DecayClass],
        default=DecayClass.VANISHING_AT_INFINITY.value,
        help="decay class flag for CSV input",
    )
    sub.add_argument("--a", type=float, default=-50.0, help="grid left endpoint")
    sub.add_argument("--b", type=float, default=50.0, help="grid right endpoint")
    sub.add_argument("--n", type=int, default=2**14 + 1, help="sample count")


def _family_spec(args: argparse.Namespace) -> FamilySpec | None:
    """The family the flags name, or None for CSV input; exactly one must be given."""
    if (args.family is None) == (args.csv is None):
        raise ValueError("exactly one of --family / --csv is required")
    if args.family is None:
        return None
    params = {param: getattr(args, flag) for flag, (param, _) in _FAMILY_FLAGS.items() if getattr(args, flag) is not None}
    return FamilySpec(Family(args.family), params)


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such figure on this platform
        return None


def _peak_bytes(n: int, m: int, fft_len: int | None = None, dim: int = 0) -> int:
    """An upper estimate of a command's peak memory from its n samples and m outputs.

    Every command is held to one FFT length L: ``fft_len``, a transform's
    lattice N = 2 (n - 1), else the zoom DFT's fast_len(n + m - 1), and for
    hilbert (m = n) the convolution's; an L that is not 5-smooth may run by
    pocketfft's Bluestein, padded to P <= fast_len(2L - 1), and counts as P.
    In peak RSS past start-up (VmHWM of a fresh process), a complex FFT at L
    peaks 48 L bytes above its input: its 16 L output and 32 L of
    pocketfft's buffers, which tracemalloc does not see.  The zoom DFT at a
    small m peaks highest per sample, at R n + 64 L in its second FFT, with
    R = 113-127 bytes (n = 10^5 .. 1.6 10^6) resident before its FFTs; so a
    sample counts 128 bytes, and an output or a point of L 64.  Lattice
    transforms and hilbert peak at 15-50 bytes per n + m + L (n = 65,537 ..
    400,002), blocked temporaries at 4 MB.  A radial request also holds the
    odd recurrence's dim + 1 rows per cell, twice, and the walk's dim/2
    complex sums per radius: 16 dim bytes each (11.4 per cell at dim 41).
    """
    from ._fft import fast_len

    L = fast_len(n + m - 1) if fft_len is None else fft_len
    L = L if fast_len(L) == L else fast_len(2 * L - 1)
    return 128 * n + 64 * (m + L) + 16 * dim * (n + m) + 2**22


def _check_memory(need: int) -> None:
    """Refuse, before sampling, a request whose estimated peak passes the machine's physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryError(f"the request needs about {need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB here")


def _load_input(args: argparse.Namespace, need) -> SampledFunction:
    """The input the flags name; need(grid) is the command's estimated peak
    memory, which is checked before sampling."""
    spec = _family_spec(args)
    if spec is None:
        f = read_samples_csv(args.csv, DecayClass(args.decay))
        _check_memory(need(f.grid))
        return f
    if spec.family is Family.TRIANGLE_WAVE_PERIODIC:
        period = spec.params["period"]
        grid = make_uniform_grid(-period / 2.0, period / 2.0, args.n)
    else:
        grid = make_uniform_grid(args.a, args.b, args.n)
    _check_memory(need(grid))
    return sample(spec, grid)


def _cmd_transform(args: argparse.Namespace) -> int:
    from .fourier import _transform_nodes, fourier_transform

    f = _load_input(args, lambda grid: _peak_bytes(grid.n, *_transform_nodes(grid, args.cutoff, args.m)[1:]))
    result = fourier_transform(f, cutoff=args.cutoff, m=args.m)
    _write_table(args.out, "t,re,im", result.freqs, result.values.real, result.values.imag)
    return EXIT_OK


_HILBERT_METHODS = {
    "pv": hilbert_pv,
    "multiplier": hilbert_multiplier,
    "modified": modified_hilbert,
    "periodic": periodic_conjugate,
}


def _cmd_hilbert(args: argparse.Namespace) -> int:
    f = _load_input(args, lambda grid: _peak_bytes(grid.n, grid.n))
    out = _HILBERT_METHODS[args.method](f)
    _write_table(args.out, "x,value", out.x, out.values)
    return EXIT_OK


def _cmd_radial(args: argparse.Namespace) -> int:
    from .radial import (
        _MAX_DIM,
        RadialProfile,
        RadiiRefused,
        radial_ft_ibp,
        radial_ft_leray,
        radial_ft_oracle,
        read_radial_csv,
    )

    radii = np.array([float(tok) for tok in args.radii.split(",") if tok.strip()])
    spec = _family_spec(args)
    profile = read_radial_csv(args.csv, args.dim) if spec is None else None
    grid = make_uniform_grid(0.0, args.b, args.n) if profile is None else profile.f0.grid
    # a dimension outside 1 .. _MAX_DIM is refused by RadialProfile itself
    _check_memory(_peak_bytes(grid.n, radii.size, dim=min(max(args.dim, 0), _MAX_DIM)))
    if profile is None:
        profile = RadialProfile.from_samples(grid, family_value(spec, grid.points), args.dim)
    columns = [radial_ft_leray(profile, radii)]  # its refusal ends the command
    for route in (radial_ft_ibp, radial_ft_oracle):
        try:
            columns.append(route(profile, radii))
        except ValueError as exc:  # the route refused: the cells it refused stay empty
            print(f"warning: {exc}", file=sys.stderr)
            refused = isinstance(exc, RadiiRefused)
            columns.append(np.ma.masked_invalid(exc.values) if refused else np.ma.masked_all(radii.size))
    _write_table(args.out, "r,leray,ibp,oracle", radii, *columns)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    if out_path.with_suffix(".csv") == out_path:  # the CSV twin would overwrite the text report
        print(f"error: --out {args.out} is the path of its own CSV twin; give it another suffix", file=sys.stderr)
        return EXIT_USAGE
    from .suites import run_suite

    reports = run_suite(args.suite, args.profile)
    text = "".join(format_report_line(r) + "\n" for r in reports)
    _atomic_write(out_path, [text])
    csv_buf = io.StringIO()
    writer = csv.writer(csv_buf, lineterminator="\n")
    writer.writerow(["name", "status", "measured", "bound", "grid_n", "notes"])
    writer.writerows([*report_fields(r), r.notes] for r in reports)
    _atomic_write(out_path.with_suffix(".csv"), [csv_buf.getvalue()])
    sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvf",
        description="Conjugation operators, Fourier integrability diagnostics and radial transforms",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_tr = subs.add_parser("transform", help="sampled Fourier transform as t,re,im CSV")
    _add_line_input_args(p_tr)
    p_tr.add_argument("--cutoff", type=float, default=None, help="max |t| (default: Nyquist pi/h)")
    p_tr.add_argument("--m", type=int, default=None, help="frequency sample count")
    p_tr.add_argument("--out", default="transform.csv")
    p_tr.set_defaults(func=_cmd_transform)

    p_hi = subs.add_parser("hilbert", help="a chosen conjugation operator as x,value CSV")
    _add_line_input_args(p_hi)
    p_hi.add_argument("--method", choices=sorted(_HILBERT_METHODS), default="pv")
    p_hi.add_argument("--out", default="hilbert.csv")
    p_hi.set_defaults(func=_cmd_hilbert)

    p_ra = subs.add_parser("radial", help="radial transforms as r,leray,ibp,oracle CSV")
    _add_input_args(p_ra, "radial profile CSV (s,f0) instead of a family")
    p_ra.add_argument("--b", type=float, default=2.0, help="profile outer radius")
    p_ra.add_argument("--n", type=int, default=8193, help="profile sample count")
    p_ra.add_argument("--dim", type=int, required=True, help="ambient dimension")
    p_ra.add_argument("--radii", required=True, help="comma-separated radii")
    p_ra.add_argument("--out", default="radial.csv")
    p_ra.set_defaults(func=_cmd_radial)

    p_ve = subs.add_parser("verify", help="run a verification suite and write a report")
    p_ve.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_ve.add_argument("--profile", choices=sorted(PROFILES), default="default")
    p_ve.add_argument("--out", default="report.txt")
    p_ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    # in a bvf process what is alive here (numpy's and the package's modules)
    # lives until exit, so the collector need not traverse it again, above all
    # at shutdown
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        detail = " ".join(str(exc).split())
        print(f"error: out of memory{': ' + detail if detail else ''}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
