"""Command-line entry point for reproducible runs with file outputs.

Each subcommand declares exactly the options it reads, and its parser
declares what it writes at --out: data with a JSON summary beside it, the
summary alone, or the data alone.  Every stochastic subcommand takes an
explicit --seed.  A subcommand returns its run as a `_Run` record and
touches no file, stdout or exit code.  `main` alone refuses an existing
--out target without --force before any work, writes the run's files in
its command's layout, prints the one-line digest and maps every failure
to an exit code: 0 success, 1 numerical failure (arithmetic overflow
included), 2 argument errors.

A summary's config is every option the command declares (`_config`) but
--force and --threads: per-sample derived seeding makes outputs byte-identical
across thread counts.  `eta0` records its ambient's noise dimension as dim;
`lift` records its source and `norm` only --in and --ambient.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import _files
from . import chaos as chaos_mod
from .asymptotics import (
    FERNIQUE_MIN_SAMPLES,
    MAX_THREADS,
    MC_SCHEMES,
    ORACLES,
    PILOT_SAMPLES,
    STATISTICS,
    TAIL_MIN_HITS,
    EventSpec,
    _check_entry,
    _check_epsilons,
    _check_oracle,
    _oracle_terms,
    empirical_rate,
    eta0_estimate,
    fernique_tail_fit,
)
from .girsanov import REWEIGHT_FUNCTIONALS, _half_energy, cm_log_density, reweight_check, shift_path
from .grids import (
    _STREAMS,
    CameronMartinPath,
    GaussianSpec,
    TimeGrid,
    brownian_onb,
    piecewise_linear,
    read_path_csv,
    sample,
    sample_values_batch,  # noqa: F401  (perfbench/spans.py patches it here)
    write_path_csv,
)
from .lifts import (
    dilate_enhanced,
    ito_lift,
    lifted_shift,
    max_chen_residual,
    save_enhanced,
    load_enhanced,
    stratonovich_lift,
    to_graded,
    young_skeleton_lift,
)
from .seminorms import AmbientSpec, ambient_for_levels, banach_norm, classical_ambient, homogeneous_norm

SUMMARY_FORMAT_VERSION = "run-summary/v1"

# what a command writes at --out, as its parser declares: its data and the
# summary beside it, the summary alone, or the data alone
_BESIDE, _SUMMARY, _DATA = "data+summary", "summary", "data"


class CliError(Exception):
    """Argument-level failure: message should name the offending parameter."""


class _Run(NamedTuple):
    """A subcommand's run; `main` writes it in the command's layout, prints `digest` and exits with `code`."""

    digest: str
    results: dict | None = None
    data: Callable[[str], None] | None = None  # writes the data file at the path it is given
    config: dict | None = None  # the summary's config, when it is not `_config(args)`
    code: int = 0


def _summary_path(out: str) -> str:
    return out + ".summary.json"


def _check_out(path: str, force: bool, summary: bool = False) -> None:
    """Refuse --out `path` if it names no file, lies in a missing directory, or names an existing file without `force`.

    With `summary` the command also writes `_summary_path(path)`.
    """
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise CliError(f"--out {path!r} is a directory")
    if not os.path.basename(path):
        raise CliError(f"--out {path!r} names no file")
    if not os.path.isdir(directory):
        raise CliError(f"--out {path!r}: directory {directory!r} does not exist")
    for target in (path, _summary_path(path)) if summary else (path,):
        if os.path.exists(target) and not force:
            raise CliError(f"--out target {target!r} exists; pass --force to overwrite")


@contextlib.contextmanager
def _argument_errors(option: str = ""):
    """Report a ValueError or OSError raised inside as an argument error, its message prefixed with `option`."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise CliError(f"{option}: {exc}" if option else str(exc)) from exc


def _write_summary(path: str, command: str, config: dict, results: dict) -> None:
    """The run's summary document at `path`."""
    doc = {"format_version": SUMMARY_FORMAT_VERSION, "command": command, "config": config, "results": results}
    _files.write_json(path, doc, indent=2)


def _write(args, run: _Run) -> None:
    """Write `run` at --out in the layout the parser declares for its command."""
    out = args.out
    command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    config = _config(args) if run.config is None else run.config
    if args.layout == _SUMMARY:
        _write_summary(out, command, config, run.results)
    elif args.layout == _DATA:
        run.data(out)
    else:
        # the old summary goes first, so no data ever sits beside an older run's summary
        with contextlib.suppress(FileNotFoundError):
            os.remove(_summary_path(out))
        run.data(out)
        _write_summary(_summary_path(out), command, config, run.results)


# the parser's own keys and the options that cannot change an output
_UNRECORDED = ("command", "action", "fn", "layout", "force", "threads")


def _config(args, **override) -> dict:
    """A summary's config: every parsed option of the command, then `override`."""
    return {k: v for k, v in vars(args).items() if k not in _UNRECORDED} | override


def _gaussian_spec(args) -> GaussianSpec:
    # the parser settles --process and --dim, so a refusal is the Hurst index's pairing with the process
    with _argument_errors("--hurst"):
        return GaussianSpec(kind=args.process, dim=args.dim, hurst=args.hurst)


def _grid(args) -> TimeGrid:
    # the parser settles --steps, so a refusal is the horizon's
    with _argument_errors("--horizon"):
        return TimeGrid(horizon=args.horizon, n_steps=args.steps)


def _parse_ambient(preset_or_path: str, dim: int, level: int = 3, *, fit: bool = True) -> AmbientSpec:
    """--ambient accepts a JSON file path or a preset string.

    Presets: classical[:kind], terminal, level1:p, level2:p, level3:p,
    holder2:alpha (levels built for the run's --dim).  With `fit`, the
    ambient must fit a path of dimension `dim` lifted to `level`.
    """
    head, _, arg = preset_or_path.partition(":")
    try:
        if os.path.exists(preset_or_path):
            ambient = AmbientSpec.load(preset_or_path)
        elif head == "classical":
            ambient = classical_ambient(dim, kind=arg or "sup")
        elif head == "terminal":
            ambient = classical_ambient(dim, kind="terminal")
        elif head in ("level1", "level2", "level3"):
            ambient = ambient_for_levels(dim, int(head[-1]), norm_kind="pvar", p=_number(arg or "2.5"))
        elif head == "holder2":
            ambient = ambient_for_levels(dim, 2, norm_kind="holder", alpha=_number(arg or "0.4"))
        else:
            raise CliError(f"--ambient {preset_or_path!r} is neither a file nor a known preset")
        if fit:
            ambient.check_fits(dim, level)
    except (ValueError, OSError) as exc:
        # AmbientSpec.load chains the cause to an error that repeats the file name
        raise CliError(f"--ambient {preset_or_path!r}: {exc.__cause__ or exc}") from None
    return ambient


_EVENT_KINDS = {"sup-ge": "sup-level1", "terminal-ge": "terminal-abs", "hom-ge": "hom-norm", "level2-ge": "level2-entry"}


def _check_process(args, ambient: AmbientSpec | None, spec: GaussianSpec) -> None:
    """Refuse an ambient the run evaluates whose norms are infinite on the process (`AmbientSpec.check_process`)."""
    if ambient is not None:
        with _argument_errors(f"--ambient {args.ambient!r} with --hurst {args.hurst}"):
            ambient.check_process(spec)


def _parse_event(text: str, ambient: AmbientSpec | None, dim: int) -> EventSpec:
    """Event syntax: sup-ge:c | terminal-ge:c | hom-ge:c | level2-ge:i,j,c (i, j <= dim)."""
    head, _, arg = text.partition(":")
    if head not in _EVENT_KINDS:
        raise CliError(f"--event kind {head!r} unknown")
    if not arg:
        raise CliError(f"--event {text!r} is missing its threshold")
    kind = _EVENT_KINDS[head]
    with _argument_errors(f"--event {text!r}"):
        if kind != "level2-entry":
            return EventSpec(kind, _number(arg), ambient=ambient if kind == "hom-norm" else None)
        parts = arg.split(",")
        if len(parts) != 3:
            raise CliError(f"--event level2-ge wants i,j,c, got {arg!r}")
        entry = _check_entry([_integer(token) for token in parts[:2]], dim)
        return EventSpec(kind, _number(parts[2]), entry=entry)


def _parse_shift(text: str, grid: TimeGrid, dim: int) -> CameronMartinPath:
    """Shift syntax: ramp:c (h(t) = c t in every component) | onb:k (d=1)."""
    head, _, arg = text.partition(":")
    if head not in ("ramp", "onb"):
        raise CliError(f"--shift {text!r} unknown (use ramp:c or onb:k)")
    with _argument_errors(f"--shift {text!r}"):
        if head == "ramp":
            h = CameronMartinPath(grid, np.full((grid.n_steps, dim), _number(arg or "1.0")))
            _half_energy(h)
        else:
            h = brownian_onb(_integer(arg or "1"), grid)
            h.check_fits(grid, dim)
    return h


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> _Run:
    spec = _gaussian_spec(args)
    grid = _grid(args)
    path = sample(spec, grid, args.seed)
    return _Run(
        f"sample: wrote {args.out} (n={grid.n_steps}, d={spec.dim}, seed={args.seed})",
        {"rows": grid.n_steps + 1}, lambda out: write_path_csv(path, out),
    )


def _cmd_lift(args) -> _Run:
    if args.infile:
        given = [k for k in _PROCESS_DEFAULTS if getattr(args, k) is not None]
        if given:
            raise CliError(f"--{given[0]} describes a sampled path; --in reads its path from the file")
        with _argument_errors():
            x = read_path_csv(args.infile)
        source = {"in": args.infile}
    else:
        for k, default in _PROCESS_DEFAULTS.items():
            if getattr(args, k) is None:
                setattr(args, k, default)
        x = sample(_gaussian_spec(args), _grid(args), args.seed)
        source = {k: getattr(args, k) for k in (*_PROCESS_DEFAULTS, "seed")}
    if args.scheme == "ito":
        e = ito_lift(x, level=args.level)
    elif args.scheme == "stratonovich":
        e = stratonovich_lift(x, level=args.level)
    else:
        with _argument_errors(f"--dyadic-level {args.dyadic_level}"):
            skeleton = piecewise_linear(x, args.dyadic_level)
        e = young_skeleton_lift(skeleton, level=args.level)
    residual = max_chen_residual(e)
    config = dict(source, scheme=args.scheme, level=args.level, out=args.out)
    if args.scheme == "young":
        config["dyadic_level"] = args.dyadic_level
    return _Run(
        f"lift: wrote {args.out} (scheme={args.scheme}, level={args.level}, chen={residual:.2e})",
        {"max_dyadic_chen_residual": residual}, lambda out: save_enhanced(e, out), config,
    )


def _cmd_norm(args) -> _Run:
    with _argument_errors():
        e = load_enhanced(args.infile)
    ambient = _parse_ambient(args.ambient, e.dim, e.max_level) if args.ambient else None
    # each symbol's norm once, streamed from the basepoint tensors
    norms = to_graded(e, ambient)
    hom, ban = homogeneous_norm(norms), banach_norm(norms)
    digest = f"norm: |||x||| = {hom!r}, ||x|| = {ban!r}" + (f" -> {args.out}" if args.out else "")
    return _Run(digest, {"homogeneous_norm": hom, "banach_norm": ban},
                config={"in": args.infile, "ambient": args.ambient})


def _cmd_ldp(args) -> _Run:
    ambient = _parse_ambient(args.ambient, args.dim) if args.ambient else None
    spec = _gaussian_spec(args)
    event = _parse_event(args.event, ambient, args.dim)
    _check_process(args, event.ambient, spec)
    grid = _grid(args)
    if args.oracle is not None:
        with _argument_errors():
            _check_oracle(args.oracle, event, spec, args.scheme)
        with _argument_errors(f"--event {args.event!r}"):
            _oracle_terms(args.oracle, event, spec, grid)
    estimate = empirical_rate(
        spec, args.scheme, event, args.epsilons, args.samples, args.seed,
        grid=grid, oracle=args.oracle, threads=args.threads,
    )
    live = [s for s in estimate.scaled if not np.isnan(s)]
    digest = f"ldp: wrote {args.out}; extrapolated_rate={estimate.extrapolated_rate!r}"
    if math.isnan(estimate.extrapolated_rate):
        digest += f" (fewer than two epsilons with {TAIL_MIN_HITS} <= hits <= samples/10, so no tail fit)"
    if estimate.oracle_values:
        digest += f"; oracle_scaled[min eps]={estimate.oracle_values[-1]!r}"
    if estimate.censored:
        digest += f"; censored={estimate.censored}"
    if live:
        digest += f"; scaled[{estimate.epsilons[0]}]={live[0]!r}"
    return _Run(digest, estimate.to_document(), lambda out: _files.write_csv_rows(out, estimate.csv_rows()))


def _cmd_eta0(args) -> _Run:
    # --dim builds presets only: the skeleton has one component per distinguished symbol,
    # and eta0_estimate checks the ambient against that noise dimension
    with _argument_errors("--horizon"):
        TimeGrid(args.horizon, args.segments)
    ambient = _parse_ambient(args.ambient, args.dim, fit=False)
    # the parser and the grid checked every other argument, so a refusal is the ambient not fitting its noise symbols
    with _argument_errors(f"--ambient {args.ambient!r}"):
        result = eta0_estimate(ambient, args.segments, args.restarts, args.seed, horizon=args.horizon)
    digest = (
        f"eta0: wrote {args.out}; eta0_hat={result.eta0_hat!r} "
        f"({sum(result.converged)} of {result.restarts_used} restarts converged)"
    )
    return _Run(digest, result.to_document(), config=_config(args, dim=ambient.noise_dim))


def _cmd_fernique(args) -> _Run:
    ambient, spec = _parse_ambient(args.ambient, args.dim), _gaussian_spec(args)
    _check_process(args, ambient, spec)
    fit = fernique_tail_fit(
        spec, args.scheme, ambient, args.samples, args.seed, grid=_grid(args), threads=args.threads
    )
    return _Run(f"fernique: wrote {args.out}; eta_hat={fit.eta_hat!r} over t in {fit.fit_range}",
                fit.to_document(), lambda out: _files.write_csv_rows(out, fit.csv_rows()))


def _cmd_cm_check(args) -> _Run:
    grid = _grid(args)
    functionals = REWEIGHT_FUNCTIONALS if args.functional == "all" else (args.functional,)
    check = reweight_check(
        functionals, _parse_shift(args.shift, grid, args.dim), spec=_gaussian_spec(args), grid=grid,
        n_samples=args.samples, seed=args.seed, threads=args.threads,
    )
    max_z = max(abs(rep.z_score) for rep in check.reweight.values())
    digest = (
        f"cm-check: wrote {args.out}; E[f_h]={check.mean_density:.4f}+-{check.mean_density_se:.4f}, "
        f"max |z|={max_z:.2f}"
    )
    return _Run(digest, check.to_document())


def _cmd_chaos_project(args) -> _Run:
    with _argument_errors():
        obj = _files.read_json(args.poly, chaos_mod.chaos_from_document)
    if not isinstance(obj, chaos_mod.ChaosPolynomial):
        raise CliError(f"--poly {args.poly!r} holds a graded family; project wants a scalar polynomial")
    projected = chaos_mod.chaos_project(obj, args.degree)
    return _Run(f"chaos project: wrote {args.out} ({len(projected.coeffs)} terms at degree {args.degree})",
                data=lambda out: _files.write_json(out, chaos_mod.chaos_to_document(projected), indent=2))


def _cmd_chaos_proxy(args) -> _Run:
    with _argument_errors():
        obj = _files.read_json(args.poly, chaos_mod.chaos_from_document)
    if isinstance(obj, chaos_mod.ChaosPolynomial):
        raise CliError(f"--poly {args.poly!r} holds a scalar polynomial; proxy wants a graded family")
    h = np.array([_number(tok) for tok in args.shift_vector.split(",")])
    with _argument_errors(f"--shift-vector {args.shift_vector!r}"):
        exact = chaos_mod.proxy_restriction_exact(obj, h)
    # the parser and the exact restriction settle every other argument, so a refusal is the family's degree
    with _argument_errors(f"--poly {args.poly!r}"):
        mc = chaos_mod.proxy_restriction_mc(obj, h, args.samples, args.seed)
    worst = max((abs(exact[k] - mc[k][0]) / (mc[k][1] or 1.0) for k in exact), default=0.0)
    results = {"exact": exact, "mc": {k: {"estimate": v[0], "se": v[1]} for k, v in mc.items()}}
    return _Run(f"chaos proxy: wrote {args.out}; worst |exact-mc|/se = {worst:.2f}", results)


def _cmd_chaos_norm_equiv(args) -> _Run:
    # the parser settles every other argument, so a refusal is the p/q pair or the quadrature it asks for
    with _argument_errors(f"--p {args.p} --q {args.q}"):
        report = chaos_mod.chaos_norm_equivalence_probe(
            args.degree, args.p, args.q, args.trials, dimension=args.dim, seed=args.seed
        )
    digest = (
        f"chaos norm-equiv: wrote {args.out}; worst ratio {report['worst_ratio']:.4f} "
        f"vs bound {report['bound']:.4f}, violations={report['violations']}"
    )
    return _Run(digest, report, code=0 if report["violations"] == 0 else 1)


def _cmd_selftest(args) -> _Run:
    from .grids import sample as sample_path
    from .chaos import expectation_quadrature, hermite, multi_index_factorial

    lines = []
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        lines.append(f"selftest {tag} {name}{(' ' + detail) if detail else ''}")
        failures += 0 if ok else 1

    grid = TimeGrid(1.0, 256)
    x = sample_path(GaussianSpec("bm", 2), grid, seed=1234)
    rng = np.random.default_rng(99)
    h = CameronMartinPath(grid, rng.standard_normal((256, 2)))

    ei = ito_lift(x, level=3)
    es = stratonovich_lift(x, level=3)
    ey = young_skeleton_lift(piecewise_linear(x, 4), level=3)
    worst = max(max_chen_residual(e) for e in (ei, es, ey))
    check("chen-relation", worst <= 1e-10, f"max residual {worst:.2e}")

    b2, b3, v = ey.base2, ey.base3, ey.level1.values
    d = 2
    worst = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            r1 = np.max(np.abs(b2[:, i, j] * v[:, i] - b3[:, i, j, i] - 2 * b3[:, i, i, j]))
            r2 = np.max(np.abs(b2[:, i, i] * v[:, j] - b3[:, i, i, j] - b3[:, i, j, i] - b3[:, j, i, i]))
            worst = max(worst, r1, r2)
    check("shuffle-relations", worst <= 1e-10, f"max defect {worst:.2e}")

    ambient = ambient_for_levels(2, 2)
    worst = 0.0
    for eps in (0.1, 0.5, 2.0):
        lhs = homogeneous_norm(to_graded(dilate_enhanced(es, eps), ambient))
        rhs = eps * homogeneous_norm(to_graded(es, ambient))
        worst = max(worst, abs(lhs - rhs) / rhs)
        scaled = young_skeleton_lift(h.scaled(eps), level=2)
        base_ref = eps**2 * young_skeleton_lift(h, level=2).base2
        worst = max(worst, np.max(np.abs(scaled.base2 - base_ref)) / max(1.0, np.max(np.abs(base_ref))))
    check("homogeneity", worst <= 1e-12, f"max rel defect {worst:.2e}")

    worst = 0.0
    for alpha in [(0,), (1,), (2,), (3,), (4,)]:
        for beta in [(0,), (1,), (2,), (3,), (4,)]:
            val = expectation_quadrature(
                lambda z: hermite(alpha[0], z[:, 0]) * hermite(beta[0], z[:, 0]), 1, 4
            )
            target = multi_index_factorial(alpha) if alpha == beta else 0.0
            worst = max(worst, abs(val - target))
    check("hermite-orthogonality", worst <= 1e-9, f"max defect {worst:.2e}")

    shifted = lifted_shift(ei, h)
    direct = ito_lift(shift_path(x, h), level=3)
    worst = max(
        float(np.max(np.abs(shifted.base2 - direct.base2))),
        float(np.max(np.abs(shifted.base3 - direct.base3))),
    )
    check("lifted-shift", worst <= 1e-10, f"max residual {worst:.2e}")

    lhs = cm_log_density(shift_path(x, h), h).log_density
    rhs = -cm_log_density(x, h.scaled(-1.0)).log_density
    check("cm-density-inversion", abs(lhs - rhs) <= 1e-10, f"defect {abs(lhs - rhs):.2e}")

    lines.append(f"selftest: {failures} suite(s) failed" if failures else "selftest: all suites passed")
    return _Run("\n".join(lines), code=1 if failures else 0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _count(minimum: int = 1, maximum: float = math.inf):
    """argparse type for a count: an integer from minimum to maximum, else exit 2 naming the option."""

    def parse(text: str) -> int:
        value = _integer(text)
        if isinstance(value, str) or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"expected an integer <= {maximum}, got {text!r}")
        return value

    return parse


def _integer(text: str):
    """int(text) for an integer numeral, else `text` itself, which `grids._count` refuses by name."""
    return int(text) if text.removeprefix("-").isdecimal() else text


def _number(text: str) -> float:
    """float(text), or NaN when `text` is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _epsilons(text: str) -> list[float]:
    """argparse type for --epsilons: comma-separated numbers that `_check_epsilons` accepts."""
    values = [_number(tok) for tok in text.split(",") if tok]
    try:
        _check_epsilons(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} from {text!r}") from None
    return values


# the process options' defaults; lift applies them on its --seed route only
_PROCESS_DEFAULTS = {"process": "bm", "dim": 1, "steps": 256, "horizon": 1.0, "hurst": None}


def _add_process_args(p: argparse.ArgumentParser, dim_default: int = 1, processes=("bm", "fbm")):
    p.add_argument("--process", choices=processes)
    p.add_argument("--dim", type=_count())
    p.add_argument("--steps", type=_count())
    p.add_argument("--horizon", type=float)
    p.add_argument("--hurst", type=float)
    p.set_defaults(**_PROCESS_DEFAULTS | {"dim": dim_default})


def _add_threads_arg(p: argparse.ArgumentParser):
    """--threads, at most `MAX_THREADS`: by default the CPUs this process may run on, up to that maximum."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        cpus = os.cpu_count() or 1
    p.add_argument("--threads", type=_count(1, MAX_THREADS), default=min(cpus, MAX_THREADS))


def _add_output_args(p: argparse.ArgumentParser, layout: str, required: bool = True):
    """--out and --force, and what the command writes at --out (`_BESIDE`, `_SUMMARY` or `_DATA`)."""
    p.add_argument("--out", required=required)
    p.add_argument("--force", action="store_true")
    p.set_defaults(layout=layout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerlift",
        description="Rough-path lifts of Gaussian paths: sampling, norms, "
        "chaos tools, measure changes, and tail/rate estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Gaussian path and write it as CSV")
    _add_process_args(p)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_output_args(p, _BESIDE)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("lift", help="enhance a path (ito, stratonovich, or young)")
    _add_process_args(p)
    p.set_defaults(**dict.fromkeys(_PROCESS_DEFAULTS))  # --in takes none of them
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="path CSV to lift")
    source.add_argument("--seed", type=_count(0), help="seed of a path sampled from the process options")
    p.add_argument("--scheme", choices=("ito", "stratonovich", "young"), default="ito")
    p.add_argument("--level", type=int, choices=(2, 3), default=2)
    p.add_argument("--dyadic-level", type=_count(0), default=4,
                   help="piecewise-linear level for the young scheme")
    _add_output_args(p, _BESIDE)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("norm", help="graded norms of a stored enhanced path")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ambient", default=None, help="ambient JSON file or preset")
    _add_output_args(p, _SUMMARY, required=False)
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("ldp", help="scaled log-probabilities of dilated lifts")
    _add_process_args(p)
    p.add_argument("--scheme", choices=MC_SCHEMES, default="stratonovich")
    p.add_argument("--event", required=True, help="sup-ge:c | terminal-ge:c | hom-ge:c | level2-ge:i,j,c")
    p.add_argument("--epsilons", type=_epsilons, required=True, help="comma-separated, e.g. 0.5,0.4,0.01")
    # the pilot draws its samples from the streams after the main run
    p.add_argument("--samples", type=_count(1, _STREAMS - PILOT_SAMPLES), required=True)
    p.add_argument("--oracle", choices=tuple(ORACLES), default=None)
    p.add_argument("--ambient", default=None)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_threads_arg(p)
    _add_output_args(p, _BESIDE)
    p.set_defaults(fn=_cmd_ldp)

    p = sub.add_parser("eta0", help="minimize the scale-invariant tail quotient")
    p.add_argument("--ambient", required=True, help="ambient JSON file or preset")
    p.add_argument("--dim", type=_count(), default=1, help="path dimension of a preset ambient")
    p.add_argument("--segments", type=_count(2), default=16)
    p.add_argument("--restarts", type=_count(), default=8,
                   help="random starts of the simplex search; each restarts once from its best vertex")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_output_args(p, _SUMMARY)
    p.set_defaults(fn=_cmd_eta0)

    p = sub.add_parser("fernique", help="fit the Gaussian tail slope of lifted norms")
    _add_process_args(p, dim_default=2)
    p.add_argument("--scheme", choices=MC_SCHEMES, default="stratonovich")
    p.add_argument("--ambient", required=True)
    p.add_argument("--samples", type=_count(FERNIQUE_MIN_SAMPLES, _STREAMS), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_threads_arg(p)
    _add_output_args(p, _BESIDE)
    p.set_defaults(fn=_cmd_fernique)

    p = sub.add_parser("cm-check", help="density, mgf, and reweighting checks")
    _add_process_args(p, processes=("bm",))  # the shift density is Brownian-only
    p.add_argument("--shift", default="ramp:1.0", help="ramp:c | onb:k")
    p.add_argument("--functional", choices=("all", *STATISTICS), default="all")
    p.add_argument("--samples", type=_count(2, _STREAMS), required=True)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_threads_arg(p)
    _add_output_args(p, _SUMMARY)
    p.set_defaults(fn=_cmd_cm_check)

    actions = sub.add_parser("chaos", help="chaos-polynomial actions").add_subparsers(dest="action", required=True)

    p = actions.add_parser("project", help="project a polynomial onto one chaos degree")
    p.add_argument("--poly", required=True, help="chaos JSON document")
    p.add_argument("--degree", type=_count(0), default=2)
    _add_output_args(p, _DATA)
    p.set_defaults(fn=_cmd_chaos_project)

    p = actions.add_parser("proxy", help="exact and Monte Carlo proxy restrictions of a graded family")
    p.add_argument("--poly", required=True, help="chaos JSON document")
    p.add_argument("--shift-vector", required=True, help="comma-separated h")
    p.add_argument("--samples", type=_count(chaos_mod.PROXY_MIN_SAMPLES), default=10_000)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_output_args(p, _SUMMARY)
    p.set_defaults(fn=_cmd_chaos_proxy)

    p = actions.add_parser("norm-equiv", help="probe the L^p-L^q norm equivalence on one chaos")
    p.add_argument("--degree", type=_count(0, chaos_mod.PROBE_MAX_DEGREE), default=2)
    p.add_argument("--trials", type=_count(), default=100)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--dim", type=_count(1, chaos_mod.PROBE_MAX_DIMENSION), default=2)
    p.add_argument("--seed", type=_count(0), required=True)
    _add_output_args(p, _SUMMARY)
    p.set_defaults(fn=_cmd_chaos_norm_equiv)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: check --out, run, write its files, print its digest; return the exit code."""
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out is not None:
            _check_out(out, args.force, summary=args.layout == _BESIDE)
        run = args.fn(args)
        if out is not None:
            _write(args, run)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    print(run.digest)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
