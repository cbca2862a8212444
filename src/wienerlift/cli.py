"""Command-line entry point for reproducible runs with file outputs.

Every stochastic subcommand takes an explicit --seed; outputs are refused if
the target exists unless --force is given; each run writes a JSON summary
embedding the fully resolved configuration next to its data files and prints
a one-line digest.  Exit codes: 0 success, 1 numerical failure, 2 argument
errors.

--threads only controls the worker count; per-sample derived seeding makes
results independent of it, so it is deliberately left out of the embedded
provenance config (outputs stay byte-identical across thread counts).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import chaos as chaos_mod
from .asymptotics import (
    MC_SCHEMES,
    ORACLES,
    STATISTICS,
    EventSpec,
    _collect_statistics,
    empirical_rate,
    eta0_estimate,
    fernique_tail_fit,
)
from .girsanov import REWEIGHT_FUNCTIONALS, cm_log_density, reweight_check, shift_path
from .grids import (
    CameronMartinPath,
    GaussianSpec,
    TimeGrid,
    brownian_onb,
    cm_inner,
    piecewise_linear,
    read_path_csv,
    sample,
    sample_values_batch,  # noqa: F401  (perfbench/spans.py patches it here)
    write_path_csv,
)
from .lifts import (
    ito_lift,
    max_chen_residual,
    save_enhanced,
    load_enhanced,
    stratonovich_lift,
    to_graded,
    young_skeleton_lift,
)
from .seminorms import (
    AmbientSpec,
    ambient_for_levels,
    banach_norm,
    classical_ambient,
    homogeneous_norm,
)

SUMMARY_FORMAT_VERSION = "run-summary/v1"


class CliError(Exception):
    """Argument-level failure: message should name the offending parameter."""


def _summary_path(out: str) -> str:
    return out + ".summary.json"


def _check_out(path: str, force: bool, summary: bool = False) -> str:
    """`path` unless a file the command writes exists and --force is not given.

    With `summary` the command also writes `_summary_path(path)`.
    """
    for target in (path, _summary_path(path)) if summary else (path,):
        if os.path.exists(target) and not force:
            raise CliError(f"--out target {target!r} exists; pass --force to overwrite")
    return path


def _read_input(load, filename: str):
    """load(filename), reporting malformed content as an argument error."""
    try:
        return load(filename)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


@contextlib.contextmanager
def _replacing(path: str):
    """Yield a temporary name beside `path`, moved onto `path` once written.

    A write that fails leaves any previous `path` as it was and removes the
    temporary file.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, doc: dict) -> None:
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _write_summary(path: str, command: str, config: dict, results: dict) -> None:
    _write_json(
        path,
        {
            "format_version": SUMMARY_FORMAT_VERSION,
            "command": command,
            "config": config,
            "results": results,
        },
    )


def _write_csv_rows(path: str, rows: list) -> None:
    import csv

    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _gaussian_spec(args) -> GaussianSpec:
    return GaussianSpec(kind=args.process, dim=args.dim, hurst=getattr(args, "hurst", None))


def _grid(args) -> TimeGrid:
    return TimeGrid(horizon=args.horizon, n_steps=args.steps)


def _process_config(args, **extra) -> dict:
    """The process and grid options of a run, plus `extra`, for its summary."""
    return dict(
        process=args.process, dim=args.dim, steps=args.steps, horizon=args.horizon,
        hurst=args.hurst, **extra,
    )


def _parse_ambient(preset_or_path: str, dim: int) -> AmbientSpec:
    """--ambient accepts a JSON file path or a preset string.

    Presets: classical[:kind], terminal, level1:p, level2:p, level3:p,
    holder2:alpha (levels built for the run's --dim).
    """
    if os.path.exists(preset_or_path):
        return _read_input(AmbientSpec.load, preset_or_path)
    head, _, arg = preset_or_path.partition(":")
    if head == "classical":
        return classical_ambient(dim, kind=arg or "sup")
    if head == "terminal":
        return classical_ambient(dim, kind="terminal")
    if head in ("level1", "level2", "level3"):
        level = int(head[-1])
        return ambient_for_levels(dim, level, norm_kind="pvar", p=float(arg or 2.5))
    if head == "holder2":
        return ambient_for_levels(dim, 2, norm_kind="holder", alpha=float(arg or 0.4))
    raise CliError(f"--ambient {preset_or_path!r} is neither a file nor a known preset")


def _parse_event(text: str, ambient: AmbientSpec | None) -> EventSpec:
    """Event syntax: sup-ge:c | terminal-ge:c | hom-ge:c | level2-ge:i,j,c."""
    head, _, arg = text.partition(":")
    if not arg:
        raise CliError(f"--event {text!r} is missing its threshold")
    if head == "sup-ge":
        return EventSpec("sup-level1", float(arg))
    if head == "terminal-ge":
        return EventSpec("terminal-abs", float(arg))
    if head == "hom-ge":
        if ambient is None:
            raise CliError("--event hom-ge needs --ambient")
        return EventSpec("hom-norm", float(arg), ambient=ambient)
    if head == "level2-ge":
        parts = arg.split(",")
        if len(parts) != 3:
            raise CliError(f"--event level2-ge wants i,j,c, got {arg!r}")
        return EventSpec(
            "level2-entry", float(parts[2]), entry=(int(parts[0]), int(parts[1]))
        )
    raise CliError(f"--event kind {head!r} unknown")


def _parse_shift(text: str, grid: TimeGrid, dim: int) -> CameronMartinPath:
    """Shift syntax: ramp:c (h(t) = c t in every component) | onb:k (d=1)."""
    head, _, arg = text.partition(":")
    if head == "ramp":
        c = float(arg or 1.0)
        deriv = np.full((grid.n_steps, dim), c)
        return CameronMartinPath(grid, deriv)
    if head == "onb":
        if dim != 1:
            raise CliError("--shift onb:k is defined for --dim 1")
        return brownian_onb(int(arg or 1), grid)
    raise CliError(f"--shift {text!r} unknown (use ramp:c or onb:k)")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    spec = _gaussian_spec(args)
    grid = _grid(args)
    out = _check_out(args.out, args.force, summary=True)
    path = sample(spec, grid, args.seed)
    with _replacing(out) as tmp:
        write_path_csv(path, tmp)
    config = _process_config(args, seed=args.seed, out=out)
    _write_summary(_summary_path(out), "sample", config, {"rows": grid.n_steps + 1})
    print(f"sample: wrote {out} (n={grid.n_steps}, d={spec.dim}, seed={args.seed})")
    return 0


def _cmd_lift(args) -> int:
    out = _check_out(args.out, args.force, summary=True)
    if args.infile:
        x = _read_input(read_path_csv, args.infile)
        source = {"in": args.infile}
    else:
        if args.seed is None:
            raise CliError("--seed is required when sampling (no --in given)")
        x = sample(_gaussian_spec(args), _grid(args), args.seed)
        source = _process_config(args, seed=args.seed)
    if args.scheme == "ito":
        e = ito_lift(x, level=args.level)
    elif args.scheme == "stratonovich":
        e = stratonovich_lift(x, level=args.level)
    else:
        h = piecewise_linear(x, args.dyadic_level)
        e = young_skeleton_lift(h, level=args.level)
    with _replacing(out) as tmp:
        save_enhanced(e, tmp)
    residual = max_chen_residual(e)
    config = dict(source, scheme=args.scheme, level=args.level, out=out)
    if args.scheme == "young":
        config["dyadic_level"] = args.dyadic_level
    _write_summary(_summary_path(out), "lift", config, {"max_dyadic_chen_residual": residual})
    print(f"lift: wrote {out} (scheme={args.scheme}, level={args.level}, chen={residual:.2e})")
    return 0


def _cmd_norm(args) -> int:
    e = _read_input(load_enhanced, args.infile)
    ambient = _parse_ambient(args.ambient, e.dim) if args.ambient else None
    gv = to_graded(e, ambient)
    hom = homogeneous_norm(gv)
    ban = banach_norm(gv)
    results = {"homogeneous_norm": hom, "banach_norm": ban}
    config = {"in": args.infile, "ambient": args.ambient}
    if args.out:
        out = _check_out(args.out, args.force)
        _write_summary(out, "norm", config, results)
        print(f"norm: |||x||| = {hom!r}, ||x|| = {ban!r} -> {out}")
    else:
        print(f"norm: |||x||| = {hom!r}, ||x|| = {ban!r}")
    return 0


def _cmd_ldp(args) -> int:
    out = _check_out(args.out, args.force, summary=True)
    ambient = _parse_ambient(args.ambient, args.dim) if args.ambient else None
    event = _parse_event(args.event, ambient)
    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok]
    estimate = empirical_rate(
        _gaussian_spec(args),
        args.scheme,
        event,
        epsilons,
        args.samples,
        args.seed,
        grid=_grid(args),
        oracle=args.oracle,
        threads=args.threads,
    )
    config = _process_config(
        args, scheme=args.scheme, event=args.event, epsilons=epsilons,
        samples=args.samples, oracle=args.oracle, seed=args.seed, out=out,
    )
    doc = estimate.to_document()
    _write_summary(_summary_path(out), "ldp", config, doc)
    _write_csv_rows(out, estimate.csv_rows())
    live = [s for s in estimate.scaled if not np.isnan(s)]
    digest = f"ldp: wrote {out}; extrapolated_rate={estimate.extrapolated_rate!r}"
    if estimate.oracle_values:
        digest += f"; oracle_scaled[min eps]={estimate.oracle_values[-1]!r}"
    if estimate.censored:
        digest += f"; censored={estimate.censored}"
    if live:
        digest += f"; scaled[{estimate.epsilons[0]}]={live[0]!r}"
    print(digest)
    return 0


def _cmd_eta0(args) -> int:
    out = _check_out(args.out, args.force)
    ambient = _parse_ambient(args.ambient, args.dim)
    result = eta0_estimate(
        ambient, args.segments, args.restarts, args.seed, horizon=args.horizon
    )
    config = {
        "ambient": args.ambient, "dim": args.dim, "segments": args.segments,
        "restarts": args.restarts, "horizon": args.horizon, "seed": args.seed,
        "out": out,
    }
    _write_summary(out, "eta0", config, result.to_document())
    print(
        f"eta0: wrote {out}; eta0_hat={result.eta0_hat!r} "
        f"(restarts={result.restarts_used}, converged={result.all_converged})"
    )
    return 0


def _cmd_fernique(args) -> int:
    out = _check_out(args.out, args.force, summary=True)
    ambient = _parse_ambient(args.ambient, args.dim)
    fit = fernique_tail_fit(
        _gaussian_spec(args),
        args.scheme,
        ambient,
        args.samples,
        args.seed,
        grid=_grid(args),
        threads=args.threads,
    )
    config = _process_config(
        args, scheme=args.scheme, ambient=args.ambient, samples=args.samples,
        seed=args.seed, out=out,
    )
    _write_summary(_summary_path(out), "fernique", config, fit.to_document())
    _write_csv_rows(out, fit.csv_rows())
    print(f"fernique: wrote {out}; eta_hat={fit.eta_hat!r} over t in {fit.fit_range}")
    return 0


def _cmd_cm_check(args) -> int:
    out = _check_out(args.out, args.force)
    spec = _gaussian_spec(args)
    grid = _grid(args)
    h = _parse_shift(args.shift, grid, args.dim)
    half_sq = 0.5 * cm_inner(h, h)

    _, _, pw = _collect_statistics(
        spec, "ito", grid, args.seed + 10_000, args.samples, 2048, args.threads, shift=h
    )
    density = np.exp(pw - half_sq)
    mean_density = float(np.mean(density))
    se_density = float(np.std(density, ddof=1) / np.sqrt(args.samples))
    exp_pw = np.exp(pw)
    mgf = float(np.mean(exp_pw))
    mgf_se = float(np.std(exp_pw, ddof=1) / np.sqrt(args.samples))
    mgf_target = float(np.exp(half_sq))

    functionals = REWEIGHT_FUNCTIONALS if args.functional == "all" else (args.functional,)
    reweight = reweight_check(
        functionals, h, spec=spec, grid=grid, n_samples=args.samples,
        seed=args.seed, threads=args.threads,
    )
    reports = {name: rep.to_document() for name, rep in reweight.items()}
    max_z = max(abs(rep["z_score"]) for rep in reports.values())
    results = {
        "mean_density": mean_density,
        "mean_density_se": se_density,
        "mgf_estimate": mgf,
        "mgf_se": mgf_se,
        "mgf_target": mgf_target,
        "half_norm_sq": half_sq,
        "reweight": reports,
    }
    config = _process_config(
        args, shift=args.shift, functional=args.functional, samples=args.samples,
        seed=args.seed, out=out,
    )
    _write_summary(out, "cm-check", config, results)
    print(
        f"cm-check: wrote {out}; E[f_h]={mean_density:.4f}+-{se_density:.4f}, "
        f"max |z|={max_z:.2f}"
    )
    return 0


def _load_chaos(filename: str):
    """Read a chaos JSON file; malformed content raises ValueError naming it."""
    try:
        with open(filename) as fh:
            return chaos_mod.chaos_from_document(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from exc


def _cmd_chaos(args) -> int:
    out = _check_out(args.out, args.force)
    if args.action in ("project", "proxy") and args.poly is None:
        raise CliError(f"chaos {args.action} needs --poly")
    if args.action == "project":
        obj = _read_input(_load_chaos, args.poly)
        if not isinstance(obj, chaos_mod.ChaosPolynomial):
            raise CliError(f"--poly {args.poly!r} holds a graded family; project wants a scalar polynomial")
        projected = chaos_mod.chaos_project(obj, args.degree)
        _write_json(out, chaos_mod.chaos_to_document(projected))
        print(f"chaos project: wrote {out} ({len(projected.coeffs)} terms at degree {args.degree})")
        return 0
    if args.action == "proxy":
        if args.seed is None:
            raise CliError("--seed is required for chaos proxy")
        if args.shift_vector is None:
            raise CliError("--shift-vector is required for chaos proxy")
        obj = _read_input(_load_chaos, args.poly)
        if isinstance(obj, chaos_mod.ChaosPolynomial):
            raise CliError(f"--poly {args.poly!r} holds a scalar polynomial; proxy wants a graded family")
        h = np.array([float(tok) for tok in args.shift_vector.split(",")])
        exact = chaos_mod.proxy_restriction_exact(obj, h)
        mc = chaos_mod.proxy_restriction_mc(obj, h, args.samples, args.seed)
        results = {
            "exact": exact,
            "mc": {k: {"estimate": v[0], "se": v[1]} for k, v in mc.items()},
        }
        config = {"poly": args.poly, "shift_vector": args.shift_vector,
                  "samples": args.samples, "seed": args.seed, "out": out}
        _write_summary(out, "chaos proxy", config, results)
        worst = max(
            (abs(exact[k] - mc[k][0]) / (mc[k][1] or 1.0) for k in exact), default=0.0
        )
        print(f"chaos proxy: wrote {out}; worst |exact-mc|/se = {worst:.2f}")
        return 0
    # norm-equiv
    if args.seed is None:
        raise CliError("--seed is required for chaos norm-equiv")
    report = chaos_mod.chaos_norm_equivalence_probe(
        args.degree, args.p, args.q, args.trials, dimension=args.dim, seed=args.seed
    )
    config = {"degree": args.degree, "p": args.p, "q": args.q,
              "trials": args.trials, "dim": args.dim, "seed": args.seed, "out": out}
    _write_summary(out, "chaos norm-equiv", config, report)
    print(
        f"chaos norm-equiv: wrote {out}; worst ratio {report['worst_ratio']:.4f} "
        f"vs bound {report['bound']:.4f}, violations={report['violations']}"
    )
    return 0 if report["violations"] == 0 else 1


def _cmd_selftest(args) -> int:
    from .grids import sample as sample_path
    from .chaos import expectation_quadrature, hermite, multi_index_factorial

    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        tag = "PASS" if ok else "FAIL"
        print(f"selftest {tag} {name}{(' ' + detail) if detail else ''}")
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

    b2, b3, v = ey.level2.base, ey.level3.base, ey.level1.values
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

    from .lifts import dilate_enhanced
    ambient = ambient_for_levels(2, 2)
    gv = to_graded(es, ambient)
    worst = 0.0
    for eps in (0.1, 0.5, 2.0):
        lhs = homogeneous_norm(to_graded(dilate_enhanced(es, eps), ambient))
        rhs = eps * homogeneous_norm(gv)
        worst = max(worst, abs(lhs - rhs) / rhs)
        scaled = young_skeleton_lift(h.scaled(eps), level=2)
        base_ref = eps**2 * young_skeleton_lift(h, level=2).level2.base
        worst = max(worst, np.max(np.abs(scaled.level2.base - base_ref)) / max(1.0, np.max(np.abs(base_ref))))
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

    from .lifts import lifted_shift as lshift
    shifted = lshift(ei, h)
    direct = ito_lift(shift_path(x, h), level=3)
    worst = max(
        float(np.max(np.abs(shifted.level2.base - direct.level2.base))),
        float(np.max(np.abs(shifted.level3.base - direct.level3.base))),
    )
    check("lifted-shift", worst <= 1e-10, f"max residual {worst:.2e}")

    lhs = cm_log_density(shift_path(x, h), h).log_density
    rhs = -cm_log_density(x, h.scaled(-1.0)).log_density
    check("cm-density-inversion", abs(lhs - rhs) <= 1e-10, f"defect {abs(lhs - rhs):.2e}")

    if failures:
        print(f"selftest: {failures} suite(s) failed")
        return 1
    print("selftest: all suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _count(minimum: int = 1):
    """argparse type for a count: an integer >= minimum, else exit 2 naming the option."""

    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


def _add_process_args(p: argparse.ArgumentParser, dim_default: int = 1):
    p.add_argument("--process", choices=("bm", "fbm"), default="bm")
    p.add_argument("--dim", type=_count(), default=dim_default)
    p.add_argument("--steps", type=_count(), default=256)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--hurst", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wienerlift",
        description="Rough-path lifts of Gaussian paths: sampling, norms, "
        "chaos tools, measure changes, and tail/rate estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a Gaussian path and write it as CSV")
    _add_process_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("lift", help="enhance a path (ito, stratonovich, or young)")
    _add_process_args(p)
    p.add_argument("--in", dest="infile", default=None, help="path CSV to lift")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scheme", choices=("ito", "stratonovich", "young"), default="ito")
    p.add_argument("--level", type=int, choices=(2, 3), default=2)
    p.add_argument("--dyadic-level", type=_count(0), default=4,
                   help="piecewise-linear level for the young scheme")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("norm", help="graded norms of a stored enhanced path")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ambient", default=None, help="ambient JSON file or preset")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("ldp", help="scaled log-probabilities of dilated lifts")
    _add_process_args(p)
    p.add_argument("--scheme", choices=MC_SCHEMES, default="stratonovich")
    p.add_argument("--event", required=True, help="sup-ge:c | terminal-ge:c | hom-ge:c | level2-ge:i,j,c")
    p.add_argument("--epsilons", required=True, help="comma-separated, e.g. 0.5,0.4,0.01")
    p.add_argument("--samples", type=_count(), required=True)
    p.add_argument("--oracle", choices=tuple(ORACLES), default=None)
    p.add_argument("--ambient", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=_count(), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_ldp)

    p = sub.add_parser("eta0", help="minimize the scale-invariant tail quotient")
    p.add_argument("--ambient", required=True, help="ambient JSON file or preset")
    p.add_argument("--dim", type=_count(), default=1)
    p.add_argument("--segments", type=_count(2), default=16)
    p.add_argument("--restarts", type=_count(), default=8)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_eta0)

    p = sub.add_parser("fernique", help="fit the Gaussian tail slope of lifted norms")
    _add_process_args(p, dim_default=2)
    p.add_argument("--scheme", choices=MC_SCHEMES, default="stratonovich")
    p.add_argument("--ambient", required=True)
    p.add_argument("--samples", type=_count(), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=_count(), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_fernique)

    p = sub.add_parser("cm-check", help="density, mgf, and reweighting checks")
    _add_process_args(p)
    p.add_argument("--shift", default="ramp:1.0", help="ramp:c | onb:k")
    p.add_argument("--functional", choices=("all", *STATISTICS), default="all")
    p.add_argument("--samples", type=_count(2), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=_count(), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_cm_check)

    p = sub.add_parser("chaos", help="chaos-polynomial actions")
    p.add_argument("action", choices=("project", "proxy", "norm-equiv"))
    p.add_argument("--poly", default=None, help="chaos JSON document")
    p.add_argument("--degree", type=_count(0), default=2)
    p.add_argument("--shift-vector", default=None, help="comma-separated h for proxy")
    p.add_argument("--samples", type=_count(), default=10_000)
    p.add_argument("--trials", type=_count(), default=100)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--dim", type=_count(), default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
