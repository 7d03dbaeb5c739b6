"""Command-line front end.

Each subcommand maps onto a harness config; flags are long-form only.
Exit codes: 0 success, 1 usage or config error, 2 numerical failure
(orthogonality, degeneracy, or a crashed worker), 3 I/O error or out of
memory.  ``HGC_WORKERS`` provides the default for ``--workers``.

``--workers k`` asks for at most k trial processes; a run forks only as
many as the cores hold beside OpenBLAS's threads
(:func:`hgc.harness.pool_budget`).  When that is fewer than
``min(k, trials)``, one ``hgc:`` line on stderr says so and how to get
parallel processes; stdout and the output files are the same either way.
A run whose blocks cannot fit in physical memory exits 1 before it
draws, and so does ``couple`` for a square that cannot.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import theory
from .coupling import gram_schmidt_couple
from .criteria import randomized_wins, run_selftest
from .errors import ConfigError, DegeneracyError, DomainError, NumericalError
from .harness import (
    COUPLINGS,
    FORMATS,
    ExperimentConfig,
    Report,
    _check_footprint,
    config_from_json,
    default_trials,
    emit,
    pool_budget,
    run,
    sweep,
)
from .rng import Seed, sample_gaussian

_KIND_OF_COMMAND = {
    "rownorms": "row-norms",
    "gh": "gh-split",
    "epsilon": "epsilon",
    "compare": "coupling-compare",
    "borel": "borel",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgc",
        description=(
            "Couple Gaussian random matrices with Haar orthogonal ones and "
            "check the concentration laws of Y - sqrt(n) U empirically."
        ),
    )
    parser.add_argument(
        "--config",
        help="run one experiment from a JSON config file (no subcommand needed)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def experiment_flags(p):
        p.add_argument("--m", type=int, help="truncation size m")
        p.add_argument("--alpha", type=float, help="size as m = floor(alpha n)")
        p.add_argument("--beta", type=float, help="size as m = floor(beta n / ln n)")
        p.add_argument("--trials", type=int, help="trial count (default 5; borel 200)")
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        p.add_argument(
            "--coupling",
            choices=COUPLINGS,
            default="plain-gs",
            help="which coupling produces the reported statistics",
        )
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=FORMATS, default="csv")
        # argparse converts a string default through ``type``, so a
        # malformed $HGC_WORKERS is reported as a usage error (exit 1).
        p.add_argument(
            "--workers",
            type=int,
            default=os.environ.get("HGC_WORKERS", "1"),
            help="parallel trial processes (default $HGC_WORKERS or 1)",
        )

    p = sub.add_parser("couple", help="run one coupling and print its diagnostics")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")

    for cmd, kind in _KIND_OF_COMMAND.items():
        p = sub.add_parser(cmd, help=f"run the {kind} experiment")
        p.add_argument("--n", type=int, required=True, help="matrix dimension")
        experiment_flags(p)

    p = sub.add_parser("sweep", help="run a grid of experiments over n")
    p.add_argument("--kind", default="row-norms", choices=tuple(_KIND_OF_COMMAND.values()),
                   help="experiment kind for every grid cell")
    p.add_argument("--n", required=True, help="comma-separated dimensions, e.g. 256,512")
    experiment_flags(p)

    p = sub.add_parser("bounds", help="print analytic tail bounds / run dominance checks")
    p.add_argument("--t", type=float, help="Gaussian tail threshold t > 0")
    p.add_argument("--n", type=int, help="ambient dimension for chi/projection bounds")
    p.add_argument("--eps", type=float, help="chi norm deviation parameter in (0,1)")
    p.add_argument("--k", type=int, help="subspace dimension for projection bounds")
    p.add_argument("--rho", type=float, help="projection deviation parameter in (0,1)")
    p.add_argument("--beta", type=float, help="print the (sqrt(beta), sqrt(2 beta)) window")
    p.add_argument("--m", type=int, help="with --n: print the eps_n(m) envelope")
    p.add_argument("--slack", type=float, default=0.0, help="envelope slack (default 0)")
    p.add_argument("--check", action="store_true",
                   help="run the Monte Carlo bound-dominance battery")
    p.add_argument("--seed", type=int, default=0, help="root seed for --check")
    p.add_argument("--out", help="output file path for --check")
    p.add_argument("--format", choices=FORMATS, default="csv")

    p = sub.add_parser("selftest", help="run the acceptance checks at reduced scale")
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _dispatch(parser, ns)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DegeneracyError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


def _dispatch(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> int:
    if ns.config:
        if ns.command is not None:
            raise ConfigError("--config replaces the subcommand; give one or the other")
        with open(ns.config, "r", encoding="utf-8") as fh:
            config = config_from_json(fh)
        _run_and_report(config)
        return 0
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if ns.command == "couple":
        return _cmd_couple(ns)
    if ns.command == "sweep":
        return _cmd_sweep(ns)
    if ns.command == "bounds":
        return _cmd_bounds(ns)
    if ns.command == "selftest":
        return 0 if run_selftest(seed=ns.seed) else 2
    _run_and_report(_experiment(ns, _KIND_OF_COMMAND[ns.command], ns.n, out=ns.out,
                                format=ns.format))
    return 0


def _experiment(ns: argparse.Namespace, kind: str, n: int, **output) -> ExperimentConfig:
    """The config of one experiment of size ``n`` from the experiment flags."""
    trials = ns.trials if ns.trials is not None else default_trials(kind)
    return ExperimentConfig(kind=kind, n=n, m=ns.m, alpha=ns.alpha, beta=ns.beta,
                            trials=trials, seed=ns.seed, coupling=ns.coupling,
                            workers=ns.workers, **output)


def _note_budget(config: ExperimentConfig) -> None:
    """Say on stderr when the cores hold fewer processes than --workers asks for.

    The bound battery runs in this process whatever --workers asks, so
    it gets no note.
    """
    asked = min(config.workers, config.trials)
    budget = pool_budget(config.workers, config.trials)
    if config.kind == "bounds-check" or budget.processes == asked:
        return
    note = (f"hgc: --workers {config.workers} runs as {budget.processes} "
            f"process{'es' if budget.processes > 1 else ''}: OpenBLAS uses "
            f"{budget.blas_threads} thread{'s' if budget.blas_threads > 1 else ''} "
            f"on {budget.cores} cores")
    if budget.blas_threads > 1:
        note += "; set OPENBLAS_NUM_THREADS=1 to run trials in parallel"
    print(note, file=sys.stderr)


def _run_and_report(config: ExperimentConfig) -> Report:
    """Run a config, print its summary line, and write it to ``config.out`` if set."""
    _note_budget(config)
    report = run(config)
    print(_summary(report))
    if config.out:
        emit(report, config.format, config.out)
    return report


def _cmd_couple(ns) -> int:
    if ns.n < 1:
        raise ConfigError(f"n must be >= 1, got {ns.n}")
    # The n x n coupling peaks at about 5 n x n blocks, Y included, inside
    # numpy's Householder QR (5.2 by ru_maxrss at n = 3000).
    _check_footprint(ns.n, ns.n, 1, blocks=5)
    pair = gram_schmidt_couple(sample_gaussian(ns.n, ns.n, Seed(ns.seed, (0,))))
    orth = float(np.abs(pair.u.T @ pair.u - np.eye(ns.n)).max())
    recon = pair.y - pair.u @ pair.trace
    rel = float(
        (np.linalg.norm(recon, axis=0) / np.linalg.norm(pair.y, axis=0)).max()
    )
    r = pair.residual_norms
    print(
        f"couple: n={ns.n} seed={ns.seed} | orthogonality max|U^T U - I|={orth:.3e}, "
        f"column reconstruction rel err={rel:.3e}, residual norms "
        f"min={r.min():.4f} max={r.max():.4f} (chi law: r_j^2 ~ chi2(n-j+1))."
    )
    return 0 if orth <= 1e-10 else 2


def _cmd_sweep(ns) -> int:
    try:
        dims = [int(tok) for tok in ns.n.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n list {ns.n!r}: {exc}") from exc
    if not dims:
        raise ConfigError("empty --n list")
    # The cells take no out or format: the sweep's table goes to --out, and
    # a cell's config run again from the JSON must not overwrite it.  An
    # invalid cell is an error of the whole grid, so no cell runs.
    configs = []
    for n in dims:
        try:
            configs.append(_experiment(ns, ns.kind, n))
        except ConfigError as exc:
            raise ConfigError(f"n={n}: {exc}") from exc
    _note_budget(configs[0])
    table = sweep(configs)
    ok = sum(1 for cell in table.cells if cell["error"] is None)
    print(f"sweep: {ok}/{len(table.cells)} cells ok over n={dims} (kind={ns.kind}).")
    for cell in table.cells:
        if cell["error"]:
            print(f"  n={cell['config'].n}: {cell['error']}")
    if ns.out:
        emit(table, ns.format, ns.out)
    return 0


def _cmd_bounds(ns) -> int:
    printed = False
    if ns.t is not None:
        lower, upper = theory.gaussian_tail_bounds(ns.t)
        print(f"gaussian tail t={ns.t:g}: {lower:.6f} <= P(Z > t) <= {upper:.6f}")
        printed = True
    if ns.n is not None and ns.eps is not None:
        bound = theory.chi_norm_tail(ns.n, ns.eps)
        print(
            f"gaussian norm n={ns.n} eps={ns.eps:g}: each deviation event "
            f"has probability <= {bound:.6f}"
        )
        printed = True
    if ns.k is not None:
        if ns.n is None or ns.rho is None:
            raise ConfigError("--k needs --n and --rho")
        t = ns.t if ns.t is not None and ns.t > 1 else None
        tails = theory.projection_tails(ns.k, ns.n, ns.rho, t)
        print(
            f"projection k={ns.k} n={ns.n} rho={ns.rho:g}: two-sided bounds "
            f"{tails.gaussian_upper:.6f} (Gaussian vector), "
            f"{tails.unit_upper:.6f} (unit vector)"
            + (f", t-bound {tails.unit_t:.6g}" if tails.unit_t is not None else "")
        )
        printed = True
    if ns.beta is not None:
        low, high = theory.beta_interval(ns.beta)
        print(f"beta={ns.beta:g}: eps_n(m) window ({low:.6f}, {high:.6f})")
        printed = True
    if ns.n is not None and ns.m is not None:
        low, high = theory.epsilon_envelope(ns.n, ns.m, ns.slack)
        target = theory.predicted_row_norm(ns.n, ns.m)
        print(
            f"envelope n={ns.n} m={ns.m} slack={ns.slack:g} (leading order): "
            f"eps in [{low:.6f}, {high:.6f}], row-norm target {target:.6f}"
        )
        printed = True
    if ns.check:
        config = ExperimentConfig(
            kind="bounds-check", n=1, seed=ns.seed, out=ns.out, format=ns.format
        )
        if not _run_and_report(config).aggregate["all_dominated"]:
            return 2
        printed = True
    if not printed:
        raise ConfigError(
            "nothing to print; give --t, --n/--eps, --k/--rho, --beta, "
            "--n/--m, or --check"
        )
    return 0


def _summary(report: Report) -> str:
    cfg = report.config
    agg = report.aggregate
    head = f"{cfg.kind}: n={cfg.n}"
    if "m" in agg:
        head += f" m={agg['m']} alpha={agg['alpha']:.4g}"
    if cfg.beta is not None:
        head += f" beta={cfg.beta:g}"
    head += f" trials={agg['trials']} seed={cfg.seed}"
    if "coupling" in agg:
        head += f" coupling={agg['coupling']}"
    head += " |"
    bits = []
    if cfg.kind == "bounds-check":
        worst = max(agg["checks"], key=lambda c: c["ratio"])
        verdict = "all dominated" if agg["all_dominated"] else "VIOLATED"
        bits.append(
            f"{len(agg['checks'])} tail bounds vs Monte Carlo: {verdict}; "
            f"worst ratio {worst['ratio']:.3f} ({worst['label']}: frequency "
            f"{worst['frequency']:.6g} vs bound {worst['bound']:.6g})"
        )
    elif cfg.kind == "borel":
        p_value = theory.kolmogorov_pvalue(math.sqrt(agg["trials"]) * agg["ks"])
        bits.append(
            f"pooled sqrt(n) u_11: KS distance to N(0,1) = {agg['ks']:.4f} "
            f"(asymptotic Kolmogorov p = {p_value:.3g}), "
            f"sample mean {agg['borel']['mean']:.4f}"
        )
    else:
        if "sup_F" in agg:
            pred = agg["theory"]["predicted"]
            bits.append(
                f"row norms q50: sup={agg['sup_F']['q50']:.4f} "
                f"inf={agg['inf_F']['q50']:.4f} vs target {pred:.4f} "
                f"(ratio_sup={agg['ratio_sup']['q50']:.4f}, "
                f"ratio_inf={agg['ratio_inf']['q50']:.4f})"
            )
        if "g2_over_m" in agg:
            bits.append(
                f"split q50: |G|^2/m={agg['g2_over_m']['q50']:.5f} "
                f"(alpha/2={agg['alpha'] / 2:.5f}), "
                f"|H|^2/m={agg['h2_over_m']['q50']:.5f}, "
                f"max|<G,H>|/m={agg['max_cross_over_m']['q50']:.5f}"
            )
        if "eps" in agg:
            env = agg["theory"]
            window = (
                f" vs leading-order envelope [{env['eps_lower']:.4f}, "
                f"{env['eps_upper']:.4f}]"
                if "eps_lower" in env
                else ""
            )
            bits.append(f"eps q50={agg['eps']['q50']:.4f}{window}")
        if "eps_randomized" in agg:
            bits.append(
                f"randomized eps q50={agg['eps_randomized']['q50']:.4f}, "
                f"improved in {randomized_wins(report)}/{agg['trials']} trials"
            )
    return head + " " + "; ".join(bits) + "."


if __name__ == "__main__":
    entrypoint()
