"""Command-line interface: analyze, simulate, twirl-check, mingap, sweep.

Reports are plain `key = value` text with a fixed key order and no
timestamps, so a given configuration and seed always produce byte-identical
output.  All numeric output uses shortest-roundtrip float rendering (at
least 12 significant digits); exactly computed values additionally carry a
`.exact` row with the rational.

Exit codes: 0 success, 1 invalid configuration, 2 enumeration budget
exceeded, 3 certification or equivalence check failure.  The enumeration
budget defaults to 10^7 points and can be overridden with --budget, which
every subcommand takes, or the FRAMEBC_ENUM_BUDGET environment variable (a
budget below 1 is invalid); it caps the codebook's (L+2)^d codewords,
exact lattice soundness below `soundness_floor(d)`, twirl-check's z<N>
enumeration of N^2 compiled sessions and its Haar --samples; each is
refused before it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import analysis, engine, lattice, so3
from .analysis import _fmt

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_CHECK = 3

BUDGET_ENV = "FRAMEBC_ENUM_BUDGET"

PROTOCOLS = ("lattice", "four-symbol", "continuous")


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit code 2; we reserve 2 for budgets."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _resolve_budget(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            budget = int(env) if env else lattice.DEFAULT_ENUM_BUDGET
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV} must be an integer, got {env!r}") from exc
    if budget < 1:
        raise ValueError(f"the enumeration budget must be at least 1, got {budget}")
    return budget


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_group(text: str) -> so3.MisalignmentDistribution:
    if text == "haar":
        return so3.HaarSO3()
    if text.startswith("z") and text[1:].isdigit():
        return so3.CyclicZ(int(text[1:]))
    if text.startswith("twopoint:"):
        angles = tuple(float(tok) for tok in text.split(":", 1)[1].split(","))
        return so3.TwoPointAngleMixture(angles)
    raise ValueError(
        f"unrecognized group spec {text!r}: use z<N>, haar, or twopoint:<a,b,...>"
    )


def _parse_values(text: str, cast) -> list:
    return [cast(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _protocol_report(args, mode: str, **sampling) -> analysis.SecurityReport:
    budget = _resolve_budget(args)
    if args.protocol == "lattice":
        params = lattice.make_params(
            args.d, args.L, eps_meas=args.eps, predicate=args.predicate, budget=budget
        )
        return analysis.lattice_report(params, mode=mode, budget=budget, **sampling)
    if args.protocol == "four-symbol":
        return analysis.four_symbol_report(mode=mode, **sampling)
    return analysis.continuous_report(args.alpha, mode=mode, **sampling)


def cmd_analyze(args) -> int:
    _emit(_protocol_report(args, "exact").to_text(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    report = _protocol_report(args, "monte-carlo", trials=args.trials, seed=args.seed)
    _emit(report.to_text(), args.out)
    return EXIT_OK


def _emit_verdict(title: str, config: tuple, results: list, ok: bool, out: str | None) -> int:
    """Write a pass/fail report and return its exit code."""
    results.append(("verdict", "pass" if ok else "fail"))
    _emit(analysis.SecurityReport(title, config, tuple(results)).to_text(), out)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_twirl_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ValueError(
            f"--threshold must be finite and positive, got {args.threshold!r}"
        )
    budget = _resolve_budget(args)
    group = _parse_group(args.group)
    config = (("group", args.group), ("samples", args.samples), ("seed", args.seed))
    if isinstance(group, so3.CyclicZ):
        probe = engine.probe_protocol(group)
        # the |G|^2 compiled enumeration first, so an over-budget group runs nothing
        compiled = engine.compiled_transcript_distribution(probe, group, budget=budget)
        base = engine.transcript_distribution(probe, budget=budget)
        equal = base == compiled
        # the compiled relative frame must itself be uniform over the group:
        # each of the n frames u_b^-1 u_a comes from exactly n of the n^2 pairs
        support = [u for u, _ in so3.enumerate_support(group)]
        frames = Counter(
            round(so3.rotation_z_angle(u_b.T @ u_a) * group.n / so3.TAU) % group.n
            for u_a in support
            for u_b in support
        )
        frame_uniform = frames == Counter({k: group.n for k in range(group.n)})
        results = [
            ("method", "exact-enumeration"),
            ("transcript_distributions_equal", equal),
            ("relative_frame_uniform", frame_uniform),
            ("support_size", len(base)),
        ]
        ok = equal and frame_uniform
    elif isinstance(group, so3.HaarSO3):
        if args.samples > budget:  # the moments hold a (samples, 3) buffer
            raise lattice.BudgetExceededError(
                f"Haar sample count {args.samples} exceeds budget {budget}"
            )
        deltas = engine.haar_twirl_moments(args.samples, args.seed)
        results = [("method", "moment-test"), *sorted(deltas.items()),
                   ("threshold", args.threshold)]
        ok = all(v < args.threshold for v in deltas.values())
    else:
        # non-group channels cannot be twirled away; surface the engine error
        engine.twirl_compile(engine.probe_protocol(group), group)
        raise AssertionError("unreachable")
    return _emit_verdict("twirl equivalence", config, results, ok, args.out)


def cmd_mingap(args) -> int:
    if args.eps is not None and not (math.isfinite(args.eps) and args.eps >= 0):
        raise ValueError(f"--eps must be finite and nonnegative, got {args.eps!r}")
    budget = _resolve_budget(args)
    basis = lattice.build_angle_basis(args.d, args.L, budget=budget)
    results = [
        ("codebook_points", lattice.codebook_size(args.d, args.L)),
        ("min_gap", basis.min_gap),
        ("separation", basis.separation),
        ("max_safe_eps", basis.max_safe_eps),
    ]
    ok = True
    if args.eps is not None:
        ok = basis.certifies(args.eps)
        results += [("eps", args.eps), ("eps_certified", ok)]
    config = (("d", args.d), ("L", args.L), ("budget", budget))
    return _emit_verdict("codebook certification", config, results, ok, args.out)


def cmd_sweep(args) -> int:
    budget = _resolve_budget(args)
    rows: list[str] = []
    if args.protocol == "lattice":
        d_values = _parse_values(args.d_values, int)
        L_values = _parse_values(args.L_values, int)
        if not d_values or not L_values:
            raise ValueError("lattice sweep needs --d-values and --L-values")
        rows.append(
            f"# framebc sweep protocol=lattice d-values={args.d_values} "
            f"L-values={args.L_values} budget={budget}"
        )
        # the `lattice_report` figures each row shows, in column order
        keys = ("soundness", "concealing_exact", "concealing_bound",
                "binding_flip_strict", "binding_flip_lenient")
        rows.append("\t".join(("d", "L", "eps_meas") + keys))
        for d in d_values:
            for L in L_values:
                params = lattice.make_params(d, L, budget=budget)
                figures = dict(analysis.lattice_report(params, budget=budget).results)
                cells = (d, L, params.eps_meas) + tuple(figures[k] for k in keys)
                rows.append("\t".join(_fmt(v) for v in cells))
    elif args.protocol == "continuous":
        alphas = _parse_values(args.alphas, float)
        if not alphas:
            raise ValueError("continuous sweep needs --alphas")
        if args.trials < 0:
            raise ValueError(f"--trials must be at least 0, got {args.trials}")
        with_mc = args.trials > 0
        rows.append(
            f"# framebc sweep protocol=continuous alphas={args.alphas} "
            f"trials={args.trials} seed={args.seed}"
        )
        header = "alpha\taccept_reveal0\taccept_reveal1"
        if with_mc:
            header += "\taccept_reveal0_mc\taccept_reveal1_mc\ttrials\tseed"
        rows.append(header)
        curve = analysis.cheat_curve_continuous(
            alphas, trials=args.trials, seed=args.seed, with_mc=with_mc
        )
        for row in curve:
            cells = (row.alpha, row.p0_exact, row.p1_exact)
            if with_mc:
                cells += (row.p0_mc.rate, row.p1_mc.rate, args.trials, args.seed)
            rows.append("\t".join(_fmt(v) for v in cells))
    else:
        raise ValueError("sweep supports --protocol lattice or continuous")
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="framebc",
        description=(
            "Simulation and exact security analysis of bit commitment over "
            "misaligned-reference-frame channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None, help="write the report to this file")
    shared.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, default=3, help="lattice dimensions")
        p.add_argument("--L", type=int, default=8, help="values per coordinate")
        p.add_argument("--eps", type=float, default=None,
                       help="measurement tolerance (default: safe/4)")
        p.add_argument("--predicate", choices=lattice.PREDICATES,
                       default="lenient", help="reveal-test reading")
        p.add_argument("--alpha", type=float, default=0.5,
                       help="interpolation parameter (continuous protocol)")

    p_analyze = sub.add_parser("analyze", parents=[shared], help="exact security analysis")
    p_analyze.add_argument("--protocol", choices=PROTOCOLS, required=True)
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", parents=[shared], help="Monte Carlo estimates")
    p_sim.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=42)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_twirl = sub.add_parser("twirl-check", parents=[shared],
                             help="channel-vs-compiled equivalence check")
    p_twirl.add_argument("--group", required=True,
                         help="z<N>, haar, or twopoint:<a,b,...>")
    p_twirl.add_argument("--samples", type=int, default=100_000)
    p_twirl.add_argument("--seed", type=int, default=42)
    p_twirl.add_argument("--threshold", type=float, default=0.02)
    p_twirl.set_defaults(func=cmd_twirl_check)

    p_gap = sub.add_parser("mingap", parents=[shared], help="codebook separation certificate")
    p_gap.add_argument("--d", type=int, required=True)
    p_gap.add_argument("--L", type=int, required=True)
    p_gap.add_argument("--eps", type=float, default=None,
                       help="certify this measurement tolerance")
    p_gap.set_defaults(func=cmd_mingap)

    p_sweep = sub.add_parser("sweep", parents=[shared], help="grid sweeps as TSV tables")
    p_sweep.add_argument("--protocol", choices=("lattice", "continuous"),
                         required=True)
    p_sweep.add_argument("--d-values", default="1,2,3")
    p_sweep.add_argument("--L-values", default="4,8,16")
    p_sweep.add_argument("--alphas", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p_sweep.add_argument("--trials", type=int, default=0,
                         help="add Monte Carlo columns when > 0")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except lattice.BudgetExceededError as exc:
        print(f"framebc: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"framebc: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
