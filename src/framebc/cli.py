"""Command-line interface: analyze, simulate, twirl-check, mingap, sweep.

Reports are plain `key = value` text with a fixed key order and no
timestamps, so a given configuration and seed always produce byte-identical
output.  All numeric output uses shortest-roundtrip float rendering (at
least 12 significant digits); exactly computed values additionally carry a
`.exact` row with the rational.

Exit codes: 0 success, 1 invalid configuration, 2 enumeration budget
exceeded, 3 certification or equivalence check failure.  The enumeration
budget defaults to 10^7 points and can be overridden with --budget or the
FRAMEBC_ENUM_BUDGET environment variable; twirl-check's z<N> enumeration of
N^2 sessions counts against it too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
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
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV} must be an integer, got {env!r}") from exc
    return lattice.DEFAULT_ENUM_BUDGET


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


def _lattice_params(args, budget: int) -> lattice.LatticeParams:
    return lattice.make_params(
        args.d, args.L, eps_meas=args.eps, predicate=args.predicate, budget=budget
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    budget = _resolve_budget(args)
    if args.protocol == "lattice":
        params = _lattice_params(args, budget)
        report = analysis.lattice_report(params, mode="exact", budget=budget)
    elif args.protocol == "four-symbol":
        report = analysis.four_symbol_report(mode="exact")
    else:
        report = analysis.continuous_report(args.alpha, mode="exact")
    _emit(report.to_text(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    budget = _resolve_budget(args)
    if args.protocol == "lattice":
        params = _lattice_params(args, budget)
        report = analysis.lattice_report(
            params, mode="monte-carlo", trials=args.trials, seed=args.seed
        )
    elif args.protocol == "four-symbol":
        report = analysis.four_symbol_report(
            mode="monte-carlo", trials=args.trials, seed=args.seed
        )
    else:
        report = analysis.continuous_report(
            args.alpha, mode="monte-carlo", trials=args.trials, seed=args.seed
        )
    _emit(report.to_text(), args.out)
    return EXIT_OK


def cmd_twirl_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ValueError(
            f"--threshold must be finite and positive, got {args.threshold!r}"
        )
    group = _parse_group(args.group)
    lines = [
        "# framebc twirl equivalence report",
        "schema = 1",
        "[config]",
        f"group = {args.group}",
        f"samples = {args.samples}",
        f"seed = {args.seed}",
        "[results]",
    ]
    if isinstance(group, so3.CyclicZ):
        probe = engine.probe_protocol(group)
        base = engine.transcript_distribution(probe)
        compiled = engine.compiled_transcript_distribution(
            probe, group, budget=_resolve_budget(args)
        )
        equal = base == compiled
        # the compiled relative frame must itself be uniform over the group
        frame_law: dict[int, Fraction] = {}
        for u_a, p_a in so3.enumerate_support(group):
            for u_b, p_b in so3.enumerate_support(group):
                angle = so3.rotation_z_angle(u_b.T @ u_a)
                k = round(angle * group.n / so3.TAU) % group.n
                frame_law[k] = frame_law.get(k, Fraction(0)) + p_a * p_b
        frame_uniform = all(
            frame_law.get(k, Fraction(0)) == Fraction(1, group.n)
            for k in range(group.n)
        )
        lines.append("method = exact-enumeration")
        lines.append(f"transcript_distributions_equal = {_fmt(equal)}")
        lines.append(f"relative_frame_uniform = {_fmt(frame_uniform)}")
        lines.append(f"support_size = {len(base)}")
        ok = equal and frame_uniform
    elif isinstance(group, so3.HaarSO3):
        deltas = engine.haar_twirl_moments(args.samples, args.seed)
        lines.append("method = moment-test")
        for key in sorted(deltas):
            lines.append(f"{key} = {_fmt(deltas[key])}")
        lines.append(f"threshold = {_fmt(args.threshold)}")
        ok = all(v < args.threshold for v in deltas.values())
    else:
        # non-group channels cannot be twirled away; surface the engine error
        engine.twirl_compile(engine.probe_protocol(group), group)
        raise AssertionError("unreachable")
    lines.append(f"verdict = {'pass' if ok else 'fail'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_mingap(args) -> int:
    budget = _resolve_budget(args)
    basis = lattice.build_angle_basis(args.d, args.L, budget=budget)
    lines = [
        "# framebc codebook certification report",
        "schema = 1",
        "[config]",
        f"d = {args.d}",
        f"L = {args.L}",
        f"budget = {budget}",
        "[results]",
        f"codebook_points = {lattice.codebook_size(args.d, args.L)}",
        f"min_gap = {_fmt(basis.min_gap)}",
        f"separation = {_fmt(basis.separation)}",
        f"max_safe_eps = {_fmt(basis.max_safe_eps)}",
    ]
    ok = True
    if args.eps is not None:
        ok = basis.certifies(args.eps)
        lines.append(f"eps = {_fmt(args.eps)}")
        lines.append(f"eps_certified = {_fmt(ok)}")
    lines.append(f"verdict = {'pass' if ok else 'fail'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CHECK


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
        header = (
            "d\tL\teps_meas\tsoundness\tconcealing_exact\tconcealing_bound"
            "\tbinding_flip_strict\tbinding_flip_lenient"
        )
        rows.append(header)
        for d in d_values:
            for L in L_values:
                params = lattice.make_params(d, L, budget=budget)
                eps = analysis.concealing_exact(params, budget=budget)
                bound = analysis.concealing_bound_exact(d, L)
                strict = analysis.binding_search(params, "strict").probability
                lenient = analysis.binding_search(params, "lenient").probability
                soundness = analysis.lattice_soundness_exact(params, budget=budget)
                rows.append(
                    "\t".join(
                        [
                            str(d),
                            str(L),
                            _fmt(params.eps_meas),
                            _fmt(soundness),
                            _fmt(eps),
                            _fmt(bound),
                            _fmt(strict),
                            _fmt(lenient),
                        ]
                    )
                )
    elif args.protocol == "continuous":
        alphas = _parse_values(args.alphas, float)
        if not alphas:
            raise ValueError("continuous sweep needs --alphas")
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
            alphas, trials=args.trials or 1, seed=args.seed, with_mc=with_mc
        )
        for row in curve:
            cells = [_fmt(row.alpha), _fmt(row.p0_exact), _fmt(row.p1_exact)]
            if with_mc:
                cells += [
                    _fmt(row.p0_mc.rate),
                    _fmt(row.p1_mc.rate),
                    str(args.trials),
                    str(args.seed),
                ]
            rows.append("\t".join(cells))
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

    def add_common(p: argparse.ArgumentParser, with_lattice: bool = True) -> None:
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration budget override")
        if with_lattice:
            p.add_argument("--d", type=int, default=3, help="lattice dimensions")
            p.add_argument("--L", type=int, default=8, help="values per coordinate")
            p.add_argument("--eps", type=float, default=None,
                           help="measurement tolerance (default: safe/4)")
            p.add_argument("--predicate", choices=lattice.PREDICATES,
                           default="lenient", help="reveal-test reading")
            p.add_argument("--alpha", type=float, default=0.5,
                           help="interpolation parameter (continuous protocol)")

    p_analyze = sub.add_parser("analyze", help="exact security analysis")
    p_analyze.add_argument("--protocol", choices=PROTOCOLS, required=True)
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates")
    p_sim.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=42)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_twirl = sub.add_parser("twirl-check",
                             help="channel-vs-compiled equivalence check")
    p_twirl.add_argument("--group", required=True,
                         help="z<N>, haar, or twopoint:<a,b,...>")
    p_twirl.add_argument("--samples", type=int, default=100_000)
    p_twirl.add_argument("--seed", type=int, default=42)
    p_twirl.add_argument("--threshold", type=float, default=0.02)
    p_twirl.add_argument("--out", default=None)
    p_twirl.set_defaults(func=cmd_twirl_check)

    p_gap = sub.add_parser("mingap", help="codebook separation certificate")
    p_gap.add_argument("--d", type=int, required=True)
    p_gap.add_argument("--L", type=int, required=True)
    p_gap.add_argument("--eps", type=float, default=None,
                       help="certify this measurement tolerance")
    p_gap.add_argument("--budget", type=int, default=None)
    p_gap.add_argument("--out", default=None)
    p_gap.set_defaults(func=cmd_mingap)

    p_sweep = sub.add_parser("sweep", help="grid sweeps as TSV tables")
    p_sweep.add_argument("--protocol", choices=("lattice", "continuous"),
                         required=True)
    p_sweep.add_argument("--d-values", default="1,2,3")
    p_sweep.add_argument("--L-values", default="4,8,16")
    p_sweep.add_argument("--alphas", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p_sweep.add_argument("--trials", type=int, default=0,
                         help="add Monte Carlo columns when > 0")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--budget", type=int, default=None)
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
