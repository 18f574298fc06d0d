import math

import pytest

from framebc import cli, engine


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -----------------------------------------------------------------

def test_analyze_lattice_lenient_binding(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--protocol", "lattice", "--d", "3", "--L", "8",
        "--predicate", "lenient",
    )
    assert code == 0
    assert "binding_flip_lenient.exact = 1/3" in out
    assert "binding_flip_strict.exact = 1/6" in out
    assert "soundness.exact = 1" in out
    assert "concealing_exact.exact = 1/4" in out


def test_analyze_four_symbol(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "four-symbol")
    assert code == 0
    assert "concealing_exact.exact = 0" in out
    assert "binding_flip.exact = 1/2" in out


def test_analyze_continuous_alpha_half(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--protocol", "continuous", "--alpha", "0.5"
    )
    assert code == 0
    assert "accept_reveal0 = 0.75" in out
    assert "accept_reveal1 = 0.75" in out


def test_analyze_echoes_resolved_config(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--protocol", "lattice",
                           "--d", "2", "--L", "4")
    assert code == 0
    assert "d = 2" in out and "L = 4" in out
    assert "eps_meas = " in out and "predicate = lenient" in out


# --- simulate ----------------------------------------------------------------

def test_simulate_lattice_soundness(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", "lattice", "--d", "2", "--L", "4",
        "--trials", "2000", "--seed", "42",
    )
    assert code == 0
    assert "soundness_mc = 1.0" in out
    assert "2000/2000 seed=42" in out


def test_simulate_lattice_odd_l(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", "lattice", "--d", "3", "--L", "5",
    )
    assert code == 0
    assert "soundness_mc.samples = 10000/10000 seed=42" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("protocol", ["lattice", "four-symbol", "continuous"])
def test_simulate_rejects_no_trials(capsys, protocol, trials):
    code, out, err = run_cli(
        capsys, "simulate", "--protocol", protocol, "--trials", trials,
    )
    assert code == 1 and out == ""
    assert "need at least one trial" in err


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        code = cli.main([
            "simulate", "--protocol", "continuous", "--alpha", "0.3",
            "--trials", "3000", "--seed", "7", "--out", str(path),
        ])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_continuous_tracks_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--protocol", "continuous", "--alpha", "0.5",
        "--trials", "10000", "--seed", "42",
    )
    assert code == 0
    rate = float(
        next(l for l in out.splitlines() if l.startswith("accept_reveal0_mc = "))
        .split(" = ")[1]
    )
    sigma = math.sqrt(0.75 * 0.25 / 10_000)
    assert abs(rate - 0.75) <= 3 * sigma


# --- twirl-check ----------------------------------------------------------------

def test_twirl_check_z4(capsys):
    code, out, _ = run_cli(capsys, "twirl-check", "--group", "z4")
    assert code == 0
    assert "transcript_distributions_equal = true" in out
    assert "verdict = pass" in out


def test_twirl_check_haar(capsys):
    code, out, _ = run_cli(
        capsys, "twirl-check", "--group", "haar", "--samples", "100000",
        "--seed", "42",
    )
    assert code == 0
    assert "verdict = pass" in out


def test_twirl_check_rejects_mixture(capsys):
    code, out, err = run_cli(capsys, "twirl-check", "--group", "twopoint:0.2,0.5")
    assert code == 1 and out == ""
    assert err == (
        "framebc: invalid configuration: not a uniform group distribution: twirling "
        "requires the uniform distribution over a rotation group, got "
        "TwoPointAngleMixture(angles=(0.2, 0.5))\n"
    )


def test_twirl_check_rejects_non_finite_angle(capsys):
    code, out, err = run_cli(capsys, "twirl-check", "--group", "twopoint:nan,1")
    assert code == 1 and out == ""
    assert "angles must be finite and positive" in err


def test_twirl_check_bad_group_spec(capsys):
    code, _, err = run_cli(capsys, "twirl-check", "--group", "su2")
    assert code == 1
    assert "unrecognized group" in err
    for flag, value in (("--threshold", "nan"), ("--threshold", "inf"),
                        ("--threshold", "0"), ("--samples", "0")):
        code, out, err = run_cli(capsys, "twirl-check", "--group", "haar", flag, value)
        assert code == 1 and out == ""
        assert "invalid configuration" in err


# --- mingap ----------------------------------------------------------------------

def test_mingap_d1_l2_closed_form(capsys):
    code, out, _ = run_cli(capsys, "mingap", "--d", "1", "--L", "2")
    assert code == 0
    gap = float(next(l for l in out.splitlines() if l.startswith("min_gap = "))
                .split(" = ")[1])
    assert abs(gap - math.pi / 6) <= 1e-12


def test_mingap_accepts_safe_eps(capsys):
    code, out, _ = run_cli(capsys, "mingap", "--d", "3", "--L", "8",
                           "--eps", "1e-5")
    assert code == 0
    assert "eps_certified = true" in out


def test_mingap_rejects_unsafe_eps(capsys):
    code, out, _ = run_cli(capsys, "mingap", "--d", "3", "--L", "8",
                           "--eps", "0.001")
    assert code == 3
    assert "verdict = fail" in out


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "-1"])
def test_mingap_rejects_invalid_eps(capsys, monkeypatch, eps):
    # a tolerance that no basis could certify is bad input (1), not a failed certificate (3)
    def unbuilt(*args, **kwargs):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(cli.lattice, "build_angle_basis", unbuilt)
    code, out, err = run_cli(capsys, "mingap", "--d", "3", "--L", "8", f"--eps={eps}")
    assert (code, out) == (1, "")
    assert f"--eps must be finite and nonnegative, got {float(eps)!r}" in err


def test_mingap_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "mingap", "--d", "8", "--L", "30",
                           "--budget", "1000000")
    assert code == 2
    assert "budget exceeded" in err


def test_mingap_codebook_past_default_budget_exits_two(capsys, monkeypatch):
    # (8, 8) certifies without a table, but its decode table would hold 10^8 angles
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    assert run_cli(capsys, "mingap", "--d", "8", "--L", "8") == (
        2, "", "framebc: budget exceeded: codebook too large to certify: (L+2)^d = 100000000 "
        "exceeds the enumeration budget 10000000\n",
    )


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "10")
    code, _, err = run_cli(capsys, "mingap", "--d", "2", "--L", "4")
    assert code == 2
    monkeypatch.setenv(cli.BUDGET_ENV, "100000")
    code, out, _ = run_cli(capsys, "mingap", "--d", "2", "--L", "4")
    assert code == 0
    # twirl-check over z8 enumerates 8 * 8 sessions
    monkeypatch.setenv(cli.BUDGET_ENV, "63")
    code, out, err = run_cli(capsys, "twirl-check", "--group", "z8")
    assert code == 2 and out == ""
    assert "budget exceeded" in err
    monkeypatch.setenv(cli.BUDGET_ENV, "64")
    code, out, _ = run_cli(capsys, "twirl-check", "--group", "z8")
    assert code == 0
    # --budget caps the same enumeration, as on every other subcommand
    monkeypatch.delenv(cli.BUDGET_ENV)
    code, out, err = run_cli(capsys, "twirl-check", "--group", "z8", "--budget", "63")
    assert code == 2 and out == ""
    assert "budget exceeded" in err
    code, out, _ = run_cli(capsys, "twirl-check", "--group", "z8", "--budget", "64")
    assert code == 0
    monkeypatch.setenv(cli.BUDGET_ENV, "0")
    for argv in (("mingap", "--d", "2", "--L", "4"), ("twirl-check", "--group", "z8")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "the enumeration budget must be at least 1" in err


def test_analyze_soundness_over_budget_exits_two(capsys, monkeypatch):
    # the 36-point codebook certifies; below the soundness floor soundness
    # enumerates 4^2 * 4 = 64 pairs, and from the floor up it is proved
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    argv = ("analyze", "--protocol", "lattice", "--d", "2", "--L", "4", "--budget", "40")
    code, out, err = run_cli(capsys, *argv, "--eps", "0")
    assert code == 2 and out == ""
    assert "soundness enumeration size 64 exceeds budget 40" in err
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "soundness.exact = 1\n" in out and "method = closed-form\n" in out


@pytest.mark.parametrize("d, L, size", [("5", "16", 10485760), ("7", "8", 29360128)])
def test_analyze_proved_soundness_past_enumeration_budget(capsys, monkeypatch, d, L, size):
    # past the default budget only the enumeration below the floor is refused,
    # and the proved figure builds no decode table
    def unbuilt(*args):
        raise AssertionError("a decode table was built")

    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    monkeypatch.setattr(cli.lattice, "codebook_angles", unbuilt)
    argv = ("analyze", "--protocol", "lattice", "--d", d, "--L", L)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "soundness.exact = 1\n" in out and "method = closed-form\n" in out
    code, out, err = run_cli(capsys, *argv, "--eps", "0")
    assert (code, out) == (2, "")
    assert f"soundness enumeration size {size} exceeds budget 10000000" in err


# --- sweep ------------------------------------------------------------------------

def test_sweep_lattice_table(tmp_path):
    out_path = tmp_path / "sweep.tsv"
    code = cli.main([
        "sweep", "--protocol", "lattice", "--d-values", "1,2",
        "--L-values", "4,8", "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# framebc sweep protocol=lattice")
    assert lines[1].startswith("d\tL\t")
    assert len(lines) == 6
    row = dict(zip(lines[1].split("\t"), lines[2].split("\t")))
    assert row["soundness"] == "1.0"
    assert row["concealing_exact"] == "0.5"


def test_sweep_lattice_rows_match_analyze_reports(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "lattice",
                           "--d-values", "1,2,3", "--L-values", "3,4,5")
    assert code == 0
    header, *lines = out.splitlines()[1:]
    columns = header.split("\t")
    assert len(lines) == 9
    for line in lines:
        row = dict(zip(columns, line.split("\t")))
        code, report, _ = run_cli(capsys, "analyze", "--protocol", "lattice",
                                  "--d", row["d"], "--L", row["L"])
        assert code == 0
        values = dict(entry.split(" = ", 1) for entry in report.splitlines() if " = " in entry)
        assert {key: values[key] for key in columns} == row


def test_sweep_continuous_with_mc(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--protocol", "continuous", "--alphas", "0,0.5,1",
        "--trials", "2000", "--seed", "11",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# framebc sweep protocol=continuous")
    assert lines[1].split("\t")[:3] == ["alpha", "accept_reveal0", "accept_reveal1"]
    assert len(lines) == 5
    half = lines[3].split("\t")
    assert half[1] == "0.75" and half[2] == "0.75"
    # a negative trial count is refused, not printed as a table without Monte Carlo
    code, out, err = run_cli(capsys, "sweep", "--protocol", "continuous",
                             "--alphas", "0,1", "--trials", "-3")
    assert code == 1 and out == ""
    assert "--trials must be at least 0" in err


def test_sweep_deterministic(capsys):
    args = ["sweep", "--protocol", "continuous", "--alphas", "0,1",
            "--trials", "500", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# --- config validation ---------------------------------------------------------------

def test_unknown_protocol_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["analyze", "--protocol", "telepathy"])
    assert excinfo.value.code == 1


def test_bad_lattice_parameters_exit_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "--protocol", "lattice",
                           "--d", "0", "--L", "4")
    assert code == 1
    assert "invalid configuration" in err
    # a budget below 1 is bad configuration, not an exceeded budget
    for argv in (
        ["analyze", "--protocol", "lattice", "--budget", "0"],
        ["analyze", "--protocol", "lattice", "--budget", "-1"],
        ["mingap", "--d", "2", "--L", "4", "--budget", "0"],
        ["sweep", "--protocol", "lattice", "--budget", "-1"],
        ["twirl-check", "--group", "z8", "--budget", "0"],
        ["twirl-check", "--group", "haar", "--samples", "10", "--budget", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "the enumeration budget must be at least 1" in err


def test_coarse_eps_exits_one(capsys):
    for eps in ("0.5", "nan"):
        code, _, err = run_cli(capsys, "analyze", "--protocol", "lattice",
                               "--d", "2", "--L", "4", "--eps", eps)
        assert code == 1
        assert "separation" in err


def test_non_finite_alpha_exits_one(capsys):
    for argv in (
        ["analyze", "--protocol", "continuous", "--alpha", "nan"],
        ["analyze", "--protocol", "continuous", "--alpha", "inf"],
        ["simulate", "--protocol", "continuous", "--alpha", "nan"],
        ["sweep", "--protocol", "continuous", "--alphas", "0,nan"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert "alpha must lie in [0, 1]" in err


# --- golden reports (one formatter) ------------------------------------------------

GOLDEN_TWIRL_Z8 = """\
# framebc twirl equivalence report
schema = 1
[config]
group = z8
samples = 100000
seed = 42
[results]
method = exact-enumeration
transcript_distributions_equal = true
relative_frame_uniform = true
support_size = 8
verdict = pass
"""

GOLDEN_MINGAP = """\
# framebc codebook certification report
schema = 1
[config]
d = 3
L = 8
budget = 10000000
[results]
codebook_points = 1000
min_gap = 0.0003079258828512024
separation = 0.00030792588163465977
max_safe_eps = 0.00015396294081732989
verdict = pass
"""

GOLDEN_MINGAP_EPS_PASS = """\
# framebc codebook certification report
schema = 1
[config]
d = 3
L = 8
budget = 10000000
[results]
codebook_points = 1000
min_gap = 0.0003079258828512024
separation = 0.00030792588163465977
max_safe_eps = 0.00015396294081732989
eps = 0.0001
eps_certified = true
verdict = pass
"""

GOLDEN_MINGAP_EPS_FAIL = """\
# framebc codebook certification report
schema = 1
[config]
d = 3
L = 8
budget = 10000000
[results]
codebook_points = 1000
min_gap = 0.0003079258828512024
separation = 0.00030792588163465977
max_safe_eps = 0.00015396294081732989
eps = 0.001
eps_certified = false
verdict = fail
"""


GOLDEN_ANALYZE_LATTICE = """\
# framebc security report
schema = 1
[config]
protocol = lattice
d = 3
L = 8
eps_meas = 3.849073520433247e-05
predicate = lenient
min_gap = 0.0003079258828512024
separation = 0.00030792588163465977
mode = exact
trials = 0
seed = 0
[results]
soundness = 1.0
soundness.exact = 1
concealing_exact = 0.25
concealing_exact.exact = 1/4
concealing_tv = 0.125
concealing_tv.exact = 1/8
concealing_bound = 0.657
concealing_bound.exact = 657/1000
binding_flip_strict = 0.16666666666666666
binding_flip_strict.exact = 1/6
binding_flip_lenient = 0.3333333333333333
binding_flip_lenient.exact = 1/3
binding_sum_max = 1.3333333333333333
binding_sum_max.exact = 4/3
method = closed-form
[notes]
reveal-test readings differ: flip cheat is 1/6 under strict, 1/3 under lenient
"""

GOLDEN_ANALYZE_FOUR_SYMBOL = """\
# framebc security report
schema = 1
[config]
protocol = four-symbol
mode = exact
trials = 0
seed = 0
[results]
soundness = 1.0
soundness.exact = 1
concealing_exact = 0.0
concealing_exact.exact = 0
binding_flip = 0.5
binding_flip.exact = 1/2
binding_sum_max = 1.5
binding_sum_max.exact = 3/2
method = exact-enumeration
"""

GOLDEN_ANALYZE_CONTINUOUS = """\
# framebc security report
schema = 1
[config]
protocol = continuous
alpha = 0.5
mode = exact
trials = 0
seed = 0
[results]
soundness = 1.0
concealing_exact = 0.0
concealing_exact.exact = 0
accept_reveal0 = 0.75
accept_reveal1 = 0.75
accept_sum = 1.5
binding_passive_flip = 0.5
binding_passive_flip.exact = 1/2
method = closed-form
[notes]
concealing is exact: the received-direction law is uniform for both bits
"""

GOLDEN_SIMULATE_LATTICE = """\
# framebc security report
schema = 1
[config]
protocol = lattice
d = 3
L = 8
eps_meas = 3.849073520433247e-05
predicate = lenient
min_gap = 0.0003079258828512024
separation = 0.00030792588163465977
mode = monte-carlo
trials = 2000
seed = 7
[results]
soundness_mc = 1.0
soundness_mc.wilson99 = [0.9966935207733805, 1.0]
soundness_mc.samples = 2000/2000 seed=7
method_mc = monte-carlo trials=2000 seed=7
"""

GOLDEN_SIMULATE_FOUR_SYMBOL = """\
# framebc security report
schema = 1
[config]
protocol = four-symbol
mode = monte-carlo
trials = 2000
seed = 7
[results]
soundness_mc = 1.0
soundness_mc.wilson99 = [0.9966935207733805, 1.0]
soundness_mc.samples = 2000/2000 seed=7
method_mc = monte-carlo trials=2000 seed=7
"""

GOLDEN_SIMULATE_CONTINUOUS = """\
# framebc security report
schema = 1
[config]
protocol = continuous
alpha = 0.5
mode = monte-carlo
trials = 2000
seed = 7
[results]
soundness = 1.0
concealing_exact = 0.0
concealing_exact.exact = 0
accept_reveal0 = 0.75
accept_reveal1 = 0.75
accept_sum = 1.5
binding_passive_flip = 0.5
binding_passive_flip.exact = 1/2
method = closed-form
accept_reveal0_mc = 0.7455
accept_reveal0_mc.wilson99 = [0.7196284030069046, 0.7697481156928253]
accept_reveal0_mc.samples = 1491/2000 seed=7
accept_reveal1_mc = 0.774
accept_reveal1_mc.wilson99 = [0.7490273804826261, 0.7971606689011864]
accept_reveal1_mc.samples = 1548/2000 seed=8
method_mc = monte-carlo trials=2000 seed=7
[notes]
concealing is exact: the received-direction law is uniform for both bits
"""

GOLDEN_SWEEP_LATTICE = """\
# framebc sweep protocol=lattice d-values=1,2 L-values=4,8 budget=10000000
d\tL\teps_meas\tsoundness\tconcealing_exact\tconcealing_bound\tbinding_flip_strict\tbinding_flip_lenient
1\t4\t0.03910861626005772\t1.0\t0.5\t0.5\t0.5\t1.0
1\t8\t0.02178893568691454\t1.0\t0.25\t0.3\t0.5\t1.0
2\t4\t0.0017831405026368474\t1.0\t0.5\t0.75\t0.25\t0.5
2\t8\t0.0009906394197592865\t1.0\t0.25\t0.51\t0.25\t0.5
"""

GOLDEN_SWEEP_CONTINUOUS = """\
# framebc sweep protocol=continuous alphas=0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1 trials=100 seed=42
alpha\taccept_reveal0\taccept_reveal1\taccept_reveal0_mc\taccept_reveal1_mc\ttrials\tseed
0.0\t1.0\t0.5\t1.0\t0.52\t100\t42
0.1\t0.95\t0.55\t0.93\t0.55\t100\t42
0.2\t0.9\t0.6\t0.89\t0.68\t100\t42
0.3\t0.85\t0.65\t0.84\t0.66\t100\t42
0.4\t0.8\t0.7\t0.81\t0.74\t100\t42
0.5\t0.75\t0.75\t0.79\t0.76\t100\t42
0.6\t0.7\t0.8\t0.7\t0.83\t100\t42
0.7\t0.65\t0.85\t0.64\t0.9\t100\t42
0.8\t0.6\t0.9\t0.61\t0.85\t100\t42
0.9\t0.55\t0.95\t0.59\t0.93\t100\t42
1.0\t0.5\t1.0\t0.47\t1.0\t100\t42
"""

GOLDEN_ANALYZE_LATTICE_D5_L8 = """\
# framebc security report
schema = 1
[config]
protocol = lattice
d = 5
L = 8
eps_meas = 3.8402311453196295e-08
predicate = lenient
min_gap = 3.072184916255716e-07
separation = 3.0721849162557036e-07
mode = exact
trials = 0
seed = 0
[results]
soundness = 1.0
soundness.exact = 1
concealing_exact = 0.25
concealing_exact.exact = 1/4
concealing_tv = 0.125
concealing_tv.exact = 1/8
concealing_bound = 0.83193
concealing_bound.exact = 83193/100000
binding_flip_strict = 0.1
binding_flip_strict.exact = 1/10
binding_flip_lenient = 0.2
binding_flip_lenient.exact = 1/5
binding_sum_max = 1.2
binding_sum_max.exact = 6/5
method = closed-form
[notes]
reveal-test readings differ: flip cheat is 1/10 under strict, 1/5 under lenient
"""

GOLDEN_ANALYZE_LATTICE_D4_L16_STRICT = """\
# framebc security report
schema = 1
[config]
protocol = lattice
d = 4
L = 16
eps_meas = 1.9219080881229514e-07
predicate = strict
min_gap = 1.5375264704985125e-06
separation = 1.5375264704983611e-06
mode = exact
trials = 0
seed = 0
[results]
soundness = 1.0
soundness.exact = 1
concealing_exact = 0.125
concealing_exact.exact = 1/8
concealing_tv = 0.0625
concealing_tv.exact = 1/16
concealing_bound = 0.5177469135802469
concealing_bound.exact = 671/1296
binding_flip_strict = 0.125
binding_flip_strict.exact = 1/8
binding_flip_lenient = 0.25
binding_flip_lenient.exact = 1/4
binding_sum_max = 1.125
binding_sum_max.exact = 9/8
method = closed-form
[notes]
reveal-test readings differ: flip cheat is 1/8 under strict, 1/4 under lenient
"""

GOLDEN_SWEEP_LATTICE_D4_L9 = """\
# framebc sweep protocol=lattice d-values=1,2,3,4 L-values=2,3,5,9 budget=10000000
d\tL\teps_meas\tsoundness\tconcealing_exact\tconcealing_bound\tbinding_flip_strict\tbinding_flip_lenient
1\t2\t0.06470476127563018\t1.0\t1.0\t0.75\t0.5\t1.0
1\t3\t0.04877258050403207\t1.0\t1.0\t0.6\t0.5\t1.0
1\t5\t0.03263154805501289\t1.0\t0.6666666666666666\t0.42857142857142855\t0.5\t1.0
1\t9\t0.019614773931961236\t1.0\t0.4\t0.2727272727272727\t0.5\t1.0
2\t2\t0.006611006467976503\t1.0\t1.0\t0.9375\t0.25\t0.5
2\t3\t0.004958507745231975\t1.0\t0.75\t0.84\t0.25\t0.5
2\t5\t0.001485954268711669\t1.0\t0.44871794871794873\t0.673469387755102\t0.25\t0.5
2\t9\t0.0008915759211004215\t1.0\t0.24146341463414633\t0.47107438016528924\t0.25\t0.5
3\t2\t0.0010742463913563183\t1.0\t1.0\t0.984375\t0.16666666666666666\t0.3333333333333333
3\t3\t0.00039503990323939584\t1.0\t0.6923076923076923\t0.936\t0.16666666666666666\t0.3333333333333333
3\t5\t5.7736102521370216e-05\t1.0\t0.40885816692268306\t0.8134110787172012\t0.16666666666666666\t0.3333333333333333
3\t9\t6.242855054736245e-06\t1.0\t0.22419840433539065\t0.6153268219383922\t0.16666666666666666\t0.3333333333333333
4\t2\t8.28601311430357e-06\t1.0\t1.0\t0.99609375\t0.125\t0.25
4\t3\t6.2145098362245985e-06\t1.0\t0.675\t0.9744\t0.125\t0.25
4\t5\t4.143006557720686e-06\t1.0\t0.4015831080527566\t0.893377759266972\t0.125\t0.25
4\t9\t7.861606152871506e-07\t1.0\t0.22242224262382826\t0.7202376886824671\t0.125\t0.25
"""

GOLDEN_TWIRL_HAAR = """\
# framebc twirl equivalence report
schema = 1
[config]
group = haar
samples = 100000
seed = 42
[results]
method = moment-test
compiled_mean_max = 0.0036004333373069243
compiled_second_max = 0.0016357631800268946
cross_mean_max = 0.003151684481406481
cross_second_max = 0.001616671212968316
direct_mean_max = 0.0012020409386054557
direct_second_max = 0.001166231668178419
threshold = 0.02
verdict = pass
"""

# 12345 samples: one full Haar chunk and a partial one
GOLDEN_TWIRL_HAAR_12345 = """\
# framebc twirl equivalence report
schema = 1
[config]
group = haar
samples = 12345
seed = 7
[results]
method = moment-test
compiled_mean_max = 0.01122595854279045
compiled_second_max = 0.005994372120527125
cross_mean_max = 0.013050658780549713
cross_second_max = 0.009382557344271281
direct_mean_max = 0.010539210689499251
direct_second_max = 0.0033881852237441557
threshold = 0.02
verdict = pass
"""

# the largest codebook certified within the default budget
GOLDEN_MINGAP_D7_L8 = """\
# framebc codebook certification report
schema = 1
[config]
d = 7
L = 8
budget = 10000000
[results]
codebook_points = 10000000
min_gap = 1.6037656098977227e-10
separation = 1.6037656098977227e-10
max_safe_eps = 8.018828049488613e-11
verdict = pass
"""

SIM_2000 = ("--trials", "2000", "--seed", "7")


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (("twirl-check", "--group", "z8"), 0, GOLDEN_TWIRL_Z8),
        (("twirl-check", "--group", "haar", "--samples", "100000", "--seed", "42"), 0,
         GOLDEN_TWIRL_HAAR),
        (("twirl-check", "--group", "haar", "--samples", "12345", "--seed", "7"), 0,
         GOLDEN_TWIRL_HAAR_12345),
        (("mingap", "--d", "3", "--L", "8"), 0, GOLDEN_MINGAP),
        (("mingap", "--d", "3", "--L", "8", "--eps", "0.0001"), 0, GOLDEN_MINGAP_EPS_PASS),
        (("mingap", "--d", "3", "--L", "8", "--eps", "0.001"), 3, GOLDEN_MINGAP_EPS_FAIL),
        (("mingap", "--d", "7", "--L", "8"), 0, GOLDEN_MINGAP_D7_L8),
        (("analyze", "--protocol", "lattice", "--d", "3", "--L", "8"), 0, GOLDEN_ANALYZE_LATTICE),
        (("analyze", "--protocol", "four-symbol"), 0, GOLDEN_ANALYZE_FOUR_SYMBOL),
        (("analyze", "--protocol", "continuous"), 0, GOLDEN_ANALYZE_CONTINUOUS),
        (("simulate", "--protocol", "lattice", *SIM_2000), 0, GOLDEN_SIMULATE_LATTICE),
        (("simulate", "--protocol", "four-symbol", *SIM_2000), 0, GOLDEN_SIMULATE_FOUR_SYMBOL),
        (("simulate", "--protocol", "continuous", *SIM_2000), 0, GOLDEN_SIMULATE_CONTINUOUS),
        (("sweep", "--protocol", "lattice", "--d-values", "1,2", "--L-values", "4,8"), 0,
         GOLDEN_SWEEP_LATTICE),
        (("sweep", "--protocol", "continuous", "--trials", "100"), 0, GOLDEN_SWEEP_CONTINUOUS),
        (("analyze", "--protocol", "lattice", "--d", "5", "--L", "8"), 0,
         GOLDEN_ANALYZE_LATTICE_D5_L8),
        (("analyze", "--protocol", "lattice", "--d", "4", "--L", "16", "--predicate", "strict"), 0,
         GOLDEN_ANALYZE_LATTICE_D4_L16_STRICT),
        (("sweep", "--protocol", "lattice", "--d-values", "1,2,3,4", "--L-values", "2,3,5,9"), 0,
         GOLDEN_SWEEP_LATTICE_D4_L9),
    ],
    ids=["twirl-z8", "twirl-haar", "twirl-haar-12345", "mingap", "mingap-eps-pass", "mingap-eps-fail",
         "mingap-d7-L8",
         "analyze-lattice", "analyze-four-symbol", "analyze-continuous",
         "simulate-lattice", "simulate-four-symbol", "simulate-continuous",
         "sweep-lattice", "sweep-continuous",
         "analyze-lattice-d5-L8", "analyze-lattice-d4-L16-strict", "sweep-lattice-d4-L9"],
)
def test_report_golden_stdout(capsys, monkeypatch, argv, code, golden):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    assert run_cli(capsys, *argv) == (code, golden, "")


def test_over_budget_twirl_check_runs_no_session(capsys, monkeypatch):
    calls = []
    original = engine.run_session

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "run_session", counted)
    monkeypatch.setenv(cli.BUDGET_ENV, "1")
    code, out, err = run_cli(capsys, "twirl-check", "--group", "z100000")
    assert code == 2 and out == ""
    assert "budget exceeded" in err and "10000000000 exceeds budget 1" in err
    assert calls == []


def test_haar_twirl_check_samples_capped_by_budget(capsys, monkeypatch):
    # the moment test holds a (samples, 3) buffer: a count over the budget
    # exits 2 before any draw, as an over-budget z<N> runs no session
    draws, original = [], engine.haar_rotations
    monkeypatch.setattr(engine, "haar_rotations", lambda n, g: draws.append(n) or original(n, g))
    haar = ("twirl-check", "--group", "haar", "--budget", "10")
    assert run_cli(capsys, *haar, "--samples", "11") == (
        2, "", "framebc: budget exceeded: Haar sample count 11 exceeds budget 10\n",
    )
    assert draws == []
    code, out, err = run_cli(capsys, *haar, "--samples", "10", "--threshold", "2")
    assert (code, err) == (0, "")
    assert "samples = 10\n" in out and "verdict = pass" in out
    assert draws == [10, 10, 10]
