"""`polarmuon run` and `polarmuon flops` map every input to a documented
exit code.

INIs are drawn from per-key pools of valid and invalid values: about half
the examples hold only valid values (their runs must finish or abort
cleanly) and the rest one invalid value.  Whatever is drawn,
``cli.main(["run", ini])`` must return 0 (ran), 2 (config error) or 3
(numerical abort) and never raise.  Shapes stay at most 8x8 and K at most 3
so one example costs milliseconds.  ``scale0`` and ``scale1`` are always
written, so no example runs the 20 000-draw noise calibration.

``sweep`` draws an axis and one to three values, each valid or not, over
one small valid template; ``cli.main(["sweep", ...])`` must return 0, 2 or 3
and never raise.

Raw argv lists are drawn token by token, for every subcommand and for none:
options, axis names, negative and comma-joined values (argparse alone reads
``-1,3`` as an option), verify scopes, shape specs and paths.
``cli.main(argv)`` must return 0, 2 or 3 and never raise, and ``verify`` on
drawn scope lists (the fast scopes and invalid names) likewise.

``flops`` shape specs are drawn the same way, valid (some with m, n = 1e400)
or with one field missing, repeated, unknown, non-integer or out of range;
``cli.main(["flops", spec])`` must return 0 or 2 and never raise.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polarmuon import cli
from polarmuon.runner import SWEEP_AXES

# section -> key -> (valid values, invalid values)
POOLS = {
    "problem": {
        "kind": (["quadratic", "factorization"], ["banana"]),
        "m": (["8", "3", "1"], ["0", "-1", "2.5", "x"]),
        "n": (["8", "4", "1"], ["0", "-2"]),
        "rank": (["4", "2", "1"], ["0", "-1"]),
        "decay": (["0.5", "1.0", "0", "-0.7", "1.5"], ["nan", "x"]),
        "scale": (["1.0", "0", "-3", "1e200", "1e308"], ["inf", "nan"]),
        "gen_seed": (["1", "-5", "18446744073709551617"], ["seed", "1.5"]),
    },
    "optimizer": {
        "kind": (["muon", "sgd_nesterov", "adamw"], ["lion"]),
        "momentum": (["nesterov", "polyak"], ["heavy"]),
        "schedule": (["corollary1", "theorem1", "manual"], ["cosine"]),
        "k": (["3", "2", "1"], ["0", "-1", "2.0"]),
        "b": (["1", "2"], ["0", "-1", "x"]),
        "alpha": (["1.5", "2.0"], ["1.0", "3", "nan"]),
        "eta": (["0.1", "0", "-1", "1e300"], ["inf"]),
        "beta": (["0.9", "0", "0.999"], ["1.0", "-0.5"]),
    },
    "polar": {
        "solver": (["polynomial", "exact"], ["newton"]),
        "schedule": (
            [
                "cubic",
                "quintic-theoretical",
                "quintic-empirical",
                "polar-express-nanogpt",
                "polar-express-cifar10",
                "custom",
            ],
            ["bogus"],
        ),
        "q": (["0", "1", "5"], ["-1", "x"]),
        "delta": (
            ["frobenius-norm", "operator-norm", "explicit:2.0", "explicit:1e-300"],
            ["explicit:-1", "explicit:inf", "explicit:abc", "spectral"],
        ),
        "coefficients": (
            [
                "1.5, -0.5, 0.0",
                "3.4445, -4.7750, 2.0315; 1.5, -0.5, 0",
                "1e300, 1e300, 1e300",
            ],
            ["1, 2", "nan, 0, 0", ""],
        ),
    },
    "sketch": {
        "s": (["1", "2", "6"], ["0", "20"]),
        "p": (["2", "3"], ["1"]),
        "h": (["0", "1", "2"], ["-1"]),
        "kind": (["gaussian", "kaczmarz"], ["sparse"]),
    },
    "noise": {
        "alpha": (["1.5", "2.0"], ["1.0", "3"]),
        "sigma0": (["0", "0.5"], ["-1"]),
        "sigma1": (["0", "0.3"], ["-1"]),
        "tail_exponent": (["2.5"], ["1.0"]),
        "scale0": (["0.1", "0", "-0.1"], ["nan"]),
        "scale1": (["0.2", "0", "1e300"], ["x"]),
        "calib_shape": (["4, 4"], ["x"]),
        "calib_rel_tol": (["0.01"], ["nan"]),
    },
    "run": {
        "verify": (["true", "false"], ["maybe"]),
    },
}
KEYS = [(name, key) for name, pool in POOLS.items() for key in pool]
# Written in every INI (the sketch's s when it has a section): the defaults
# m = n = 16 and K = 100 are too large here, and scale0/scale1 skip
# calibration.  Each pool lists its most common value first.
ALWAYS = {
    ("problem", "m"),
    ("problem", "n"),
    ("optimizer", "k"),
    ("sketch", "s"),
    ("noise", "scale0"),
    ("noise", "scale1"),
    ("run", "verify"),
}


@st.composite
def ini_sections(draw):
    bad = draw(st.sampled_from(KEYS)) if draw(st.booleans()) else None
    with_sketch = (bad is not None and bad[0] == "sketch") or draw(st.booleans())
    sections = {}
    for name, pool in POOLS.items():
        if name == "sketch" and not with_sketch:
            continue
        sec = sections[name] = {}
        for key, (valid, invalid) in pool.items():
            if (name, key) == bad:
                sec[key] = draw(st.sampled_from(invalid))
            elif (name, key) in ALWAYS or draw(st.booleans()):
                sec[key] = draw(st.sampled_from(valid))
    return sections


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # drawn values overflow on purpose
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sections=ini_sections())
def test_run_exit_code_is_documented(tmp_path, sections):
    lines = []
    for name, sec in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in sec.items())
    lines += ["seeds = 1", f"output_dir = {tmp_path / 'out'}"]  # [run] is last
    path = tmp_path / "drawn.ini"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["run", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_ABORT)


# axis -> (valid values, invalid values) for the template below
SWEEP_POOLS = {
    "s": (["2", "1", "4"], ["0", "7", "1.5", "x"]),
    "q": (["3", "0", "1"], ["-1", "2.5"]),
    "K": (["2", "3"], ["1", "0", "-1", "2.5", "1e1", str(10**400)]),
    "alpha": (["2.0", "1.5", "2"], ["1.0", "3", "nan", "1.0e400", str(10**400)]),
    "B": (["1", "2"], ["0", "-1"]),
}
SWEEP_TEMPLATE = (
    "[problem]\nm = 8\nn = 8\nrank = 4\n"
    "[optimizer]\nschedule = corollary1\nk = 2\n"
    "[sketch]\ns = 2\np = 2\n"
)


@st.composite
def sweep_argv(draw):
    axis = draw(st.sampled_from(SWEEP_AXES))
    valid, invalid = SWEEP_POOLS[axis]
    values = draw(st.lists(st.sampled_from(valid + invalid), min_size=1, max_size=3))
    # "--values=" keeps argparse from reading "-1,2" as an option
    return ["--axis", axis, "--values=" + ",".join(values)]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(args=sweep_argv())
def test_sweep_exit_code_is_documented(tmp_path, args):
    path = tmp_path / "template.ini"
    path.write_text(SWEEP_TEMPLATE + f"[run]\nseeds = 1\noutput_dir = {tmp_path / 'out'}\n")
    code = cli.main(["sweep", str(path), *args])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_ABORT)


BAD_SHAPE_FIELDS = ["m=0", "n=-2", "ell=99", "q=-1", "h=-1", "m=2.5", "q=x", "ell=",
                    "foo=3", "m=4", "ell", "=1"]


@st.composite
def flops_specs(draw):
    """About half the specs are valid (m, n up to 1e400); the rest add, drop
    or replace one field with a bad one."""
    m = draw(st.one_of(st.integers(1, 70), st.just(10**400)))
    n = draw(st.one_of(st.integers(1, 70), st.just(10**400)))
    fields = [f"m={m}", f"n={n}", f"ell={draw(st.integers(1, min(m, n, 70)))}",
              f"q={draw(st.integers(0, 9))}"]
    if draw(st.booleans()):
        fields.append(f"h={draw(st.integers(0, 3))}")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(fields) - 1))
        bad = draw(st.sampled_from(BAD_SHAPE_FIELDS + ["drop"]))
        if bad == "drop":
            del fields[i]
        elif draw(st.booleans()):
            fields[i] = bad
        else:
            fields.insert(i, bad)
    return ",".join(fields)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=flops_specs())
def test_flops_exit_code_is_documented(spec):
    assert cli.main(["flops", spec]) in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR)


@pytest.mark.parametrize(
    "args, bad",
    [
        (["--axis", "q", "--values", "-1,3"], "'q' = -1"),
        (["--axis", "q", "--values", "-1", "3"], "'q' = -1"),
        (["--axis", "K", "--values", "-2.5,3"], "'K' = -2.5"),
        (["--values", "3,-1", "--axis", "q"], "'q' = -1"),
    ],
)
def test_sweep_negative_values_reach_config_check(tmp_path, capsys, args, bad):
    path = tmp_path / "template.ini"
    path.write_text(SWEEP_TEMPLATE + f"[run]\nseeds = 1\noutput_dir = {tmp_path / 'out'}\n")
    assert cli.main(["sweep", str(path), *args]) == cli.EXIT_CONFIG_ERROR
    assert f"config error: sweep axis {bad}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FAST_SCOPES = ["polynomials", "flops", "lemma1"]  # milliseconds each
ARGV_TOKENS = [
    "run", "sweep", "verify", "flops", "--axis", "q", "K", "alpha", "--values",
    "-1,3", "-1", "3", "2", "-2.5", "1e1", "--values=-1", "-x", "--bogus", "-h",
    "--output-dir", "<out>", "<ini>", "missing.ini", *FAST_SCOPES, "prop9",
    "m=8,n=8,ell=2,q=1", "m=-8", "",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(tokens=st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_raw_argv_exit_code_is_documented(tmp_path, tokens):
    path = tmp_path / "template.ini"
    path.write_text(SWEEP_TEMPLATE + f"[run]\nseeds = 1\noutput_dir = {tmp_path / 'out'}\n")
    paths = {"<ini>": str(path), "<out>": str(tmp_path / "verify")}
    argv = [paths.get(t, t) for t in tokens]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_ABORT)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scopes=st.lists(st.sampled_from(FAST_SCOPES + ["prop9", "-1", ""]), max_size=3),
    out=st.sampled_from([None, "dir", "missing"]),
)
def test_verify_exit_code_is_documented(tmp_path, scopes, out):
    argv = ["verify", *scopes]
    if out is not None:
        argv += ["--output-dir"] + ([str(tmp_path / "v")] if out == "dir" else [])
    code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR, cli.EXIT_NUMERICAL_ABORT)
    valid = bool(scopes) and set(scopes) <= set(FAST_SCOPES) and out != "missing"
    assert (code == cli.EXIT_OK) == valid
