import gc
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpmsa.cli import main
from mpmsa.config import load_config, parse_config_text
from mpmsa.configspace import MultiBall
from mpmsa.disorder import sample_potential, uniform_distribution
from mpmsa.errors import ConfigurationError
from mpmsa.graphs import build_graph
from mpmsa.spectral import BallOperators, BallSpectra

from helpers import ZERO_INTERACTION

ROOT = Path(__file__).resolve().parent.parent

BASE_WEGNER = """\
[experiment]
kind = wegner
trials = 60
seed = 7
out = {out}

[model]
graph = path:9
particles = 1
distribution = uniform:0:1
interaction = u:C=0:zeta=1:rcut=inf
g = 1.0

[params]
mode = subexp
beta = 0.3

[run]
center = 4
radius = 4
energy = 2.0
"""


def _child_env(**extra):
    """The environment of a child process that imports mpmsa from src/."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_flat_echo(tmp_path):
    cfg = load_config(_write(tmp_path, BASE_WEGNER.format(out=tmp_path / "o")))
    assert "experiment.kind" in cfg.flat()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[experiment]\nkind = gri\nbogus_key = 1\n")
    assert "bogus_key" in str(err.value)
    with pytest.raises(ConfigurationError):
        parse_config_text("[mystery]\nkind = gri\n")


def test_key_given_twice_exits_2(tmp_path):
    # the last value used to win silently: seed = 2 ran
    text = BASE_WEGNER.format(out=tmp_path / "x").replace("seed = 7\n", "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigurationError, match=r"\[experiment\] seed given twice"):
        parse_config_text(text)
    assert main(["wegner", "--config", _write(tmp_path, text)]) == 2
    assert not (tmp_path / "x").exists()


def test_readme_example_config_runs(tmp_path):
    block = re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    cfg = _write(tmp_path, block, "readme.cfg")
    assert main(["wegner", "--config", cfg, "--out", str(tmp_path / "o"), "--trials", "20"]) == 0


@pytest.mark.parametrize("key", ["volumes", "grid_points", "xi"])
def test_unread_run_keys_exit_2(tmp_path, key):
    # no runner reads these keys, so setting one is an error, not a no-op
    text = BASE_WEGNER.format(out=tmp_path / "x") + f"{key} = 3\n"
    assert main(["wegner", "--config", _write(tmp_path, text)]) == 2
    assert not (tmp_path / "x").exists()


def test_wegner_cli_exit_zero(tmp_path):
    out = tmp_path / "w"
    code = main(["wegner", "--config", _write(tmp_path, BASE_WEGNER.format(out=out))])
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "wegner.csv").exists()


def test_malformed_graph_spec_exits_2(tmp_path):
    text = BASE_WEGNER.format(out=tmp_path / "x").replace("path:9", "path:x")
    code = main(["wegner", "--config", _write(tmp_path, text)])
    assert code == 2


def test_zero_trials_exits_2(tmp_path):
    path = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "x"))
    assert main(["wegner", "--config", path, "--trials", "0"]) == 2


@pytest.mark.parametrize("batches", ["0", "-1", "10002"])
def test_efc_batches_out_of_range_exit_2(tmp_path, batches):
    # below 1 the runner used to write nan intervals; above 10001 the t
    # quantile of the interval is refused
    text = (ROOT / "configs" / "efc.cfg").read_text().replace("batches = 5", f"batches = {batches}")
    out = tmp_path / "x"
    assert main(["efc", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind,old,new", [
    # energy policies that are not fixed:<finite energy> or grid[:<count >= 1>]
    ("induction", "energy_policy = fixed:500", "energy_policy = grid:abc"),
    ("induction", "energy_policy = fixed:500", "energy_policy = fixed:abc"),
    ("induction", "energy_policy = fixed:500", "energy_policy = grid:0"),
    ("induction", "energy_policy = fixed:500", "energy_policy = grid:-3"),
    ("induction", "energy_policy = fixed:500", "energy_policy = fixed:nan"),
    # non-finite numbers
    ("classify", "energy = 1.0,5.0,50.0", "energy = nan,5.0"),
    ("wegner", "energy = 2.0", "energy = nan"),
    ("wegner", "energy = 2.0", "energy = -inf"),
    # configurations off the graph or with another particle count than [model]
    ("wegner", "center = 4", "center = -1"),
    ("classify", "center = 4,24", "center = 4,99"),
    ("efc", "pairs = 3|5;3|7;3|9;3|11", "pairs = 3|5;3|7;3|9;3|99"),
    ("classify", "center = 4,24", "center = 4"),
    ("bridge", "center_x = 7", "center_x = 7,3"),
    # list values with no item
    ("rcm", "q_sizes = 1,2", "q_sizes ="),
    ("rcm", "s_grid = 0.05,0.2", "s_grid = ,"),
    ("classify", "energy = 1.0,5.0,50.0", "energy ="),
    ("wegner", "g_grid = 0.5,1.0", "g_grid ="),
    ("efc", "g_grid = 0,20", "g_grid ="),
    ("evc2", "s_grid = 0.001,0.01,0.1", "s_grid ="),
    # a coupling at which the diagonal of H overflows
    ("classify", "g = 2.0", "g = 1e308"),
])
def test_malformed_run_values_exit_2(tmp_path, kind, old, new):
    text = (ROOT / "configs" / f"{kind}.cfg").read_text()
    assert old in text
    out = tmp_path / "x"
    path = _write(tmp_path, text.replace(old, new))
    assert main([kind, "--config", path, "--out", str(out), "--trials", "2"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind,old,new", [
    # a non-finite number in a distribution spec
    ("rcm", "graph = path:5", "graph = path:5\ndistribution = uniform:nan:1"),
    ("rcm", "graph = path:5", "graph = path:5\ndistribution = uniform:0:inf"),
    ("rcm", "graph = path:5", "graph = path:5\ndistribution = tgauss:0:1:-1:nan"),
    # an interaction spec with a negative or NaN rcut, or an infinite zeta
    ("classify", "u:C=1:zeta=0.5:rcut=inf", "u:C=1:zeta=1:rcut=-1"),
    ("classify", "u:C=1:zeta=0.5:rcut=inf", "u:C=1:zeta=0.5:rcut=nan"),
    ("classify", "u:C=1:zeta=0.5:rcut=inf", "u:C=1:zeta=inf:rcut=inf"),
])
def test_bad_model_specs_exit_2(tmp_path, capsys, kind, old, new):
    """rcm used to write nan budget cells with within_budget = true, and
    classify used to drop an interaction with rcut < 0 silently."""
    text = (ROOT / "configs" / f"{kind}.cfg").read_text()
    assert old in text
    out = tmp_path / "x"
    assert main([kind, "--config", _write(tmp_path, text.replace(old, new)), "--out", str(out)]) == 2
    assert not out.exists()
    spec = new.split(" = ")[-1] if kind == "rcm" else new
    assert f"'{spec}'" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"], ids=["a-file", "below-a-file"])
def test_unwritable_out_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    path = _write(tmp_path, BASE_WEGNER.format(out=blocker / below))
    assert main(["wegner", "--config", path]) == 2
    assert "output error" in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_malformed_thread_count_exits_2(tmp_path, monkeypatch, value):
    monkeypatch.setenv("MPMSA_THREADS", value)
    path = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "x"))
    assert main(["wegner", "--config", path]) == 2
    assert not (tmp_path / "x").exists()


def test_thread_count_capped_by_cpus_and_trials(monkeypatch):
    from mpmsa.parallel import thread_count

    cpus = os.cpu_count() or 1
    monkeypatch.setenv("MPMSA_THREADS", "1000000")
    assert thread_count() == cpus
    assert thread_count(3) == min(3, cpus)
    assert thread_count(0) == 1
    monkeypatch.setenv("MPMSA_THREADS", "1")
    assert thread_count(50) == 1


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "nope.cfg"])
    assert exc.value.code == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["wegner", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe[experiment]\nkind = wegner\n")
    assert main(["wegner", "--config", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, seed, source):
    """Seeds feed SplitMix64 streams, which would mask them to 64 bits (-1
    and 2**64 - 1 would draw the same samples)."""
    text = BASE_WEGNER.format(out=tmp_path / "x")
    flag = []
    if source == "config":
        text = text.replace("seed = 7", f"seed = {seed}")
    else:
        flag = ["--seed", str(seed)]
    assert main(["wegner", "--config", _write(tmp_path, text), *flag]) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_largest_64_bit_seed_runs(tmp_path):
    path = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "x"))
    assert main(["wegner", "--config", path, "--seed", str(2**64 - 1), "--trials", "5"]) == 0


def test_kind_mismatch_exits_2(tmp_path):
    path = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "x"))
    assert main(["gri", "--config", path]) == 2


def test_validate_params_violations_exit_2(tmp_path):
    text = """\
[experiment]
kind = validate-params
out = {out}

[params]
mode = subexp
nstar = 2
k = 1
b = 2
l0 = 1000
""".format(out=tmp_path / "vp")
    code = main(["validate-params", "--config", _write(tmp_path, text)])
    assert code == 2
    summary = (tmp_path / "vp" / "summary.json").read_text()
    assert "24" in summary  # the violated B >= 24*N*K constraint is listed


def test_induction_requires_explicit_violation_waiver(tmp_path):
    text = """\
[experiment]
kind = induction
trials = 5
seed = 1
out = {out}

[model]
graph = path:30
particles = 1
g = 1000

[params]
mode = subexp
nstar = 1
l0 = 3
b = 2

[run]
center = 14
kmax = 1
energy_policy = fixed:500
""".format(out=tmp_path / "ind")
    path = _write(tmp_path, text, "ind.cfg")
    assert main(["induction", "--config", path]) == 2  # B=2 violates the table
    waived = text.replace("energy_policy = fixed:500",
                          "energy_policy = fixed:500\nallow_param_violations = true")
    assert main(["induction", "--config", _write(tmp_path, waived, "ind2.cfg")]) == 0


@pytest.mark.parametrize("kind", ["induction", "bridge"])
def test_nonpositive_l0_exits_2_despite_the_waiver(tmp_path, kind):
    """L0 < 1 takes L0 to a negative power in the mass recursion; the
    parameter waiver does not admit it."""
    text = (ROOT / "configs" / f"{kind}.cfg").read_text()
    text = text.replace("l0 = 3", "l0 = 0").replace("kmax = 1", "kmax = 0")
    assert "l0 = 0" in text
    if kind == "induction":
        assert "allow_param_violations = true" in text
    path = _write(tmp_path, text, f"{kind}.cfg")
    assert main([kind, "--config", path, "--out", str(tmp_path / kind)]) == 2


BASE_GRI = """\
[experiment]
kind = gri
trials = 4
seed = 7
out = {out}

[model]
graph = path:12
particles = 1
distribution = uniform:0:1
interaction = u:C=0:zeta=1:rcut=inf
g = 1.0

[run]
energies_per_instance = 2
"""


def test_gri_without_energies_exits_2(tmp_path, capsys):
    # energies_per_instance = 0 used to check nothing, write a header-only
    # gri.csv and exit 0 with gri_holds = true
    text = BASE_GRI.format(out=tmp_path / "gri").replace(
        "energies_per_instance = 2", "energies_per_instance = 0"
    )
    assert main(["gri", "--config", _write(tmp_path, text, "gri.cfg")]) == 2
    assert "energies_per_instance" in capsys.readouterr().err
    assert not (tmp_path / "gri" / "gri.csv").exists()


def test_gri_without_an_instance_exits_3(tmp_path, capsys):
    # every ball of radius >= 1 of 10 particles on path:3 has at least 2**10
    # configurations, over the instance cap; the draw used to end in a
    # RuntimeError traceback
    text = BASE_GRI.format(out=tmp_path / "gri").replace("particles = 1", "particles = 10")
    assert main(["gri", "--config", _write(tmp_path, text.replace("path:12", "path:3"), "gri.cfg")]) == 3
    assert "600-configuration instance cap" in capsys.readouterr().err


def _run_and_read(tmp_path, name, threads, seed=7):
    out = tmp_path / f"{name}-{threads}"
    path = _write(tmp_path, BASE_GRI.format(out=out), f"{name}-{threads}.cfg")
    old = os.environ.get("MPMSA_THREADS")
    os.environ["MPMSA_THREADS"] = str(threads)
    try:
        assert main(["gri", "--config", path, "--seed", str(seed)]) == 0
    finally:
        if old is None:
            os.environ.pop("MPMSA_THREADS", None)
        else:
            os.environ["MPMSA_THREADS"] = old
    return (out / "gri.csv").read_bytes()


def test_csv_bitwise_deterministic_across_runs_and_threads(tmp_path):
    a = _run_and_read(tmp_path, "a", threads=1)
    b = _run_and_read(tmp_path, "b", threads=1)
    c = _run_and_read(tmp_path, "c", threads=4)
    assert a == b == c


def _pool_run_csvs(tmp_path, kind, threads, config=None):
    """CSV bytes of the shipped config of `kind` (or of `config`), run in a
    child process with one BLAS thread and `threads` pool workers."""
    out = tmp_path / f"{kind}-{threads}"
    env = _child_env(OPENBLAS_NUM_THREADS="1", MPMSA_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-m", "mpmsa.cli", kind, "--config",
         config or str(ROOT / "configs" / f"{kind}.cfg"), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert csvs
    return csvs


@pytest.mark.parametrize("kind", ["efc", "wegner", "induction", "evc2"])
def test_pool_runners_bitwise_deterministic_across_worker_counts(tmp_path, kind):
    assert _pool_run_csvs(tmp_path, kind, 1) == _pool_run_csvs(tmp_path, kind, 2)


MULTI_BLOCK_WEGNER = """\
[experiment]
kind = wegner
trials = 40
seed = 5
out = {out}

[model]
graph = path:30
particles = 2
distribution = uniform:0:1
interaction = u:C=1:zeta=0.5:rcut=inf
g = 1.0

[params]
beta = 0.7

[run]
center = 15,15
radius = 10
energy = 2.5
g_grid = 0.5,1.0
"""


def test_multi_block_wegner_bitwise_deterministic_across_worker_counts(tmp_path):
    """A 441-configuration ball, decided by inertia counts over 21 blocks."""
    cfg = _write(tmp_path, MULTI_BLOCK_WEGNER.format(out=tmp_path / "unused"), "wegner-mb.cfg")
    assert _pool_run_csvs(tmp_path, "wegner", 1, cfg) == _pool_run_csvs(tmp_path, "wegner", 2, cfg)


def test_seed_override_changes_results(tmp_path):
    # the seeded instance energies land verbatim in the CSV, so distinct seeds
    # must produce distinct bytes
    a = _run_and_read(tmp_path, "s", threads=1, seed=7)
    b = _run_and_read(tmp_path, "t", threads=1, seed=8)
    assert a != b


def test_volume_budget_exits_3(tmp_path):
    text = """\
[experiment]
kind = classify
seed = 1
out = {out}

[model]
graph = path:80
particles = 2
g = 1.0

[params]
mode = subexp
l0 = 3
b = 2

[run]
center = 40,40
radius = 39
kmax = 1
energy = 1.0
""".format(out=tmp_path / "big")
    assert main(["classify", "--config", _write(tmp_path, text, "big.cfg")]) == 3


def test_efc_full_volume_budget_exits_3(tmp_path):
    # path:64 with two particles has 64**2 = 4096 configurations, over the cap
    text = """\
[experiment]
kind = efc
trials = 1
seed = 1
out = {out}

[model]
graph = path:64
particles = 2
g = 1.0

[run]
pairs = 0,0|1,1;0,0|2,2
""".format(out=tmp_path / "efc")
    assert main(["efc", "--config", _write(tmp_path, text, "efc.cfg")]) == 3


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency; the package needs numpy alone, and the
    # thread pool only when more than one worker runs.  A process imports
    # only its own runner's module, so a classify run at one worker loads
    # neither the pool nor the estimators of the other runners.
    probe = (
        "import sys, mpmsa.cli; "
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent') "
        "or m in ('mpmsa.induction', 'mpmsa.domination', 'mpmsa.evc')); "
        "print(loaded()); "
        f"code = mpmsa.cli.main(['classify', '--config', {str(ROOT / 'configs' / 'classify.cfg')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(code, loaded())"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(MPMSA_THREADS="1"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_runner_table_names_every_subcommand_and_resolves():
    from mpmsa import cli

    assert tuple(cli.RUNNERS) == (
        "validate-params", "classify", "gri", "wegner", "evc2", "rcm", "shift",
        "induction", "bridge", "efc", "dominate",
    )
    for kind, target in cli.RUNNERS.items():
        module, name = target.split(":")
        runner = getattr(importlib.import_module(f"mpmsa.{module}"), name)
        assert callable(runner) and runner.__name__ == f"run_{kind.replace('-', '_')}"


@pytest.mark.parametrize("case", ["pass", "fail", "config", "budget"])
def test_process_entry_matches_in_process_main(tmp_path, case):
    """`python -m mpmsa.cli` exits with the code and writes the CSV bytes of
    an in-process main(); main() itself leaves the heap unfrozen."""
    if case == "pass":
        cfg = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "unused"))
        args = ["wegner", "--config", cfg]
    elif case == "fail":  # no exponent estimate reaches the floor: pass flag false
        text = (ROOT / "configs" / "evc2.cfg").read_text() + "theta_floor = 1e9\n"
        args = ["evc2", "--config", _write(tmp_path, text), "--trials", "20"]
    elif case == "config":
        args = ["wegner", "--config", str(ROOT / "configs" / "wegner.cfg"), "--seed", "-1"]
    else:
        # a two-particle ball of 79**2 configurations, over the volume cap
        text = (ROOT / "configs" / "classify.cfg").read_text()
        for old, new in (("path:30", "path:80"), ("4,24", "40,40"), ("radius = 6", "radius = 39")):
            text = text.replace(old, new)
        args = ["classify", "--config", _write(tmp_path, text)]
    expected = {"pass": 0, "fail": 1, "config": 2, "budget": 3}[case]
    code = main([*args, "--out", str(tmp_path / "in")])
    assert code == expected
    assert gc.get_freeze_count() == 0
    proc = subprocess.run([sys.executable, "-m", "mpmsa.cli", *args, "--out", str(tmp_path / "child")],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == expected, proc.stderr

    def csvs(out):
        return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert csvs(tmp_path / "child") == csvs(tmp_path / "in")
    assert bool(csvs(tmp_path / "in")) == (expected < 2)


def test_dominate_solves_each_green_ball_once(tmp_path, monkeypatch):
    """A Green trial of `dominate` diagonalizes its ball once, and a trial
    that passes the hypotheses solves (H - E) once for all boundary columns."""
    ball_size = 13  # configs/dominate.cfg: path:20, one particle, radius 6
    eigh_sizes, solves = [], []
    eigh, solve = np.linalg.eigh, np.linalg.solve

    def counting_eigh(a, *args, **kwargs):
        eigh_sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counting_solve(a, b):
        solves.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    out = tmp_path / "dominate"
    code = main(["dominate", "--config", str(ROOT / "configs" / "dominate.cfg"), "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in (out / "dominate.csv").read_text().splitlines()
            if line[:1].isdigit()]
    green_trials = {r[0] for r in rows if r[1].startswith("gf")}
    qualifying = {r[0] for r in rows if r[1] == "gf"}
    assert len(green_trials) == 2 and len(qualifying) == 1
    assert eigh_sizes.count(ball_size) == len(green_trials)
    assert max(eigh_sizes) == ball_size
    # the ball on path:20 has both ends as its inner boundary
    assert solves == [(ball_size, 2)] * len(qualifying)


def test_dominate_builds_each_regular_set_once_per_bound(tmp_path, monkeypatch):
    """Each map is partitioned and checked against the definition once:
    `domination_bound` hands its partition to `is_dominated`, and
    `gf_domination_check` returns the bound of each verified Green map, which
    the runner writes as it is (configs/dominate.cfg: 2 synthetic and 2 Green
    bounds, 4 partitions, 4 definition checks)."""
    from mpmsa import domination, experiments_domination

    built, checked, per_bound = [], [], []
    regular_set, is_dominated = domination.regular_set, domination.is_dominated
    domination_bound = domination.domination_bound

    def counting_regular_set(ctx):
        built.append(ctx)
        return regular_set(ctx)

    def counting_is_dominated(ctx, partition=None):
        checked.append(ctx)
        return is_dominated(ctx, partition)

    def counting_domination_bound(ctx, annuli):
        before = len(built)
        result = domination_bound(ctx, annuli)
        per_bound.append(len(built) - before)
        return result

    monkeypatch.setattr(domination, "regular_set", counting_regular_set)
    monkeypatch.setattr(domination, "is_dominated", counting_is_dominated)
    monkeypatch.setattr(domination, "domination_bound", counting_domination_bound)
    monkeypatch.setattr(experiments_domination, "domination_bound", counting_domination_bound)
    out = tmp_path / "dominate"
    code = main(["dominate", "--config", str(ROOT / "configs" / "dominate.cfg"), "--out", str(out)])
    assert code == 0
    assert per_bound == [1, 1, 1, 1]
    assert len(built) == 4
    assert len(checked) == 4


def _count_operator_builds(monkeypatch):
    """Record the ball of every ball operator build."""
    from mpmsa.hamiltonian import VolumeOperator

    balls = []
    from_ball = VolumeOperator.from_ball

    def counting_from_ball(cls, ball, interaction):
        balls.append((tuple(ball.center), ball.radius))
        return from_ball(ball, interaction)

    monkeypatch.setattr(VolumeOperator, "from_ball", classmethod(counting_from_ball))
    return balls


@pytest.mark.parametrize("kind", ["wegner", "induction"])
def test_pool_runners_build_one_operator_per_ball(tmp_path, monkeypatch, kind):
    """configs/wegner.cfg (2 couplings, 200 samples) and configs/induction.cfg
    (2 scales, 40 samples each) enumerate each distinct ball once per run."""
    monkeypatch.setenv("MPMSA_THREADS", "1")
    balls = _count_operator_builds(monkeypatch)
    out = tmp_path / kind
    assert main([kind, "--config", str(ROOT / "configs" / f"{kind}.cfg"), "--out", str(out)]) == 0
    assert balls and len(balls) == len(set(balls))


@pytest.mark.parametrize("kind,builds", [("efc", 0), ("classify", 0), ("wegner", 1)])
def test_only_wegner_builds_a_layer_partition(tmp_path, monkeypatch, kind, builds):
    """The layer partition is built on first use by the inertia counts, so
    runs that only diagonalise never pay for it."""
    from mpmsa.hamiltonian import LayerPartition

    calls = []
    build = LayerPartition.of.__func__

    def counting(cls, op):
        calls.append(op.label)
        return build(cls, op)

    monkeypatch.setattr(LayerPartition, "of", classmethod(counting))
    monkeypatch.setenv("MPMSA_THREADS", "1")
    cfg = str(ROOT / "configs" / f"{kind}.cfg")
    assert main([kind, "--config", cfg, "--out", str(tmp_path / kind)]) == 0
    assert len(calls) == builds


def test_wegner_summary_counts_eigvalsh_fallbacks(tmp_path):
    """With g = 0 every sample has the same spectrum; E + t placed on an
    eigenvalue sends every sample to eigvalsh, E elsewhere sends none."""
    graph = build_graph("path:9")
    op = BallOperators(graph, ZERO_INTERACTION).operator(MultiBall(graph, (4,), 4))
    lam = np.linalg.eigvalsh(op.hamiltonian(0.0, sample_potential(uniform_distribution(0, 1), graph, 0)))
    t = 2.0 * math.exp(-(4.0**0.3))
    for name, energy, fallbacks in (("edge", lam[2] - t, 60), ("inside", lam[2], 0)):
        out = tmp_path / name
        text = BASE_WEGNER.format(out=out).replace("g = 1.0", "g = 0.0")
        text = text.replace("energy = 2.0", f"energy = {float(energy)!r}")
        assert main(["wegner", "--config", _write(tmp_path, text, f"{name}.cfg")]) == 0
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["eigvalsh_fallbacks"] == [fallbacks]
        assert results["estimates"] == [1.0]


def _classify_sweep(tmp_path):
    """A 120-energy classify config: centre (8, 30) at radius 6 with L0 = 3."""
    energies = ",".join(repr(float(e)) for e in np.linspace(0.0, 2000.0, 120))
    return _write(tmp_path, f"""\
[experiment]
kind = classify
seed = 3100
out = {tmp_path / "o"}

[model]
graph = path:40
particles = 2
distribution = uniform:0:1
interaction = u:C=1:zeta=0.5:rcut=inf
g = 1000

[params]
mode = subexp
nstar = 2
l0 = 3
b = 2

[run]
center = 8,30
radius = 6
kmax = 1
energy = {energies}
""")


def test_classify_enumerates_each_ball_once(tmp_path, monkeypatch):
    """A 120-energy classify run enumerates each distinct ball once: the
    boundary of every NS test is read from the ball's volume (centre (8, 30)
    at radius 6 with L0 = 3: the ball and its CNR radii 3..6, four balls)."""
    calls = []
    members = MultiBall.members

    def counting_members(ball):
        calls.append((ball.center, ball.radius))
        return members(ball)

    monkeypatch.setattr(MultiBall, "members", counting_members)
    cfg = _classify_sweep(tmp_path)
    assert main(["classify", "--config", cfg]) == 0
    assert sorted(calls) == [((8, 30), r) for r in (3, 4, 5, 6)]


def test_green_maps_reuse_the_solved_ball(monkeypatch):
    from mpmsa.domination import green_magnitude_maps

    graph = build_graph("path:20")
    ball = MultiBall(graph, (9,), 6)
    sample = sample_potential(uniform_distribution(0, 1), graph, 5)
    spectra = BallSpectra(BallOperators(graph, ZERO_INTERACTION), sample, 100.0)
    spec = spectra.spectrum(ball)
    balls = _count_operator_builds(monkeypatch)
    maps = green_magnitude_maps(spectra, ball, float(spec.eigenvalues[0]) - 1.0)
    assert len(maps) == 2 and balls == []


def test_shipped_configs_parse_and_declare_their_kind():
    config_dir = ROOT / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) == 11
    for path in paths:
        cfg = load_config(path)
        assert cfg.get("experiment", "kind") == path.stem


def test_shipped_validate_params_config_passes(tmp_path):
    cfg = ROOT / "configs" / "validate-params.cfg"
    assert main(["validate-params", "--config", str(cfg), "--out", str(tmp_path / "vp")]) == 0


def test_classify_forms_one_boundary_profile_per_ball(tmp_path, monkeypatch):
    """A 120-energy classify run forms the ball's boundary profile once and
    evaluates it at each energy (the NS test is the only profile user)."""
    from mpmsa import spectral

    formed = []
    profile = spectral.BoundaryProfile

    def counting_profile(**kwargs):
        formed.append(kwargs["coefficients"].shape)
        return profile(**kwargs)

    monkeypatch.setattr(spectral, "BoundaryProfile", counting_profile)
    cfg = _classify_sweep(tmp_path)
    assert main(["classify", "--config", cfg]) == 0
    assert len(formed) == 1


def test_classify_calls_classify_once_per_ball(tmp_path, monkeypatch):
    """A 120-energy classify run classifies all its energies in one call."""
    from mpmsa import experiments

    calls = []
    classify = experiments.classify

    def counting_classify(ball, energies, *args, **kwargs):
        calls.append(np.size(energies))
        return classify(ball, energies, *args, **kwargs)

    monkeypatch.setattr(experiments, "classify", counting_classify)
    assert main(["classify", "--config", _classify_sweep(tmp_path)]) == 0
    assert calls == [120]


# one bench-like bridge ball pair: two particles on path:40, g = 300
BRIDGE_TWO_PARTICLES = """\
[experiment]
kind = bridge
trials = 1
seed = 4100
out = {out}

[model]
graph = path:40
particles = 2
distribution = uniform:0:1
interaction = u:C=1:zeta=0.5:rcut=inf
g = 300

[params]
mode = subexp
nstar = 2
nustar = 20
l0 = 3
b = 2

[run]
radius = 6
center_x = 7,9
center_y = 28,31
kmax = 1
"""


def _bridge_run(tmp_path, config, blas_threads):
    """bridge.csv bytes and summary results of `config`, run in a child
    process with `blas_threads` BLAS threads."""
    out = tmp_path / f"{Path(config).stem}-{blas_threads}"
    env = _child_env(OPENBLAS_NUM_THREADS=str(blas_threads), MPMSA_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "mpmsa.cli", "bridge", "--config", str(config), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return (out / "bridge.csv").read_bytes(), json.loads((out / "summary.json").read_text())["results"]


def test_bridge_csv_identical_across_blas_threads(tmp_path):
    two = Path(_write(tmp_path, BRIDGE_TWO_PARTICLES.format(out=tmp_path / "unused"), "two.cfg"))
    for config in (ROOT / "configs" / "bridge.cfg", two):
        one_thread, results = _bridge_run(tmp_path, config, 1)
        two_threads, _ = _bridge_run(tmp_path, config, 2)
        assert one_thread == two_threads
        # the bisection work of the covers: each bracket forms one row for
        # its lower end and one per step
        for kind in ("turn", "level"):
            counts = results["cover_roots"][kind]
            assert set(counts) == {"brackets", "rows", "skipped"}
            assert counts["brackets"] > 0
            assert 2 * counts["brackets"] <= counts["rows"] <= 81 * counts["brackets"]
