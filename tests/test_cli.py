import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpmsa.cli import main
from mpmsa.config import load_config, parse_config_text, serialize_config
from mpmsa.errors import ConfigurationError

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


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_round_trip(tmp_path):
    path = _write(tmp_path, BASE_WEGNER.format(out=tmp_path / "o"))
    cfg = load_config(path)
    again = parse_config_text(serialize_config(cfg))
    assert again.table == cfg.table
    assert "experiment.kind" in cfg.flat()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[experiment]\nkind = gri\nbogus_key = 1\n")
    assert "bogus_key" in str(err.value)
    with pytest.raises(ConfigurationError):
        parse_config_text("[mystery]\nkind = gri\n")


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


def _pool_run_csvs(tmp_path, kind, threads):
    """CSV bytes of the shipped config of `kind`, run in a child process with
    one BLAS thread and `threads` pool workers."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / f"{kind}-{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MPMSA_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "mpmsa.cli", kind, "--config", str(root / "configs" / f"{kind}.cfg"),
         "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    assert csvs
    return csvs


@pytest.mark.parametrize("kind", ["efc", "wegner", "induction"])
def test_pool_runners_bitwise_deterministic_across_worker_counts(tmp_path, kind):
    assert _pool_run_csvs(tmp_path, kind, 1) == _pool_run_csvs(tmp_path, kind, 2)


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


def test_cli_import_leaves_scipy_linalg_out():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mpmsa.cli; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_dominate_solves_each_green_ball_once(tmp_path, monkeypatch):
    """A Green trial of `dominate` diagonalizes its ball once, and a trial
    that passes the hypotheses solves (H - E) once for all boundary columns."""
    root = Path(__file__).resolve().parent.parent
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
    code = main(["dominate", "--config", str(root / "configs" / "dominate.cfg"), "--out", str(out)])
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


def test_shipped_configs_parse_and_declare_their_kind():
    from pathlib import Path

    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.cfg"))
    assert len(paths) == 11
    for path in paths:
        cfg = load_config(path)
        assert cfg.get("experiment", "kind") == path.stem


def test_shipped_validate_params_config_passes(tmp_path):
    from pathlib import Path

    cfg = Path(__file__).resolve().parent.parent / "configs" / "validate-params.cfg"
    assert main(["validate-params", "--config", str(cfg), "--out", str(tmp_path / "vp")]) == 0
