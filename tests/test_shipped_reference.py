"""The outputs of the shipped configs against their stored reference
(tests/reference/shipped): exit codes, pass flags, summary.json results and
every CSV table with its '#' headers, by the bench's cell rules.  Each config
runs again with two workers, which must change no output byte."""

import json
from pathlib import Path

SHIPPED = Path(__file__).resolve().parent / "reference" / "shipped"


def _outputs(out: Path) -> tuple[dict, dict]:
    """The CSV bytes of a run, and its summary.json without the two fields
    that differ between runs: the run time and the output directory."""
    summary = json.loads((out / "summary.json").read_text())
    del summary["runtime_seconds"], summary["config"]["experiment.out"]
    return {csv.name: csv.read_bytes() for csv in sorted(out.glob("*.csv"))}, summary


def test_shipped_configs_match_their_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SHIPPED))
    from shipped_reference import differences, names, run_config

    assert len(names()) == 11
    assert sorted(path.stem for path in SHIPPED.glob("*.json")) == names()
    for name in names():
        monkeypatch.setenv("MPMSA_THREADS", "1")
        reference = json.loads((SHIPPED / f"{name}.json").read_text())
        got = run_config(name, tmp_path / name)
        assert differences(name, got, reference) == [], name
        monkeypatch.setenv("MPMSA_THREADS", "2")
        assert run_config(name, tmp_path / f"{name}-2")["exit_code"] == got["exit_code"], name
        assert _outputs(tmp_path / f"{name}-2") == _outputs(tmp_path / name), name
