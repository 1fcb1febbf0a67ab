"""The outputs of the shipped configs against their stored reference
(tests/reference/shipped): exit codes, pass flags, summary.json results and
every CSV table with its '#' headers, by the bench's cell rules."""

import json
from pathlib import Path

SHIPPED = Path(__file__).resolve().parent / "reference" / "shipped"


def test_shipped_configs_match_their_reference(tmp_path, monkeypatch):
    monkeypatch.setenv("MPMSA_THREADS", "1")
    monkeypatch.syspath_prepend(str(SHIPPED))
    from shipped_reference import differences, names, run_config

    assert len(names()) == 11
    assert sorted(path.stem for path in SHIPPED.glob("*.json")) == names()
    for name in names():
        reference = json.loads((SHIPPED / f"{name}.json").read_text())
        assert differences(name, run_config(name, tmp_path / name), reference) == [], name
