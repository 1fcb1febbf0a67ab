import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_tree import differing_paths  # noqa: E402


def test_differing_paths_name_every_changed_leaf():
    base = {"cover_roots": {"level": {"rows": 2065, "brackets": 40}, "turn": {"rows": 7}},
            "worst": [1.0, float("nan")], "gone": 1}
    changed = {"cover_roots": {"level": {"rows": 2032, "brackets": 40}, "turn": {"rows": 7.0}},
               "worst": [1.0, float("nan")], "new": 1}
    assert differing_paths(base, base) == []
    assert differing_paths(base, changed) == [
        "cover_roots.level.rows", "cover_roots.turn.rows", "gone", "new"]
    assert differing_paths([1, {"a": [2, 3]}], [1, {"a": [2, 4]}]) == ["[1].a[1]"]
    assert differing_paths({"a": [1, 2]}, {"a": [1]}) == ["a"]
    assert differing_paths(None, {}, "results") == ["results"]
