import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from compare_tree import differing_leaves, differing_paths  # noqa: E402


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


def test_tolerance_applies_to_finite_floats_only():
    tol = (1e-9, 1e-12)
    ref = {"mass": 2.0, "floor": 0.0, "count": 3, "worst": [float("inf"), float("nan")], "flag": True}
    near = {"mass": 2.0 * (1 + 5e-10), "floor": 5e-13, "count": 3, "worst": [float("inf"), float("nan")],
            "flag": True}
    assert differing_paths(near, ref, tol=tol) == []
    assert differing_paths(near, ref) == ["floor", "mass"]
    far = {**near, "mass": 2.0 * (1 + 2e-9), "floor": 2e-12, "count": 3.0,
           "worst": [1e308, float("nan")], "flag": 1}
    assert differing_paths(far, ref, tol=tol) == ["count", "flag", "floor", "mass", "worst[0]"]
    # the values of each differing leaf, a missing key as <missing>
    assert repr(differing_leaves({"a": [1.5]}, {"a": [1.0], "b": 2}, "results", tol)) == (
        "[('results.a[0]', 1.5, 1.0), ('results.b', <missing>, 2)]")
