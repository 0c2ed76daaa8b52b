import importlib.util

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location("ab_pairs", REPO_ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def test_summary_counts_wins_pair_by_pair_and_ties_for_neither_side():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.5, 1.0, 2.0, 0.5]
    s = ab_pairs.summarize(parent, change, "lower")
    assert s["wins"] == 2 and not s["gain"]
    assert ab_pairs.summarize(parent, change, "higher")["wins"] == 1
    assert s["parent"] == (1.0, 1.0, 1.0) and s["change"] == (0.75, 0.5, 1.25)


def test_gain_needs_nine_wins_in_ten_and_a_move_beyond_the_parent_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225 and 1.0675
    faster = [p - 0.1 for p in parent]
    assert ab_pairs.summarize(parent, faster, "lower")["gain"]
    assert not ab_pairs.summarize(parent, [p - 0.01 for p in parent], "lower")["gain"]
    assert not ab_pairs.summarize(parent, faster[:8] + parent[8:], "lower")["gain"]
    assert ab_pairs.summarize([2.0], [1.0], "lower")["move"] == -0.5


def test_draw_medians_take_fit_i_as_draw_i_mod_draws():
    report = {"failed": 0, "sizes": {"draws": 3}, "fit_times_s": [1.0, 2.0, 3.0, 5.0, 4.0, 3.0, 9.0]}
    assert ab_pairs.draw_medians(report) == [5.0, 3.0, 3.0]
    report["sizes"]["draws"] = 7
    assert ab_pairs.draw_medians(report) == report["fit_times_s"]


def test_draw_medians_skip_a_run_that_failed_an_operation():
    report = {"failed": 1, "sizes": {"draws": 2}, "fit_times_s": [1.0, 2.0, 3.0]}
    assert ab_pairs.draw_medians(report) is None


def test_draw_medians_of_predicts_take_predict_i_as_batch_i_mod_draws():
    report = {
        "failed": 0,
        "sizes": {"draws": 2},
        "fit_times_s": [9.0, 8.0],
        "predict_times_s": [1.0, 4.0, 3.0, 2.0, 2.0],
    }
    assert ab_pairs.draw_medians(report, "predict_times_s") == [2.0, 3.0]
    assert ab_pairs.draw_medians(report) == [9.0, 8.0]
    report["failed"] = 1
    assert ab_pairs.draw_medians(report, "predict_times_s") is None
