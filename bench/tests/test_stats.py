"""The compare verdict rule and the repeat agreement check."""

from bench import stats

SPEC = {"end_to_end": [
    {"name": "host_items_s", "unit": "items/s", "better": "higher", "bound": 0.1},
    {"name": "sim_cycles_per_item", "unit": "cycles", "better": "lower",
     "bound": 0.05},
]}


def test_quartiles_match_statistics_quantiles():
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_improved_needs_nine_of_ten_wins_and_a_gap_beyond_iqr():
    parent = [100.0 + i * 0.1 for i in range(10)]
    change = [110.0 + i * 0.1 for i in range(10)]
    assert stats.verdict(parent, change, "higher", 0.1) == "improved"
    # Same medians apart but only 8/10 wins: not a claimable gain.
    mixed = change[:8] + [90.0, 90.0]
    assert stats.verdict(parent, mixed, "higher", 0.1) != "improved"


def test_worse_beyond_bound_and_no_worse_within():
    parent = [100.0 + i * 0.1 for i in range(10)]
    assert stats.verdict(parent, [85.0 + i * 0.1 for i in range(10)],
                         "higher", 0.1) == "worse"
    assert stats.verdict(parent, [97.0 + i * 0.1 for i in range(10)],
                         "higher", 0.1) == "no worse"
    # Lower-is-better metrics flip the direction.
    assert stats.verdict(parent, [115.0 + i * 0.1 for i in range(10)],
                         "lower", 0.1) == "worse"


def test_unresolved_with_few_pairs_or_wide_spread():
    assert stats.verdict([1.0] * 9, [2.0] * 9, "higher", 0.1) == "unresolved"
    noisy = [50.0, 150.0] * 5
    assert stats.verdict(noisy, [95.0, 105.0] * 5, "higher", 0.1) == "unresolved"


def _record(workload, seed, value, sim, digest, set_=0):
    return {"workload": workload, "set": set_, "digest": digest,
            "provenance": {"seed": seed, "trace": 0},
            "metrics": {"host_items_s": {"value": value, "unit": "items/s"},
                        "sim_cycles_per_item": {"value": sim, "unit": "cycles"}},
            "report": {"sim_x": {"value": sim, "unit": "cycles"}}}


def test_compare_flags_digest_changes():
    parent = [_record("serve", s, 100.0, 5.0, "a") for s in range(10)]
    change = [_record("serve", s, 100.0, 5.0, "b" if s == 3 else "a")
              for s in range(10)]
    lines, worse = stats.compare(parent, change, SPEC)
    assert not worse
    assert any("digest changed at seed 3" in line for line in lines)


def test_repeat_requires_identical_simulated_values():
    same = ([_record("decode", s, 100.0 + s, 7.0, "d", 0) for s in range(3)]
            + [_record("decode", s, 101.0 + s, 7.0, "d", 1) for s in range(3)])
    assert stats.repeat(same, SPEC)[1]
    drift = same[:3] + [_record("decode", s, 101.0 + s, 7.5, "d", 1)
                        for s in range(3)]
    assert not stats.repeat(drift, SPEC)[1]
    slow = same[:3] + [_record("decode", s, 80.0 + s, 7.0, "d", 1)
                       for s in range(3)]
    assert not stats.repeat(slow, SPEC)[1]
