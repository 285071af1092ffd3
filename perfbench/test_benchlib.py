"""Tests of the benchmark's own logic: output parsing, the tail-percentile
rule, and the correctness gate (a planted drift must fail it).

    python3 perfbench/test_benchlib.py
"""

import copy
import json
import math
import os
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(os.path.dirname(HERE), "bench", "golden", "tab05.json")


def golden_episodes():
    with open(GOLDEN) as f:
        records = json.load(f)
    return records, {r["name"]: r for r in records
                     if benchlib.episode_key(r["name"])}


class ParsingTest(unittest.TestCase):
    def test_last_json_line_wins_over_noise(self):
        out = ('[sweep] cells=1 executed=1\n{"role": "ready", "t": 1}\n'
               'not json {\n{"role": "worker", "end": 2.5}\n\n')
        self.assertEqual(benchlib.parse_last_json(out),
                         {"role": "worker", "end": 2.5})

    def test_malformed_and_missing_json(self):
        self.assertIsNone(benchlib.parse_last_json("{broken\nplain text\n"))
        self.assertEqual(benchlib.parse_last_json('{"a": 1}\n{"b": }\n'),
                         {"a": 1})

    def test_episode_keys(self):
        fp = "v2|jarvis-1|task=0|seed0=1000|ber=0.001"
        self.assertEqual(benchlib.episode_key(fp + "#12"), (fp, 12))
        for name in ("sweep-store", fp, "lease|" + fp, "worker|h:1.0",
                     fp + "#", fp + "#x"):
            self.assertIsNone(benchlib.episode_key(name), name)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(samples, 50), 50)
        self.assertEqual(benchlib.nearest_rank(samples, 95), 95)
        self.assertEqual(benchlib.nearest_rank([3.0], 95), 3.0)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(10000), 95.0)
        # 199 samples: p95 leaves only 9 above it, p94 leaves 11.
        self.assertEqual(benchlib.tail_percentile(199), 94.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(15))
        for n in (20, 57, 100, 199, 200, 1234):
            p = benchlib.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(p / 100.0 * n), 10, n)

    def test_episode_percentiles_take_each_episode_at_its_median(self):
        # Five passes of 200 episodes; episode i takes i ms, except that
        # one pass preempts every episode (x1000) and another a few.
        runs = {"e#%d" % i: [float(i), 1000.0 * i, float(i), float(i),
                             float(i)]
                for i in range(1, 201)}
        for i in (150, 190, 200):
            runs["e#%d" % i][2] += 500.0
        self.assertEqual(benchlib.episode_percentiles(runs),
                         (100.0, 190.0, 95.0))
        # A slowdown in most passes is the program's, and it shows.
        runs["e#100"] = [300.0, 300.0, 1.0]
        self.assertEqual(benchlib.episode_percentiles(runs)[0], 101.0)
        # The episode count sets the tail: 199 episodes fall back to p94.
        fewer = {"e#%d" % i: [float(i)] for i in range(1, 200)}
        self.assertEqual(benchlib.episode_percentiles(fewer),
                         (100.0, 188.0, 94.0))
        self.assertIsNone(benchlib.episode_percentiles({}))
        self.assertIsNone(benchlib.episode_percentiles(
            {"e#%d" % i: [1.0] for i in range(15)}))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.records, self.episodes = golden_episodes()
        self.ref = benchlib.make_reference(self.episodes, "tab05-deep",
                                           1000, 2)

    def check(self, episodes, metrics_on=True):
        return benchlib.check_episodes(episodes, self.ref, metrics_on)

    def test_identical_store_passes(self):
        self.assertEqual(self.check(self.episodes), (2, 0, []))
        checked, errors, _ = benchlib.check_golden(self.episodes,
                                                   self.records, self.ref)
        self.assertEqual((checked, errors), (2, 0))

    def test_volatile_fields_are_ignored(self):
        eps = copy.deepcopy(self.episodes)
        for rec in eps.values():
            rec["wallMs"] *= 3.0
            rec["by"] = "host:1.0"
        self.assertEqual(self.check(eps)[1], 0)

    def test_planted_drift_fails(self):
        name = sorted(self.episodes)[1]
        for field, bump in (("steps", lambda v: v + 1),
                            ("computeJ", lambda v: math.nextafter(v, 1e9)),
                            ("flipsEscaped", lambda v: v - 1)):
            eps = copy.deepcopy(self.episodes)
            eps[name][field] = bump(eps[name][field])
            attempted, errors, notes = self.check(eps)
            self.assertEqual((attempted, errors), (2, 1), field)
            self.assertEqual(notes, ["drift " + name])
            _, gerrors, _ = benchlib.check_golden(eps, self.records,
                                                  self.ref)
            self.assertEqual(gerrors, 1, field)

    def test_missing_and_extra_episodes_fail(self):
        eps = copy.deepcopy(self.episodes)
        name = sorted(eps)[0]
        del eps[name]
        self.assertEqual(self.check(eps)[1:], (1, ["missing " + name]))
        eps = copy.deepcopy(self.episodes)
        fp, _ = benchlib.episode_key(name)
        eps[fp + "#2"] = copy.deepcopy(self.episodes[name])
        self.assertEqual(self.check(eps)[1], 1)

    def test_metrics_off_checks_results_only(self):
        eps = copy.deepcopy(self.episodes)
        for rec in eps.values():
            for key in list(rec):
                if benchlib.is_metric_field(key) or key == "wallMs":
                    del rec[key]
        self.assertEqual(self.check(eps, metrics_on=False)[1], 0)
        self.assertEqual(self.check(eps, metrics_on=True)[1], 2)
        name = sorted(eps)[0]
        eps[name]["success"] = 1 - eps[name]["success"]
        self.assertEqual(self.check(eps, metrics_on=False)[1], 1)

    def test_reference_rejects_gaps(self):
        eps = copy.deepcopy(self.episodes)
        del eps[sorted(eps)[0]]
        with self.assertRaises(ValueError):
            benchlib.make_reference(eps, "tab05-deep", 1000, 2)

    def test_pinned_reference_starts_with_the_golden(self):
        # The pinned reference's first episodes are the golden store's:
        # pinning a drifted campaign would have been refused.
        with open(os.path.join(HERE, "reference", "tab05-deep.json")) as f:
            pinned = json.load(f)
        for fp, entry in self.ref["ledgers"].items():
            self.assertEqual(pinned["ledgers"][fp]["full"][:2],
                             entry["full"])


if __name__ == "__main__":
    unittest.main()
