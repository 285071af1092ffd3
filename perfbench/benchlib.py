"""Pure helpers of the campaign benchmark: parsing, percentiles, and the
correctness gate. run.py does the process work; everything here is
deterministic and covered by test_benchlib.py."""

import hashlib
import json
import math
import statistics

# Fields of an episode record that differ between runs of the same episode:
# the measured wall time and the worker id a socket worker stamps.
VOLATILE_FIELDS = ("wallMs", "by")

# The observability payload (store schema v3). Absent when CREATE_METRICS=0,
# so metrics-off passes are checked on the remaining result fields only.
METRIC_FIELDS = ("gemmCalls", "flipsInjected", "flipsDetected",
                 "flipsCorrected", "flipsEscaped", "reExecutions")
LAYER_PREFIX = "L."


def parse_last_json(text):
    """The last stdout line that parses as a JSON object, or None."""
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{") and line.endswith("}"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    return None


def episode_key(name):
    """(fingerprint, index) of an episode record name, or None."""
    fp, sep, idx = name.rpartition("#")
    if not sep or not idx.isdigit():
        return None
    return fp, int(idx)


def load_episodes(path):
    """Episode records of an exported store (a JSON array) by name."""
    with open(path) as f:
        records = json.load(f)
    return {r["name"]: r for r in records if episode_key(r["name"])}


def is_metric_field(key):
    return key in METRIC_FIELDS or key.startswith(LAYER_PREFIX)


def digest(record, results_only=False):
    """Canonical digest of one episode record, volatile fields excluded.

    Numbers come from %.17g text, so a float parse is exact and repr()
    gives one spelling per double: equal digests mean bit-equal fields.
    """
    items = sorted(
        (k, repr(v)) for k, v in record.items()
        if k != "name" and k not in VOLATILE_FIELDS
        and not (results_only and is_metric_field(k)))
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def make_reference(episodes, workload, seed0, reps):
    """Pin a reference from one campaign's episodes (fingerprint order)."""
    ledgers = {}
    for name in sorted(episodes, key=lambda n: episode_key(n)):
        fp, idx = episode_key(name)
        entry = ledgers.setdefault(fp, {"full": [], "results": []})
        if idx != len(entry["full"]):
            raise ValueError("ledger %s has a gap before episode %d"
                             % (fp, idx))
        entry["full"].append(digest(episodes[name]))
        entry["results"].append(digest(episodes[name], results_only=True))
    for fp, entry in ledgers.items():
        if len(entry["full"]) != reps:
            raise ValueError("ledger %s has %d episodes, expected %d"
                             % (fp, len(entry["full"]), reps))
    return {"workload": workload, "seed0": seed0, "reps": reps,
            "ledgers": ledgers}


def check_episodes(episodes, reference, metrics_on=True):
    """Fold a campaign's episodes per ledger against the pinned reference.

    Returns (attempted, errors, notes): every reference episode is one
    attempt; a missing, extra or not bit-identical episode is one error.
    A task failure (success=0) is a simulated outcome, not an error.
    """
    kind = "full" if metrics_on else "results"
    errors = 0
    notes = []
    expected = set()
    for fp, entry in reference["ledgers"].items():
        for idx, want in enumerate(entry[kind]):
            name = "%s#%d" % (fp, idx)
            expected.add(name)
            rec = episodes.get(name)
            if rec is None:
                errors += 1
                notes.append("missing " + name)
            elif digest(rec, results_only=not metrics_on) != want:
                errors += 1
                notes.append("drift " + name)
    for name in episodes:
        if name not in expected:
            errors += 1
            notes.append("unexpected " + name)
    return len(expected), errors, notes


def check_golden(episodes, golden_records, reference):
    """The first episodes of each ledger against a bench/golden store
    (prefix slice): each golden episode of a reference ledger must be
    bit-identical to the campaign's. Returns (checked, errors, notes)."""
    checked = errors = 0
    notes = []
    for rec in golden_records:
        key = episode_key(rec["name"])
        if not key or key[0] not in reference["ledgers"]:
            continue
        if key[1] >= reference["reps"]:
            continue
        checked += 1
        got = episodes.get(rec["name"])
        if got is None or digest(got) != digest(rec):
            errors += 1
            notes.append("golden drift " + rec["name"])
    covered = {episode_key(r["name"])[0] for r in golden_records
               if episode_key(r["name"])}
    for fp in reference["ledgers"]:
        if fp not in covered:
            errors += 1
            notes.append("golden has no ledger " + fp)
    return checked, errors, notes


def nearest_rank(samples, pct):
    """Nearest-rank percentile (the store analytics' definition)."""
    if not samples:
        raise ValueError("no samples")
    s = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(n, want=95.0, beyond=10):
    """The percentile to report as a tail: `want` when at least `beyond`
    samples lie above it, else the highest whole percentile that leaves
    `beyond` samples above it. None when n is too small for any tail."""
    def above(p):
        return n - max(1, math.ceil(p / 100.0 * n))
    if above(want) >= beyond:
        return want
    for p in range(int(want) - 1, 49, -1):
        if above(p) >= beyond:
            return float(p)
    return None


def episode_percentiles(samples_by_episode, want=95.0, beyond=10):
    """(p50, tail value, tail percentile) over the distinct episodes of a
    run, each episode taken at the median of its wall times over the
    passes that ran it. Every pass repeats the same fixed work, so the
    median drops the passes in which the host preempted that episode,
    while a slowdown the program causes every time stays. The tail follows
    tail_percentile() on the number of episodes; None when too few."""
    typical = [statistics.median(v) for v in samples_by_episode.values()]
    tail = tail_percentile(len(typical), want, beyond)
    if tail is None:
        return None
    return nearest_rank(typical, 50), nearest_rank(typical, tail), tail
