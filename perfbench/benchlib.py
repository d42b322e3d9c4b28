"""Statistics, name checks and output parsing for the benchmark.

The C++ program src/scorecard.cpp prints raw samples, one line each:

    sample <name> <unit> <v1> [<v2> ...]   -> reported as the median
    dist <name> <unit> <v1> [<v2> ...]     -> <name>_p50, <name>_p99, <name>_samples
    rep <steal> <name> <unit> [<v1> ...]   -> the median over the least-stolen reps
    ops <attempted> <failed>

This module turns them into the benchmark's result object. It has no
dependencies beyond the standard library; test_benchlib.py tests it.
"""

import json
import math
import re
import statistics

# BENCHMARK.json limits: a name starts with a letter or digit and has at
# most 64 of [A-Za-z0-9_.-]; a unit has at most 16 of [A-Za-z0-9_/%.-].
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# The highest percentile reported for a distribution, and the number of
# samples it needs beyond it before it is trusted (ten, so p99 needs 1000).
TAIL_PERCENTILE = 99.0
MIN_TAIL_SAMPLES = 10

# A repetition during which the CPUs lost more than this share of their
# time to other guests of the host (steal, from /proc/stat) is left out
# of the median, unless that would leave fewer than a quarter of the
# repetitions.
MAX_STEAL = 0.01


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile out of range: %r" % q)
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def least_stolen(reps):
    """The (steal, values) repetitions a median is taken over.

    Those with a steal share of at most MAX_STEAL; when fewer than a
    quarter of them are, the least-stolen quarter, rounded up (ties at the
    cut are all kept).
    """
    if not reps:
        return []
    steals = sorted(steal for steal, _ in reps)
    cut = max(MAX_STEAL, steals[(len(steals) - 1) // 4])
    return [r for r in reps if r[0] <= cut]


def samples_beyond(n, q):
    """How many of n samples lie above the q-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


class Parsed:
    def __init__(self):
        self.samples = {}  # name -> (unit, [values])
        self.dists = {}    # name -> (unit, [values])
        self.reps = {}     # name -> (unit, [(steal, [values])])
        self.attempted = 0
        self.failed = 0


def parse_scorecard_output(text):
    """Parse scorecard's stdout; raises ValueError on a malformed line."""
    out = Parsed()
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "ops":
            if len(fields) != 3:
                raise ValueError("line %d: ops needs two counts" % lineno)
            out.attempted += int(fields[1])
            out.failed += int(fields[2])
            continue
        if kind == "rep":
            if len(fields) < 4:
                raise ValueError("line %d: rep needs steal, name and unit" % lineno)
            steal = float(fields[1])
            fields = fields[1:]
        elif kind not in ("sample", "dist") or len(fields) < 4:
            raise ValueError("line %d: not a result line: %r" % (lineno, line))
        name, unit = fields[1], fields[2]
        values = [float(v) for v in fields[3:]]
        table = {"sample": out.samples, "dist": out.dists, "rep": out.reps}[kind]
        if name in table and table[name][0] != unit:
            raise ValueError("line %d: %s reported in %s and %s"
                             % (lineno, name, table[name][0], unit))
        entry = table.setdefault(name, (unit, []))[1]
        if kind == "rep":
            entry.append((steal, values))
        else:
            entry.extend(values)
    return out


def summarize(parsed, warn=None):
    """Metrics dict {name: {"value": v, "unit": u}} from parsed output.

    `warn` (a callable taking a string) hears about a tail percentile
    that has fewer than MIN_TAIL_SAMPLES samples beyond it.
    """
    metrics = {}
    for name, (unit, values) in parsed.samples.items():
        metrics[name] = {"value": median(values), "unit": unit}
    for name, (unit, reps) in parsed.reps.items():
        # A repetition whose runs all failed brings no value.
        values = [v for _, vs in least_stolen([r for r in reps if r[1]]) for v in vs]
        if values:
            metrics[name] = {"value": median(values), "unit": unit}
    for name, (unit, values) in parsed.dists.items():
        tag = "p%d" % TAIL_PERCENTILE
        metrics[name + "_p50"] = {"value": percentile(values, 50.0), "unit": unit}
        metrics[name + "_" + tag] = {"value": percentile(values, TAIL_PERCENTILE),
                                     "unit": unit}
        metrics[name + "_samples"] = {"value": len(values), "unit": "count"}
        beyond = samples_beyond(len(values), TAIL_PERCENTILE)
        if warn is not None and beyond < MIN_TAIL_SAMPLES:
            warn("%s_%s rests on %d samples beyond it (of %d)"
                 % (name, tag, beyond, len(values)))
    return metrics


def check_metrics(metrics, expected):
    """Problems with `metrics` against BENCHMARK.json entries `expected`."""
    problems = []
    want = {m["name"]: m["unit"] for m in expected}
    for name, unit in want.items():
        if name not in metrics:
            problems.append("missing metric %s" % name)
        elif metrics[name]["unit"] != unit:
            problems.append("%s has unit %s, expected %s"
                            % (name, metrics[name]["unit"], unit))
    for name, m in metrics.items():
        if name not in want:
            problems.append("unexpected metric %s" % name)
        if not valid_name(name):
            problems.append("invalid metric name %r" % name)
        if not valid_unit(m["unit"]):
            problems.append("invalid unit %r for %s" % (m["unit"], name))
        if not math.isfinite(m["value"]):
            problems.append("%s is not finite" % name)
    return problems


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    })
