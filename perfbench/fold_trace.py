#!/usr/bin/env python3
"""Fold a Chrome trace into a per-layer self-time table.

Reads only the trace file (Chrome trace_event JSON, complete "X" events, as
written by the benchmark driver or by sca::util::event_tracer) and prints,
per layer and per span name, the summed self time: a span's duration minus
the part of it that its child spans on the same thread cover.

Layers are the spans' categories, with two renames: the program's
"snapshot" category is the core.snapshot layer, and spans of category
"bench" are the benchmark's root spans, whose self time is the traced wall
time no layer span covers: the "unattributed" row.  The unattributed share
is that self time over the roots' total duration.  The tracing overhead and
the dropped-span count come from the trace's otherData, where the driver
writes them.

    python3 perfbench/fold_trace.py trace.json
"""
import argparse
import json
import sys
from collections import defaultdict

ROOT_CAT = "bench"
UNATTRIBUTED = "unattributed"
CAT_TO_LAYER = {"snapshot": "core.snapshot", ROOT_CAT: UNATTRIBUTED}


def layer_of(cat):
    return CAT_TO_LAYER.get(cat, cat)


def fold(trace):
    """Return {"layers": {layer: self_us}, "names": {name: self_us},
    "wall_us": roots' total duration, "unattributed_frac": share,
    "dropped": count, "overhead_frac": share or None, "events": n} for a
    parsed Chrome trace object."""
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    by_lane = defaultdict(list)
    for e in events:
        by_lane[e.get("tid", 0)].append(e)

    layers = defaultdict(float)
    names = defaultdict(float)
    wall = 0.0
    for lane_events in by_lane.values():
        # Parents sort before the children they contain: earlier start first,
        # longer span first on ties.
        lane_events.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
        stack = []  # [end, event, covered]
        selfs = []

        def close(entry):
            ev = entry[1]
            selfs.append((ev, max(0.0, float(ev["dur"]) - entry[2])))

        for ev in lane_events:
            start = float(ev["ts"])
            end = start + float(ev["dur"])
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[2] += max(0.0, min(end, parent[0]) - start)
            stack.append([end, ev, 0.0])
        while stack:
            close(stack.pop())

        for ev, self_us in selfs:
            layers[layer_of(ev.get("cat", ""))] += self_us
            names[ev.get("name", "")] += self_us
            if ev.get("cat") == ROOT_CAT:
                wall += float(ev["dur"])

    unattributed = layers.get(UNATTRIBUTED, 0.0)
    other = trace.get("otherData", {})
    return {
        "layers": dict(layers),
        "names": dict(names),
        "wall_us": wall,
        "unattributed_frac": unattributed / wall if wall > 0 else 0.0,
        "dropped": int(other.get("dropped", 0)),
        "overhead_frac": other.get("overhead_frac"),
        "events": len(events),
    }


def fold_file(path):
    with open(path, encoding="utf-8") as f:
        return fold(json.load(f))


def format_table(result):
    wall = result["wall_us"]
    lines = ["%-22s %12s %8s" % ("layer", "self_ms", "share")]
    for layer, us in sorted(result["layers"].items(), key=lambda kv: -kv[1]):
        share = us / wall if wall > 0 else 0.0
        lines.append("%-22s %12.3f %7.1f%%" % (layer, us / 1e3, 100.0 * share))
    lines.append("%-22s %12.3f" % ("wall (roots)", wall / 1e3))
    lines.append("(share = self time over the roots' wall time; threads without a root "
                 "span add to it, so shares can sum past 100%)")
    lines.append("trace.unattributed_frac %.4f   trace.dropped %d   events %d"
                 % (result["unattributed_frac"], result["dropped"], result["events"]))
    if result["overhead_frac"] is not None:
        lines.append("trace.overhead_frac %.4f (traced vs untraced, same process)"
                     % result["overhead_frac"])
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    args = ap.parse_args(argv)
    print(format_table(fold_file(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
