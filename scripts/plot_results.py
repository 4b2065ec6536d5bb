#!/usr/bin/env python3
"""Post-process a bench_matrix CSV (scripts/run_experiments.sh writes one).

Prints the tables of each preset in the CSV (the ones EXPERIMENTS.md
quotes) to stdout and to <out>/<preset>.summary.txt. With matplotlib
installed it also draws one throughput-vs-threads PNG per preset and
family; without it (the common case in minimal containers) it still exits
0, so CI can consume the CSV end-to-end either way. A column a row does not
use holds "-" and is left out of that row's aggregates.
"""
import argparse
import csv
import os
import sys
from collections import defaultdict

NUMERIC = {
    "threads", "ops_per_txn", "u", "key_range", "zipf", "scan_frac",
    "scan_width", "ca_slots", "total_ops", "mean_ms", "sd_ms", "min_ms",
    "ops_per_sec", "abort_ratio", "commits", "aborts", "attempts_p50",
    "attempts_p99", "attempts_max", "stm_accesses", "ack_us", "host_cpus",
    "host_nodes", "host_smt",
}

# Columns every row must carry; a row without them cannot be placed in any
# table and is skipped.
REQUIRED = {"preset", "family", "impl"}


def ms(r):
    return r["min_ms"] if r.get("stat") == "min" else r["mean_ms"]


def abort_pct(r):
    ratio = r.get("abort_ratio")
    return None if ratio is None else 100 * ratio


# Cell values a table can show: name -> (function of a row, format).
VALUES = {
    "ms": (ms, "%.1f"),
    "ops/s": (lambda r: r["ops_per_sec"], None),
    "abort%": (abort_pct, "%.1f"),
    "aborts": (lambda r: r["aborts"], "%.2f"),
    "attempts p99": (lambda r: r["attempts_p99"], "%.0f"),
    "attempts max": (lambda r: r["attempts_max"], "%.0f"),
    "stm accesses": (lambda r: r["stm_accesses"], "%.0f"),
    "ack us": (lambda r: r["ack_us"], "%.1f"),
    "false conflicts": (lambda r: r["aborts"], "%.0f"),
    "pairs": (lambda r: r["total_ops"], "%.0f"),
}


def T(title, rows, col, value, where=None, split=()):
    """One table: `rows` label each row, `col`'s values head the columns,
    each cell is `value` of the matching row. `where` keeps rows whose
    column has one of the listed values; `split` prints one table per
    distinct value of those columns."""
    return dict(title=title, rows=rows, col=col, value=value,
                where=where or {}, split=split)


# The tables of each preset, in the order EXPERIMENTS.md quotes them.
TABLES = {
    "fig4-top": [
        T("ms", ["impl"], "threads", "ms", split=("u", "ops_per_txn")),
        T("abort%", ["impl"], "threads", "abort%", where={"u": ["1"]},
          split=("ops_per_txn",)),
    ],
    "pess-sweep": [
        T("ms", ["impl"], "threads", "ms", split=("u",)),
        T("abort%", ["impl"], "threads", "abort%", split=("u",)),
    ],
    "fig4-bottom": [
        T("ms", ["impl", "key_range"], "threads", "ms",
          split=("u", "ops_per_txn")),
    ],
    "combining": [
        T("ms", ["impl"], "ops_per_txn", "ms", split=("key_range",)),
        T("abort%", ["impl"], "ops_per_txn", "abort%", split=("key_range",)),
    ],
    "design-space": [
        T("ms", ["impl", "ops_per_txn"], "mode", "ms"),
        T("abort%", ["impl", "ops_per_txn"], "mode", "abort%"),
    ],
    "livelock": [
        T("aborts per run", ["ops_per_txn"], "threads", "aborts",
          split=("impl",)),
        T("ms", ["ops_per_txn"], "threads", "ms", split=("impl",)),
    ],
    "striping": [
        T("ms", ["impl"], "ca_slots", "ms", where={"impl": ["proust-eager"]}),
        T("abort%", ["impl"], "ca_slots", "abort%",
          where={"impl": ["proust-eager"]}),
        T("ms", ["impl"], "threads", "ms",
          where={"impl": ["proust-pess", "proust-pess-lazy"]},
          split=("ca_slots",)),
        T("false conflicts", ["impl"], "ca_slots", "false conflicts",
          where={"family": ["model"]}),
        T("pairs", ["impl"], "ca_slots", "pairs", where={"family": ["model"]}),
    ],
    "cm": [
        T("ops/s", ["variant"], "threads", "ops/s"),
        T("abort%", ["variant"], "threads", "abort%"),
        T("attempts p99", ["variant"], "threads", "attempts p99"),
        T("attempts max", ["variant"], "threads", "attempts max"),
    ],
    "counter": [
        T("ms", ["impl", "variant"], "threads", "ms"),
        T("stm accesses per run", ["impl", "variant"], "threads",
          "stm accesses"),
    ],
    "pqueue": [
        T("ms", ["impl"], "threads", "ms", split=("variant",)),
        T("abort%", ["impl"], "threads", "abort%", split=("variant",)),
    ],
    "range": [
        T("ms", ["impl"], "scan_width", "ms"),
        T("abort%", ["impl"], "scan_width", "abort%"),
    ],
    "false-conflicts": [
        T("aborts per trial", ["impl"], "variant", "aborts",
          where={"ca_slots": ["-", "1024"]}, split=("mode",)),
        T("aborts per trial, disjoint keys", ["impl"], "ca_slots", "aborts",
          where={"variant": ["disjoint"]}, split=("mode",)),
    ],
    "wal": [
        T("ops/s", ["variant"], "threads", "ops/s"),
        T("ack us", ["variant"], "threads", "ack us",
          where={"variant": ["strict/fsync=1", "strict/fsync=8",
                             "strict/fsync=64"]}),
    ],
    "wal-recovery": [
        T("recover ms", ["variant"], "total_ops", "ms"),
    ],
    "wal-ab": [
        T("ms", ["variant"], "threads", "ms", split=("u",)),
    ],
}


def load(path):
    """Parse the CSV, skipping malformed rows with a warning.

    A crash-interrupted sweep leaves a truncated final line (short row), and
    concurrent appends can interleave fragments (long row); both are data
    loss already — the job of the post-processor is to summarize what
    survived, not to raise halfway through. "-" (a column the row does not
    use) parses as None.
    """
    rows = []
    skipped = 0
    try:
        f = open(path, newline="")
    except OSError as e:
        print("warning: cannot read %s: %s" % (path, e), file=sys.stderr)
        return []
    with f:
        reader = csv.DictReader(f)
        if not reader.fieldnames:
            print("warning: %s is empty (no header row)" % path,
                  file=sys.stderr)
            return []
        missing = REQUIRED - set(reader.fieldnames)
        if missing:
            print("warning: %s lacks required columns: %s" %
                  (path, ", ".join(sorted(missing))), file=sys.stderr)
            return []
        for lineno, raw in enumerate(reader, start=2):
            row = {}
            bad = "extra fields" if None in raw else None
            for k, v in raw.items():
                if bad:
                    break
                if k is None:
                    continue
                if v is None:
                    bad = "truncated row"
                elif k in REQUIRED and v in ("", "-"):
                    bad = "no %s" % k
                elif k in NUMERIC and v != "-":
                    try:
                        row[k] = float(v)
                    except ValueError:
                        bad = "unparseable %s=%r" % (k, v)
                else:
                    row[k] = None if v == "-" else v
            if bad:
                skipped += 1
                print("warning: %s line %d skipped (%s)" % (path, lineno, bad),
                      file=sys.stderr)
                continue
            rows.append(row)
    if skipped:
        print("warning: skipped %d malformed row(s) in %s" % (skipped, path),
              file=sys.stderr)
    return rows


def label(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return "%g" % v
    return str(v)


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return None
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def fmt_value(v, form):
    if v is None:
        return "-"
    if form:
        return form % v
    if v >= 1e6:
        return "%.2fM" % (v / 1e6)
    if v >= 1e3:
        return "%.0fK" % (v / 1e3)
    return "%.0f" % v


def sort_key(v):
    return (0, v, "") if isinstance(v, float) else (1, 0, label(v))


def table(out, spec, rows):
    """Print one table; cells with several matching rows show the median."""
    fn, form = VALUES[spec["value"]]
    cells = defaultdict(list)
    row_labels, col_labels = [], set()
    for r in rows:
        v = fn(r)
        if v is None:
            continue
        rl = tuple(label(r.get(k)) for k in spec["rows"])
        if rl not in row_labels:
            row_labels.append(rl)
        col_labels.add(r.get(spec["col"]))
        cells[(rl, label(r.get(spec["col"])))].append(v)
    if not row_labels:
        return
    cols = sorted(col_labels, key=sort_key)
    heads = [" ".join(spec["rows"])] + [label(c) for c in cols]
    lines = [[" ".join(rl)] + [fmt_value(median(cells.get((rl, label(c)), [])),
                                         form) for c in cols]
             for rl in row_labels]
    width = max(len(x) for x in [heads[0]] + [ln[0] for ln in lines]) + 2
    out.write("%-*s" % (width, heads[0]))
    for h in heads[1:]:
        out.write("%12s" % h)
    out.write("\n")
    for ln in lines:
        out.write("%-*s" % (width, ln[0]))
        for c in ln[1:]:
            out.write("%12s" % c)
        out.write("\n")


def default_tables(rows):
    """Tables for presets without their own list (the matrix): ops/s of
    impl x threads per family, and of family x pinning policy."""
    specs = [T("ops/s, family=%s" % f, ["impl"], "threads", "ops/s",
               where={"family": [f]})
             for f in sorted({r["family"] for r in rows})]
    pins = sorted({r.get("pin") for r in rows if r.get("pin")})
    if len(pins) > 1:
        specs.append(T("ops/s by pinning", ["family", "pin"], "threads",
                       "ops/s"))
    return specs


def summarize(out, rows):
    host = rows[0]
    out.write("# bench_matrix: %d rows | host cpus=%s nodes=%s smt=%s\n"
              % (len(rows), label(host.get("host_cpus")),
                 label(host.get("host_nodes")), label(host.get("host_smt"))))
    for preset in sorted({r["preset"] for r in rows}):
        sub = [r for r in rows if r["preset"] == preset]
        for spec in TABLES.get(preset) or default_tables(sub):
            groups = defaultdict(list)
            for r in sub:
                if any(label(r.get(k)) not in vs
                       for k, vs in spec["where"].items()):
                    continue
                groups[tuple(label(r.get(k)) for k in spec["split"])].append(r)
            for key in sorted(groups):
                where = ", ".join("%s=%s" % kv
                                  for kv in zip(spec["split"], key))
                out.write("\n## %s: %s%s\n" % (preset, spec["title"],
                                               " (%s)" % where if where
                                               else ""))
                table(out, spec, groups[key])


def write_plots(plt, rows, out_dir, stem):
    for preset, family in sorted({(r["preset"], r["family"]) for r in rows}):
        sub = [r for r in rows if r["preset"] == preset and
               r["family"] == family and r.get("ops_per_sec") is not None]
        series = defaultdict(lambda: defaultdict(list))
        for r in sub:
            series[r["impl"]][r["threads"]].append(r["ops_per_sec"])
        if not series:
            continue
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for impl, by_t in sorted(series.items()):
            ts = sorted(by_t)
            ax.plot(ts, [median(by_t[t]) for t in ts], marker="o", label=impl)
        ax.set_xlabel("threads")
        ax.set_ylabel("ops/s (median over cells)")
        ax.set_title("%s: %s" % (preset, family))
        ax.set_xscale("log", base=2)
        ax.set_yscale("log")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        path = os.path.join(out_dir, "%s_%s.png" % (stem, family))
        fig.tight_layout()
        fig.savefig(path, dpi=120)
        plt.close(fig)
        print("wrote %s" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv", help="CSV written by bench_matrix")
    ap.add_argument("--out", default="results", help="output directory")
    args = ap.parse_args()

    rows = load(args.csv)
    if not rows:
        # A crash-interrupted sweep can leave nothing usable; that is the
        # sweep's failure, not the post-processor's — exit cleanly so CI
        # pipelines that tolerate partial sweeps keep their own verdict.
        print("warning: no usable data rows in %s" % args.csv,
              file=sys.stderr)
        return 0
    os.makedirs(args.out, exist_ok=True)

    stem = os.path.splitext(os.path.basename(args.csv))[0]
    path = os.path.join(args.out, stem + ".summary.txt")
    with open(path, "w") as f:
        summarize(f, rows)
    with open(path) as f:
        sys.stdout.write(f.read())
    print("wrote %s" % path)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; text summary only")
        return 0
    write_plots(plt, rows, args.out, stem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
