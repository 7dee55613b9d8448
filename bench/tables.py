#!/usr/bin/env python3
"""Print the Figure 6 and Figure 7 tables of EXPERIMENTS.md from the
records of a benchmark report.

    python3 bench/tables.py [BENCH_eval.json]

Every cell shows the compiled engine's seconds, then the vectorized
engine's (single domain), as recorded by one run per engine, e.g.

    dune exec bench/main.exe -- fig6 --engine compiled --json c.json ...
    dune exec bench/main.exe -- fig6 --engine vectorized --json v.json ...

with both runs' records merged into the report (likewise for fig7),

followed by the per-cell ratio summary: the worst vectorized/compiled
ratio over cells both engines completed, and how many exceed 1.10.
"""

import json
import sys

ENGINES = ("compiled", "vectorized")


def cell(rec):
    if rec is None:
        return "-"
    status = rec["status"]
    if status == "ok":
        return "%.4f" % rec["seconds"]
    if status == "timeout":
        return rec["display"]
    return {"excluded": "excl", "error": "err"}.get(status, status)


def table(header, rows):
    out = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(out)


def main(path):
    records = [
        r
        for r in json.load(open(path))["records"]
        if r["figure"] in ("fig6", "fig7") and r["engine"] in ENGINES and r["domains"] == 1
    ]
    by_key = {}
    for r in records:
        size = r.get("sf", r.get("n1"))
        by_key[(r["figure"], r["query"], r["series"], size, r["engine"])] = r

    def pair(figure, query, series, size):
        recs = [by_key.get((figure, query, series, size, e)) for e in ENGINES]
        if all(r is None for r in recs):
            return "-"
        return " / ".join(cell(r) for r in recs)

    ratios = []
    for (figure, query, series, size, engine), r in by_key.items():
        if engine != "vectorized" or r["status"] != "ok":
            continue
        c = by_key.get((figure, query, series, size, "compiled"))
        if c is not None and c["status"] == "ok":
            ratios.append((r["seconds"] / c["seconds"], figure, query, series, size))

    scales = sorted({r["sf"] for r in records if r["figure"] == "fig6"})
    queries = sorted(
        {r["query"] for r in records if r["figure"] == "fig6"}, key=lambda q: int(q[1:])
    )
    for i, sf in enumerate(scales):
        print("Figure 6(%s), sf = %g (seconds, compiled / vectorized)\n" % ("abcd"[i], sf))
        print(
            table(
                ["query", "gen", "left", "move", "unn+"],
                [
                    [q] + [pair("fig6", q, s, sf) for s in ("gen", "left", "move", "unn")]
                    for q in queries
                ],
            )
        )
        print()

    for query, series in (("q1", ("orig", "gen", "left", "move", "unn")), ("q2", ("orig", "gen", "left", "move"))):
        sizes = sorted({r["n1"] for r in records if r["figure"] == "fig7" and r["query"] == query})
        if not sizes:
            continue
        print("Figure 7, %s (seconds vs |R1|, |R2| = 1000, compiled / vectorized)\n" % query)
        print(
            table(
                ["size"] + list(series),
                [[str(n)] + [pair("fig7", query, s, n) for s in series] for n in sizes],
            )
        )
        print()

    if ratios:
        worst = max(ratios)
        print(
            "vectorized/compiled over %d cells both engines completed: worst %.2f "
            "(%s %s %s at %g), %d above 1.10"
            % ((len(ratios),) + worst + (sum(1 for r in ratios if r[0] > 1.10),))
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_eval.json")
