#!/usr/bin/env python3
"""Print the Figure 6 and Figure 7 tables of EXPERIMENTS.md from the
records of a benchmark report.

    python3 bench/tables.py [BENCH_eval.json]

Every cell shows the vectorized engine's seconds (single domain), as
recorded by

    dune exec bench/main.exe -- fig6 --json BENCH_eval.json ...

(likewise for fig7).
"""

import json
import sys


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
        if r["figure"] in ("fig6", "fig7") and r["engine"] == "vectorized"
    ]
    by_key = {}
    for r in records:
        size = r.get("sf", r.get("n1"))
        by_key[(r["figure"], r["query"], r["series"], size)] = r

    def at(figure, query, series, size):
        return cell(by_key.get((figure, query, series, size)))

    scales = sorted({r["sf"] for r in records if r["figure"] == "fig6"})
    queries = sorted(
        {r["query"] for r in records if r["figure"] == "fig6"}, key=lambda q: int(q[1:])
    )
    for i, sf in enumerate(scales):
        print("Figure 6(%s), sf = %g (seconds)\n" % ("abcd"[i], sf))
        print(
            table(
                ["query", "gen", "left", "move", "unn+"],
                [
                    [q] + [at("fig6", q, s, sf) for s in ("gen", "left", "move", "unn")]
                    for q in queries
                ],
            )
        )
        print()

    for query, series in (("q1", ("orig", "gen", "left", "move", "unn")), ("q2", ("orig", "gen", "left", "move"))):
        sizes = sorted({r["n1"] for r in records if r["figure"] == "fig7" and r["query"] == query})
        if not sizes:
            continue
        print("Figure 7, %s (seconds vs |R1|, |R2| = 1000)\n" % query)
        print(
            table(
                ["size"] + list(series),
                [[str(n)] + [at("fig7", query, s, n) for s in series] for n in sizes],
            )
        )
        print()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_eval.json")
