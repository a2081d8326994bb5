#!/usr/bin/env python3
"""Record the reference data the benchmark checks against.

    python3 bench/record.py

Run once on the seed commit, from the root of a checkout.  Writes
bench/data/digests.json (the sha256 of every pool request's stdout) and
bench/data/verify_counts.json (the case count of every verify check for
each verify seed of the rotation).  Re-recording on a later commit would
hide a change of output, so the files are only rewritten when the request
pools change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def record_digests(cli, workloads):
    caches = run.lru_caches()
    asg_dir = os.path.join(run.OUT, "asg-record")
    run.write_assignments(workloads, asg_dir)
    with open(os.path.join(run.DATA, "pinned_z8.txt"), encoding="utf-8") as fh:
        pinned = fh.read().strip()
    digests = {}
    for name, entries in (("cli-session", workloads.cli_pool()[2]),
                          ("algebra-heavy", workloads.algebra_pool(pinned))):
        table = []
        for kind, (argv, expect, extra) in entries:
            for fn in caches:
                fn.cache_clear()
            rc, out = run.call(cli, [a.replace("{ASG}", asg_dir) for a in argv])
            if rc != expect and not extra.get("known_defect"):
                print(f"warning: {name} {kind} exited {rc!r}, expected {expect}: {argv[:6]}")
            table.append(run.sha256(out))
        digests[name] = {"fingerprint": run.pool_fingerprint(entries), "stdout_sha256": table}
        print(f"{name}: {len(table)} digests")
    run.cleanup(asg_dir)
    with open(os.path.join(run.DATA, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")


def record_verify_counts(cli, workloads):
    counts = {}
    for s in workloads.VERIFY_ROTATION:
        rc, out = run.call(cli, ["verify", "--seed", str(s), "--format", "json"])
        doc = json.loads(out)
        if rc or doc["status"] != "pass":
            raise SystemExit(f"verify --seed {s} failed on this commit")
        counts[str(s)] = {c["check"]: c["cases"] for c in doc["checks"]}
    with open(os.path.join(run.DATA, "verify_counts.json"), "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"verify: case counts for seeds {workloads.VERIFY_ROTATION}")


def main() -> int:
    cli = run.load_engine()
    sys.path.insert(0, run.HERE)
    import workloads

    record_digests(cli, workloads)
    record_verify_counts(cli, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
