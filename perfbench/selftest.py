#!/usr/bin/env python3
"""Self-test of the benchmark's checker: it must accept a correct result
and reject one with a support changed, one with a pattern dropped, and one
with a duplicate (an isomorphic copy of a reported pattern).

  python3 perfbench/selftest.py        (from the repository root)

Builds the binaries like run.py, mines a small seeded database with gSpan
and PartMiner, and runs each mutation through the same checks a run uses:
the static-mine check (cross-command comparison plus the independent
recount) and the resident-set comparison of the daemon workloads. Exits 0
when every verdict is as expected.
"""

import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import gen  # noqa: E402
import patterns  # noqa: E402
import run  # noqa: E402

DB = dict(d=60, t=16, n=6, l=12, i=5)
SEED = 11


def write_patterns(pats, path):
    lines = []
    for k, p in enumerate(pats):
        lines.append("t # %d" % k)
        lines.append("# support %d" % p.support)
        lines += ["v %d %d" % (v, lab) for v, lab in enumerate(p.vl)]
        lines += ["e %d %d %d" % (u, v, lab)
                  for (u, v), lab in sorted(p.edges.items())]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def mutations(pats, rng):
    """(name, mutated list) for the three defects the checker must catch."""
    larger = [k for k, p in enumerate(pats) if len(p.edges) > 1]
    out = []

    k = rng.choice(larger)
    changed = list(pats)
    p = pats[k]
    changed[k] = patterns.Pattern(p.vl, p.edges, p.support + 1)
    out.append(("support changed", changed))

    # Drop a pattern that some reported pattern extends by one edge, so the
    # sub-pattern check has something to find.
    buckets = patterns.index_by_key(pats)
    droppable = []
    for p in pats:
        for e in p.edges:
            sub = patterns._drop_edge(p, e)
            q = sub and patterns.lookup(buckets, sub)
            if q is not None:
                droppable.append(q)
    victim = rng.choice(droppable)
    out.append(("pattern dropped", [p for p in pats if p is not victim]))

    p = pats[rng.choice(larger)]
    perm = list(range(len(p.vl)))
    rng.shuffle(perm)
    copy = patterns.Pattern(
        [p.vl[perm.index(v)] for v in range(len(p.vl))],
        {(min(perm[u], perm[v]), max(perm[u], perm[v])): lab
         for (u, v), lab in p.edges.items()}, p.support)
    out.append(("duplicate pattern", pats + [copy]))
    return out


def main():
    run.build()
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    db = gen.generate(DB, SEED)
    db_path = os.path.join(work, "db.lg")
    gen.write_gspan(db.graphs, db_path)
    sup = run.support_count(DB["d"] * 2)  # 8% of the graphs
    outputs = []
    for algo in ("gspan", "partminer"):
        out = os.path.join(work, algo + ".lg")
        code, _, _ = client.run_timed(
            [run.binary("partminer"), "mine", "--input=" + db_path,
             "--support=%d" % sup, "--algo=" + algo, "--output=" + out],
            os.path.join(work, "mine.log"))
        if code != 0:
            sys.exit("partminer --algo=%s exited %d" % (algo, code))
        outputs.append((algo, out))
    good = patterns.read_patterns(outputs[1][1])
    everything = len(good)
    verdicts = []

    def expect(name, errors, reject):
        ok = bool(errors) == reject
        verdicts.append(ok)
        print("%-4s %-58s %s" % ("ok" if ok else "FAIL", name,
                                 errors[0] if errors else "accepted"))

    expect("correct result, static check",
           run.static_check(db_path, outputs, sup, SEED, everything), False)
    expect("correct result, resident comparison",
           patterns.same_sets(good, good, "resident"), False)

    rng = random.Random(SEED)
    for name, mutated in mutations(good, rng):
        path = os.path.join(work, "mutated.lg")
        write_patterns(mutated, path)
        mutated = patterns.read_patterns(path)
        expect(name + ": static check, mutated file second",
               run.static_check(db_path, [outputs[0], ("mutated", path)],
                                sup, SEED), True)
        expect(name + ": static check, mutated file first",
               run.static_check(db_path, [("mutated", path), outputs[0]],
                                sup, SEED), True)
        expect(name + ": independent recount alone",
               patterns.check_mined(patterns.read_database(db_path), mutated,
                                    sup, SEED, everything), True)
        expect(name + ": resident comparison",
               patterns.same_sets(mutated, good, "resident"), True)
    print("%d of %d verdicts as expected" % (sum(verdicts), len(verdicts)))
    sys.exit(0 if all(verdicts) else 1)


if __name__ == "__main__":
    main()
