#!/usr/bin/env python3
"""PartMiner benchmark: one command, three workloads, outputs checked.

  python3 perfbench/run.py --workload static-mine|update-rounds|service-mixed
                           --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
shipped binaries (partminer, partminerd) and the benchmark's probe into
.bench_build (or $CARGO_TARGET_DIR); later runs reuse it. Inputs are made
from --seed by perfbench/gen.py; scratch files go to .bench_work/.

--trace 0 prints the end-to-end metrics (setup_s, op_ms, peak_rss_mb);
--trace 1 runs the same inputs through the per-layer measurements instead
(see README.md). Every workload prints every metric of its kind. The last
line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, housekeeping left out

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import gen  # noqa: E402
import patterns  # noqa: E402

BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
WORK = ".bench_work"
NPROC = os.cpu_count() or 1
SUPPORT = 0.04

# Inputs per workload (README.md explains the sizes).
STATIC_DB = dict(d=1600, t=36, n=40, l=45, i=14, fixed_kernel_labels=True)
STATIC_GROW_ROUNDS = 4              # traced run only: daemon rounds on it
STATIC_GROW_GRAPHS = 48             # 3% of the graphs per round
UPDATE_DB = dict(d=300, t=36, n=40, l=45, i=14, reserved_noise=True,
                 fixed_kernel_labels=True)
UPDATE_GRAPHS_PER_ROUND = 9         # 3% of the graphs
UPDATE_ROUNDS_PER_SECOND = 2        # rounds = 2 x --seconds
SERVICE_DB = dict(d=120, t=16, n=40, l=24, i=5, reserved_noise=True,
                  fixed_kernel_labels=True)
SERVICE_QUERY_RATE = 300.0          # per second, over the query connections
SERVICE_UPDATE_RATE = 20.0          # per second, over the update connections
ADI_FRAMES = 16                     # pool pages; the page file is ~14x this
STATIC_SECONDS_PER_ROUND = 45
PROBE_PINGS = 200
PROBE_QUERIES = 50


def log(msg):
    sys.stderr.write("[perfbench] %s\n" % msg)
    sys.stderr.flush()


def binary(name):
    if name == "perfbench_probe":
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "repo", "tools", name)


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "perfbench_build.log")
    steps = [["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
              "partminer_cli", "partminerd", "perfbench_probe"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(build_log, "ab") as out:
        for argv in steps:
            if subprocess.call(argv, stdout=out, stderr=out) != 0:
                with open(build_log, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("build failed: %s" % " ".join(argv))


def support_count(d):
    return max(1, math.ceil(SUPPORT * d - 1e-9))


def quantile(xs, q):
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


class Result:
    def __init__(self, housekeeping_s):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.metrics = {}
        self.housekeeping_s = housekeeping_s
        self.setup_s = None

    def error(self, msg):
        self.errors.append(msg)
        log("CHECK FAILED: " + msg)

    def set_up(self):
        """Marks the end of set-up: the first call wins."""
        if self.setup_s is None:
            self.setup_s = time.perf_counter() - _T0 - self.housekeeping_s

    def end_to_end(self, op_ms, peak_rss_mb):
        self.metrics["setup_s"] = metric(self.setup_s, "s")
        self.metrics["op_ms"] = metric(op_ms, "ms")
        self.metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")


# ------------------------------------------------------------ static-mine

def static_mine(args, work, res):
    db = gen.generate(STATIC_DB, args.seed)
    db_path = os.path.join(work, "db.lg")
    gen.write_gspan(db.graphs, db_path)
    sup = support_count(STATIC_DB["d"])
    if args.trace:
        probe_layers(args, work, res, db_path, sup)
        # The incremental and service layers, on the same database: rounds
        # that add vertices and edges with labels of their own, which no
        # frequent support can notice (gen.EditStream.grow).
        stream = gen.EditStream(db, args.seed)
        rng = random.Random(args.seed * 31 + 7)
        batches = [
            [e for g in rng.sample(range(STATIC_DB["d"]), STATIC_GROW_GRAPHS)
             for e in stream.grow(g)]
            for _ in range(STATIC_GROW_ROUNDS)]
        stdio_session(args, work, res, stream, db_path, sup, batches)
        return

    mine = [binary("partminer"), "mine", "--input=" + db_path,
            "--support=%d" % sup]
    runs = {
        "partminer": mine + ["--algo=partminer"],
        "partminer_par": mine + ["--algo=partminer",
                                 "--threads=%d" % NPROC],
        "gspan": mine + ["--algo=gspan"],
        "adi": [binary("perfbench_probe"), "adi", "--input=" + db_path,
                "--support=%d" % sup, "--frames=%d" % ADI_FRAMES,
                "--page-file=" + os.path.join(work, "adi.pages")],
    }
    times = {k: [] for k in runs}
    rss = {k: [] for k in runs}
    outputs = []

    def run_one(name, out):
        res.attempted += 1
        code, wall, peak = client.run_timed(runs[name] + ["--output=" + out],
                                            os.path.join(work, "mine.log"))
        if code != 0:
            res.failed += 1
            log("%s exited %d" % (name, code))
            return None
        outputs.append((name, out))
        rss[name].append(peak)
        return wall

    # Set-up ends with one cold gSpan run, which loads the binary and the
    # database into the page cache before anything is timed; its output is
    # checked with the others.
    run_one("gspan", os.path.join(work, "warmup.lg"))
    res.set_up()

    # PartMiner runs twice each way and the one-second miners five times,
    # interleaved so that a slow spell of the machine touches few runs of
    # any one command; each command's time is the median of its runs.
    short = ["gspan", "adi"]
    order = (short + ["partminer"] + short + ["partminer_par"] + short +
             ["partminer"] + short + ["partminer_par"] + short)
    rounds = max(1, round(args.seconds / STATIC_SECONDS_PER_ROUND))
    for r in range(rounds):
        for name in order:
            wall = run_one(name, os.path.join(
                work, "%s_%d_%d.lg" % (name, r, len(times[name]))))
            if wall is not None:
                times[name].append(wall)
    if any(not v for v in times.values()):
        return
    per_command = {name: median(ts) for name, ts in times.items()}
    log("median seconds, peak MB per command: " + ", ".join(
        "%s %.3f %.0f" % (name, t, max(rss[name]))
        for name, t in per_command.items()))
    res.end_to_end(sum(per_command.values()) * 1e3,
                   max(max(v) for v in rss.values()))

    for e in static_check(db_path, outputs, sup, args.seed):
        res.error(e)


def static_check(db_path, outputs, sup, seed, sample=24):
    """Every command printed the same pattern set, and the first one
    passes the benchmark's own checks against the database."""
    errors = []
    with open(outputs[0][1], "rb") as f:
        reference = f.read()
    ref_patterns = patterns.read_patterns(outputs[0][1])
    for name, path in outputs[1:]:
        with open(path, "rb") as f:
            if f.read() != reference:
                errors += patterns.same_sets(
                    patterns.read_patterns(path), ref_patterns,
                    "%s vs %s" % (name, outputs[0][0]))
    errors += patterns.check_mined(patterns.read_database(db_path),
                                   ref_patterns, sup, seed, sample)
    return errors


def probe_layers(args, work, res, db_path, sup):
    """The static layers, timed by the probe on the workload's starting
    database; the serial PartMiner result it writes goes through the same
    checks as a timed run's output. The probe is not counted in
    `attempted`, so a traced run fails the same share of its operations
    as an untraced one."""
    out = os.path.join(work, "probe_patterns.lg")
    argv = [binary("perfbench_probe"), "layers", "--input=" + db_path,
            "--support=%d" % sup, "--threads=%d" % NPROC,
            "--frames=%d" % ADI_FRAMES,
            "--page-file=" + os.path.join(work, "probe.pages"),
            "--output=" + out]
    with open(os.path.join(work, "probe.log"), "ab") as log_file:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=log_file)
    if proc.returncode != 0:
        res.error("perfbench_probe layers exited %d" % proc.returncode)
        return
    values = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    for name, value in values.items():
        res.metrics[name] = metric(value, LAYER_UNITS.get(name, "count"))
    for e in static_check(db_path, [("probe", out)], sup, args.seed):
        res.error(e)


# ---------------------------------------------------------- update-rounds

def update_rounds(args, work, res):
    db = gen.generate(UPDATE_DB, args.seed)
    db_path = os.path.join(work, "db.lg")
    gen.write_gspan(db.graphs, db_path)
    stream = gen.EditStream(db, args.seed)
    rng = random.Random(args.seed * 31 + 7)
    batches = []
    for _ in range(UPDATE_ROUNDS_PER_SECOND * args.seconds):
        edits = []
        for g in rng.sample(range(UPDATE_DB["d"]), UPDATE_GRAPHS_PER_ROUND):
            edits += stream.renoise(g)
        batches.append(edits)
    sup = support_count(UPDATE_DB["d"])
    if args.trace:
        probe_layers(args, work, res, db_path, sup)
    walls, rss = stdio_session(args, work, res, stream, db_path, sup, batches)
    replay_threshold_crossings(work, res)
    if not args.trace and walls:
        log("rounds took %.3f s in all; ms per round: %s" % (
            sum(walls), " ".join("%.0f" % (w * 1e3) for w in walls)))
        res.end_to_end(median(walls) * 1e3, rss)


def stdio_session(args, work, res, stream, db_path, sup, batches):
    """Sends each batch as one `update` with wait:true to `partminerd
    --stdio` and checks the daemon's final resident set against a
    from-scratch mine of the stream's own copy of the database. Traced, it
    also reads the incremental and service layers from the daemon's
    registry. Returns (round wall times, daemon peak RSS in MB)."""
    daemon = client.Daemon(
        [binary("partminerd"), "--input=" + db_path, "--support=%d" % sup,
         "--stdio", "--queue-cap=1000000"],
        os.path.join(work, "daemon.log"), stdio=True)
    walls = []
    try:
        conn = client.StdioConn(daemon)
        if not conn.call({"cmd": "ping"}).get("ok"):
            raise RuntimeError("ping failed")
        res.set_up()
        before = registry(conn) if args.trace else None
        merge_per_round = []
        remined = 0
        for r, edits in enumerate(batches):
            res.attempted += 1
            start = time.perf_counter()
            reply = conn.call({"cmd": "update", "id": r, "edits": edits,
                               "wait": True})
            walls.append(time.perf_counter() - start)
            if args.trace:
                merge_per_round.append(
                    histogram_sum(conn, "partminer.phase.merge_ms"))
            result = reply.get("result", {})
            if (not reply.get("ok") or reply.get("id") != r or
                    result.get("applied") != len(edits) or
                    result.get("rejected") != 0):
                res.failed += 1
                log("round %d not fully applied: %s" % (r, reply))
                continue
            remined += result.get("remined_units", 0)
        if args.trace:
            res.metrics.update(service_layers(conn, before, remined))
            log_merge_climb([before[0].get("partminer.phase.merge_ms", {})
                             .get("sum", 0.0)] + merge_per_round)
        resident = query_all(conn)
        conn.call({"cmd": "shutdown"})
    finally:
        code, rss = daemon.reap()
    if code != 0:
        res.error("partminerd exited %d" % code)
    errors = []
    check_resident(work, stream.db.graphs, resident, sup, errors)
    for e in errors:
        res.error(e)
    return walls, rss


def histogram_sum(conn, name):
    return registry(conn)[0].get(name, {}).get("sum", 0.0)


def log_merge_climb(cumulative):
    """Logs inc.merge_ms per round and the median of the last third of the
    rounds over that of the first third: a climb on a stationary stream
    is the program's, not the database's."""
    merge = [b - a for a, b in zip(cumulative, cumulative[1:])]
    if not merge:
        return
    third = max(1, len(merge) // 3)
    log("inc.merge_ms per round: " + " ".join("%.0f" % m for m in merge))
    log("inc.merge_ms last third over first third: %.2f" % (
        median(merge[-third:]) / max(1e-9, median(merge[:third]))))


# A fixed stream (independent of --seed) of kernel replants that moves
# patterns below the support threshold and back: IncPartMiner loses the
# returning patterns, so this operation fails on every run and is counted
# in `failed` (see CHANGES.md). It is timed by nothing.
REPLAY_DB = dict(d=200, t=20, n=40, l=30, i=6, reserved_noise=True)
REPLAY_DB_SEED = 2
REPLAY_ROUNDS = 40
REPLAY_GRAPHS_PER_ROUND = 4


def replay_threshold_crossings(work, res):
    db = gen.generate(REPLAY_DB, REPLAY_DB_SEED)
    db_path = os.path.join(work, "replay.lg")
    gen.write_gspan(db.graphs, db_path)
    stream = gen.EditStream(db, REPLAY_DB_SEED)
    rng = random.Random(REPLAY_DB_SEED * 131 + 3)
    sup = support_count(REPLAY_DB["d"])
    res.attempted += 1
    daemon = client.Daemon(
        [binary("partminerd"), "--input=" + db_path, "--support=%d" % sup,
         "--stdio", "--queue-cap=1000000"],
        os.path.join(work, "replay.log"), stdio=True)
    try:
        conn = client.StdioConn(daemon)
        for r in range(REPLAY_ROUNDS):
            edits = []
            for g in rng.sample(range(REPLAY_DB["d"]),
                                REPLAY_GRAPHS_PER_ROUND):
                edits += stream.replant(g)
            reply = conn.call({"cmd": "update", "id": r, "edits": edits,
                               "wait": True})
            if not reply.get("ok") or \
                    reply["result"].get("applied") != len(edits):
                res.error("replay round %d not applied: %s" % (r, reply))
        resident = query_all(conn)
        conn.call({"cmd": "shutdown"})
    finally:
        daemon.reap()
    errors = []
    check_resident(work, stream.db.graphs, resident, sup, errors, "replay")
    if errors:
        res.failed += 1
        log("replay of threshold crossings: %s" % "; ".join(errors))


def query_all(conn):
    reply = conn.call({"cmd": "query", "limit": -1})
    if not reply.get("ok"):
        raise RuntimeError("query failed: %s" % reply)
    return reply["result"]


def check_resident(work, graphs, resident, sup, errors, name="final"):
    """The daemon's resident set equals a from-scratch gSpan mine of the
    database the benchmark built by applying the same edits itself. Appends
    what differs to `errors`."""
    final_path = os.path.join(work, name + ".db.lg")
    gen.write_gspan(graphs, final_path)
    out = os.path.join(work, name + "_patterns.lg")
    code, _, _ = client.run_timed(
        [binary("partminer"), "mine", "--input=" + final_path,
         "--support=%d" % sup, "--algo=gspan", "--output=" + out],
        os.path.join(work, "mine.log"))
    if code != 0:
        errors.append("from-scratch mine exited %d" % code)
        return
    want = patterns.read_patterns(out)
    got = [patterns.pattern_from_code(p["code"], p["support"])
           for p in resident["patterns"]]
    if resident["count"] != len(got):
        errors.append("query count %d but %d patterns listed" % (
            resident["count"], len(got)))
    errors += patterns.same_sets(got, want, "resident vs from-scratch")


# ---------------------------------------------------------- service-mixed

def service_mixed(args, work, res):
    db = gen.generate(SERVICE_DB, args.seed)
    db_path = os.path.join(work, "db.lg")
    gen.write_gspan(db.graphs, db_path)
    stream = gen.EditStream(db, args.seed)
    rng = random.Random(args.seed * 131 + 3)
    sup = support_count(SERVICE_DB["d"])
    conns = max(2, min(4, NPROC))
    n_upd = conns // 2
    n_qry = conns - n_upd
    duration = float(args.seconds)

    # The whole schedule is made before the daemon starts: (due time,
    # connection, request). Update connection c owns the graphs g with
    # g % n_upd == c, so the final database does not depend on how the
    # daemon interleaves connections.
    schedule = []
    probes = [_probe_text(rng, g) for g in rng.sample(db.graphs, 50)]
    n_q = int(SERVICE_QUERY_RATE * duration)
    for k in range(n_q):
        kind = k % 3
        if kind == 0:
            req = {"cmd": "query"}
        elif kind == 1:
            req = {"cmd": "query", "limit": 10}
        else:
            req = {"cmd": "query", "pattern": probes[k % len(probes)]}
        req["id"] = "q%d" % k
        schedule.append((k / SERVICE_QUERY_RATE, k % n_qry, req))
    n_u = int(SERVICE_UPDATE_RATE * duration)
    owned = [[g for g in range(SERVICE_DB["d"]) if g % n_upd == c]
             for c in range(n_upd)]
    for k in range(n_u):
        c = k % n_upd
        edits = stream.renoise(rng.choice(owned[c]))
        schedule.append(((k + 0.5) / SERVICE_UPDATE_RATE, n_qry + c,
                         {"cmd": "update", "id": "u%d" % k, "edits": edits,
                          "wait": True}))
    schedule.sort(key=lambda s: s[0])
    if args.trace:
        probe_layers(args, work, res, db_path, sup)

    sock = os.path.join(work, "pm.sock")
    if os.path.exists(sock):
        os.unlink(sock)
    daemon = client.Daemon(
        [binary("partminerd"), "--input=" + db_path, "--support=%d" % sup,
         "--socket=" + sock],
        os.path.join(work, "daemon.log"), stdio=False)
    lanes = []
    try:
        ctl = client.SocketConn(sock)
        lanes.append(ctl)
        if not ctl.call({"cmd": "ping"}).get("ok"):
            raise RuntimeError("ping failed")
        res.set_up()
        before = registry(ctl) if args.trace else None
        lanes += [client.SocketConn(sock) for _ in range(conns)]
        replies, lateness = _open_loop(schedule, lanes[1:], res)
        final = ctl.call({"cmd": "sync"})
        resident = query_all(ctl)
        if args.trace:
            remined = {}
            for rid, got in replies.items():
                for _, reply, _ in got:
                    result = reply.get("result", {})
                    if "remined_units" in result:
                        remined[result.get("epoch")] = result["remined_units"]
            res.metrics.update(service_layers(ctl, before,
                                              sum(remined.values())))
        ctl.call({"cmd": "shutdown"})
    finally:
        for lane in lanes:
            lane.close()
        code, rss = daemon.reap()
    if code != 0:
        res.error("partminerd exited %d" % code)
    log("open loop ran at most %.1f ms late" % (lateness * 1e3))

    q_lat, u_lat = [], []
    epoch_digest = {}
    for due, lane, req in schedule:
        got = replies.get(req["id"], [])
        if len(got) != 1:
            res.error("request %s got %d replies" % (req["id"], len(got)))
            continue
        arrived, reply, order = got[0]
        if not reply.get("ok"):
            res.failed += 1
            continue
        result = reply["result"]
        epoch = result.get("epoch", 0)
        if "digest" in result:
            if epoch_digest.setdefault(epoch, result["digest"]) != \
                    result["digest"]:
                res.error("epoch %d carried two digests" % epoch)
        if req["cmd"] == "update":
            # The ack describes the round the batcher coalesced this update
            # into: every edit of it applied and none rejected.
            if result.get("applied", 0) < len(req["edits"]) or \
                    result.get("rejected") != 0:
                res.error("update %s not fully applied" % req["id"])
            u_lat.append(arrived - due)
        else:
            q_lat.append(arrived - due)
    # Epochs only grow along each connection's reply order.
    by_lane = {}
    for due, lane, req in schedule:
        for arrived, reply, order in replies.get(req["id"], []):
            by_lane.setdefault(lane, []).append(
                (order, reply.get("result", {}).get("epoch", 0)))
    for lane, seen in by_lane.items():
        epochs = [e for _, e in sorted(seen)]
        if any(b < a for a, b in zip(epochs, epochs[1:])):
            res.error("epochs went backwards on connection %d" % lane)
    if resident["digest"] != final["result"]["digest"]:
        res.error("sync and query disagree on the digest")
    errors = []
    check_resident(work, stream.db.graphs, resident, sup, errors)
    for e in errors:
        res.error(e)

    if q_lat and u_lat:
        log("query p50 %.2f p99 %.2f ms; visible p50 %.2f p99 %.2f ms" % (
            quantile(q_lat, 0.5) * 1e3, quantile(q_lat, 0.99) * 1e3,
            quantile(u_lat, 0.5) * 1e3, quantile(u_lat, 0.99) * 1e3))
        if not args.trace:
            res.end_to_end(quantile(q_lat + u_lat, 0.5) * 1e3, rss)


def _probe_text(rng, graph):
    """A connected 2-3 edge subgraph of `graph` in gSpan text, for
    containment queries."""
    adj = {}
    for (u, v), lab in graph.edges.items():
        adj.setdefault(u, []).append((v, lab))
        adj.setdefault(v, []).append((u, lab))
    start = rng.choice(sorted(adj))
    verts = [start]
    edges = []
    for _ in range(rng.randint(2, 3)):
        frontier = [(u, v, lab) for u in verts for v, lab in adj[u]
                    if v not in verts]
        if not frontier:
            break
        u, v, lab = rng.choice(frontier)
        verts.append(v)
        edges.append((verts.index(u), len(verts) - 1, lab))
    lines = ["t # 0"] + ["v %d %d" % (k, graph.vlabels[v])
                         for k, v in enumerate(verts)]
    lines += ["e %d %d %d" % e for e in edges]
    return "\n".join(lines) + "\n"


def _open_loop(schedule, lanes, res):
    """Sends each request when due, whatever happened to earlier ones, and
    stamps each reply's arrival. Returns ({id: [(arrival, reply, order)]},
    worst send lateness in seconds)."""
    import selectors

    sel = selectors.DefaultSelector()
    for k, lane in enumerate(lanes):
        sel.register(lane.sock, selectors.EVENT_READ, k)
    replies = {}
    pending = 0
    lateness = 0.0
    order = 0
    start = time.perf_counter() + 0.05
    nxt = 0
    deadline = None
    while nxt < len(schedule) or pending:
        now = time.perf_counter()
        while nxt < len(schedule) and start + schedule[nxt][0] <= now:
            due, lane, req = schedule[nxt]
            lateness = max(lateness, now - (start + due))
            res.attempted += 1
            lanes[lane].send(req)
            pending += 1
            nxt += 1
        if nxt == len(schedule) and deadline is None:
            deadline = now + 60.0
        if deadline is not None and now > deadline:
            res.error("%d requests never answered" % pending)
            break
        wait = (start + schedule[nxt][0] - now) if nxt < len(schedule) \
            else 0.1
        for key, _ in sel.select(timeout=max(0.0, wait)):
            arrived = time.perf_counter()
            for line in lanes[key.data].lines():
                reply = json.loads(line)
                rid = reply.get("id")
                replies.setdefault(rid, []).append(
                    (arrived - start, reply, order))
                order += 1
                pending -= 1
    sel.close()
    return replies, lateness


# ------------------------------------------------ daemon layers (traced)

def registry(conn):
    reg = conn.call({"cmd": "metrics"})["result"]["registry"]
    return reg["histograms"], reg["counters"]


def service_layers(conn, before, remined):
    """Incremental and service layers of a daemon session: registry deltas
    between the end of set-up and the end of the workload's updates, then
    PROBE_PINGS idle pings (the cost of parsing and dispatching a request)
    and PROBE_QUERIES top-10 queries. `remined` is the number of units the
    session's rounds re-mined."""
    h0, c0 = before
    h1, c1 = registry(conn)
    for _ in range(PROBE_PINGS):
        conn.call({"cmd": "ping"})
    for _ in range(PROBE_QUERIES):
        conn.call({"cmd": "query", "limit": 10})
    h2, _ = registry(conn)

    def delta(name, key, a, b):
        return b.get(name, {}).get(key, 0) - a.get(name, {}).get(key, 0)

    def mean(name, a, b):
        return delta(name, "sum", a, b) / max(1, delta(name, "count", a, b))

    batches = c1.get("service.batches_applied", 0) - \
        c0.get("service.batches_applied", 0)
    n = max(1, batches)
    route, merge, verify, phase_a = (
        delta(name, "sum", h0, h1) / n for name in (
            "partminer.phase.route_ms", "partminer.phase.merge_ms",
            "partminer.phase.verify_ms", "service.phase_a_ms"))
    out = {
        "inc.route_ms": metric(route, "ms"),
        "inc.unit_remine_ms": metric(phase_a - route - merge - verify, "ms"),
        "inc.merge_ms": metric(merge, "ms"),
        "inc.verify_ms": metric(verify, "ms"),
        "inc.remined_units": metric(remined / n, "count"),
        "service.queue_wait_ms": metric(
            mean("service.queue_wait_ms", h0, h1), "ms"),
        "service.phase_a_ms": metric(phase_a, "ms"),
        "service.batches": metric(batches, "count"),
        "service.edits_per_batch": metric(
            mean("service.batch_edits", h0, h1), "count"),
        "service.parse_ms": metric(mean("service.verb.ping_ms", h1, h2), "ms"),
        # Over the workload's own queries and the probe's.
        "service.query_ms": metric(mean("service.verb.query_ms", h0, h2),
                                   "ms"),
    }
    for name in ("delta_recounts", "spanning_found",
                 "candidates_skipped_known"):
        out["merge." + name] = metric(
            (c1.get("merge." + name, 0) - c0.get("merge." + name, 0)) / n,
            "count")
    return out


LAYER_UNITS = {
    "partition.create_ms": "ms", "miner.gspan_ms": "ms",
    "miner.unit_mine_sum_ms": "ms", "miner.unit_mine_max_ms": "ms",
    "merge.static_ms": "ms", "verify.exact_ms": "ms", "adi.build_ms": "ms",
    "adi.scan_ms": "ms", "partminer.wall_ms": "ms",
    "partminer.par_wall_ms": "ms", "canon.cache_hit_ratio": "ratio",
    "storage.hit_ratio": "ratio", "partminer.coverage": "ratio",
    "storage.pages": "pages",
}

WORKLOADS = {
    "static-mine": static_mine,
    "update-rounds": update_rounds,
    "service-mixed": service_mixed,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    # Housekeeping, which set-up leaves out: building (or checking the
    # build) and removing the files of the last run.
    housekeeping_start = time.perf_counter()
    build()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    res = Result(time.perf_counter() - housekeeping_start)
    WORKLOADS[args.workload](args, work, res)
    if not res.metrics:
        res.error("no metrics measured")
    print(json.dumps({"correct": not res.errors, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))


if __name__ == "__main__":
    main()
