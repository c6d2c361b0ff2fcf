#!/usr/bin/env python3
"""Multi-process localhost harness for byzcastd (DESIGN.md §13, §14).

Runs the same broadcast scenario twice:

  1. `byzcastd --transport=sim` — one process, whole fleet on the DES,
     emitting the *predicted* per-node delivery sets; then
  2. n `byzcastd --transport=udp` daemons on loopback ports, each
     emitting its *observed* delivery set.

and asserts the merged observed sets equal the prediction exactly.
This is the end-to-end proof that the net::Transport/net::Env port
did not change protocol behaviour: same binary, same keys, same
workload — only the backend differs.

Chaos mode layers a message adversary and a process crash on top and
asserts the *same* convergence: --loss/--dup/--reorder/--corrupt
configure every daemon's transport impairment, and --kill-node SIGKILLs
one daemon mid-run, respawning it later with --catchup so range-sync
pulls the backlog. The DES prediction stays ideal-channel: it is the
convergence target the impaired live fleet must still reach. With
--report-dir the per-daemon "byzcast-run-report/v1" files are checked
for nonzero impairment / recovery counters.

Exit status 0 on match; 1 with a per-node diff otherwise.

Usage:
  live_harness.py --byzcastd build/examples/byzcastd [--n 8] [--bcasts 5]
                  [--duration-s 10] [--base-port auto] [--report-dir DIR]
                  [--loss 0.2 --dup 0.05 --reorder 0.1 --corrupt 0.01]
                  [--range-sync --kill-node 3 --kill-after-s 5
                   --restart-after-s 9]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

# Fleet relaunch attempts when daemons die during startup (stale port
# block owned by another process, pid collision between parallel runs).
MAX_PORT_RETRIES = 3


def pick_base_port(attempt=0):
    """Pid-derived port block so parallel ctest runs don't collide; each
    retry shifts to a fresh block."""
    return 23000 + ((os.getpid() + attempt * 7919) % 1000) * 32


def load_deliveries(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "byzcast-deliveries/v1":
        raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {
        int(node): sorted(map(tuple, entries))
        for node, entries in doc["nodes"].items()
    }


def stderr_tail(path, lines=15):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            content = fh.readlines()
    except OSError:
        return "  <no stderr captured>"
    return "".join("  | " + line for line in content[-lines:]) or "  <empty>"


class Daemon:
    """One byzcastd process plus its stderr capture file."""

    def __init__(self, node, cmd, stderr_path):
        self.node = node
        self.cmd = cmd
        self.stderr_path = stderr_path
        self.killed = False
        with open(stderr_path, "ab") as log:
            self.proc = subprocess.Popen(cmd, stderr=log)

    def poll(self):
        return self.proc.poll()

    def diagnose(self):
        code = self.proc.poll()
        return (f"node {self.node} (exit {code}): {' '.join(self.cmd)}\n"
                + stderr_tail(self.stderr_path))


def launch_fleet(args, tmp, base_port, common, chaos):
    """Starts all n daemons; returns the Daemon list."""
    daemons = []
    for node in range(args.n):
        cmd = [args.byzcastd, "--transport=udp", f"--id={node}",
               f"--base-port={base_port}",
               f"--deliveries={os.path.join(tmp, f'node{node}.json')}",
               *common, *chaos]
        if node == 0:
            cmd.append("--source")
        if args.report_dir:
            cmd.append("--telemetry-ms=500")
            cmd.append(
                f"--report={os.path.join(args.report_dir, f'node{node}.report.json')}")
        if args.trace_dir:
            cmd.append(
                f"--trace-msgs={os.path.join(args.trace_dir, f'node{node}.trace.jsonl')}")
            cmd.append(
                f"--stats-out={os.path.join(args.trace_dir, f'node{node}.stats.jsonl')}")
        daemons.append(
            Daemon(node, cmd, os.path.join(tmp, f"node{node}.stderr")))
    return daemons


def startup_check(daemons, timeout_s):
    """Waits out the startup window; returns daemons that died in it."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        dead = [d for d in daemons if d.poll() is not None]
        if dead:
            return dead
        time.sleep(0.1)
    return [d for d in daemons if d.poll() is not None]


def shut_down(daemons):
    for d in daemons:
        if d.poll() is None:
            d.proc.kill()
    for d in daemons:
        d.proc.wait()


def run_fleet(args, tmp, base_port, common, chaos):
    """One full live run: launch, optional kill/respawn, wait. Returns
    (ok, failed_daemons); a startup death returns ok=False so the caller
    can retry on a fresh port block."""
    daemons = launch_fleet(args, tmp, base_port, common, chaos)
    t0 = time.monotonic()

    dead = startup_check(daemons, args.startup_timeout_s)
    if dead:
        shut_down(daemons)
        return False, dead

    if args.kill_node >= 0:
        victim = daemons[args.kill_node]
        time.sleep(max(0.0, t0 + args.kill_after_s - time.monotonic()))
        victim.proc.kill()
        victim.proc.wait()
        victim.killed = True
        print(f"chaos: SIGKILLed node {args.kill_node} at "
              f"t={time.monotonic() - t0:.1f}s", flush=True)

        if args.trace_dir:
            # The respawn truncates the victim's artifacts; set aside the
            # per-line-flushed stats prefix so the fleet timeline keeps
            # the pre-crash samples (and shows the gap). The msg trace is
            # NOT preserved: a SIGKILLed process loses it by design, and
            # the respawned daemon re-records its whole history through
            # range-sync events.
            stats_path = os.path.join(args.trace_dir,
                                      f"node{args.kill_node}.stats.jsonl")
            if os.path.exists(stats_path):
                os.replace(stats_path,
                           os.path.join(args.trace_dir,
                                        f"node{args.kill_node}.stats.pre-kill.jsonl"))

        time.sleep(max(0.0, t0 + args.restart_after_s - time.monotonic()))
        remaining = args.duration_s - (time.monotonic() - t0)
        if remaining <= 1.0:
            shut_down(daemons)
            raise SystemExit("chaos: --restart-after-s leaves no time to "
                             "catch up; raise --duration-s")
        cmd = [c for c in victim.cmd
               if not c.startswith("--duration-s=")]
        cmd.append(f"--duration-s={remaining:.2f}")
        if args.range_sync:
            cmd.append("--catchup")
        daemons[args.kill_node] = Daemon(args.kill_node, cmd,
                                         victim.stderr_path)
        print(f"chaos: respawned node {args.kill_node} at "
              f"t={time.monotonic() - t0:.1f}s for {remaining:.1f}s",
              flush=True)

    # Daemons time out on their own (--duration-s); the grace covers
    # scheduler jitter plus artifact flushing.
    deadline = t0 + args.duration_s + 30
    failures = []
    for d in daemons:
        budget = max(1.0, deadline - time.monotonic())
        try:
            code = d.proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            d.proc.kill()
            d.proc.wait()
            failures.append(d)
            continue
        if code != 0:
            failures.append(d)
    return True, failures


def check_reports(args):
    """Chaos-counter assertions over the per-daemon run reports."""
    impaired = 0
    suspects = 0
    alives = 0
    for node in range(args.n):
        path = os.path.join(args.report_dir, f"node{node}.report.json")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        net = doc["run"].get("net")
        if net is None:
            raise SystemExit(f"{path}: udp run report lacks a net section")
        imp = net["impairment"]
        impaired += (imp["dropped"] + imp["duplicated"] + imp["reordered"]
                     + imp["corrupted"] + imp["wire_corrupted"])
        suspects += net["peer_health"]["suspect_transitions"]
        alives += net["peer_health"]["alive_transitions"]
    if (args.loss or args.dup or args.reorder or args.corrupt) \
            and impaired == 0:
        raise SystemExit("chaos: impairment configured but every report "
                         "shows zero injected faults")
    if args.kill_node >= 0:
        gap = args.restart_after_s - args.kill_after_s
        if gap > args.health_silence_s and suspects == 0:
            raise SystemExit("chaos: a daemon was dead longer than the "
                             "health silence timeout but no report counts "
                             "a suspect transition")
    print(f"chaos counters: {impaired} frames impaired, "
          f"{suspects} suspect / {alives} alive transitions", flush=True)


def aggregate_stats(args, observed):
    """Folds every node's byzcast-stats/v1 stream (including pre-kill
    prefixes) into one byzcast-fleet-stats/v1 timeline and cross-checks
    the final per-node delivered counters against the delivery sets."""
    per_node = {}
    sources = []
    for name in sorted(os.listdir(args.trace_dir)):
        if ".stats." not in name or not name.endswith(".jsonl"):
            continue
        path = os.path.join(args.trace_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or lines[0].get("schema") != "byzcast-stats/v1":
            raise SystemExit(f"{path}: missing byzcast-stats/v1 anchor line")
        anchor, samples = lines[0], lines[1:]
        node = int(anchor["node"])
        sources.append(name)
        per_node.setdefault(node, []).extend(samples)

    timeline = []
    for node, samples in per_node.items():
        samples.sort(key=lambda s: s["unix_us"])
        timeline.extend(dict(s, node=node) for s in samples)
    timeline.sort(key=lambda s: s["unix_us"])

    for node in range(args.n):
        if not per_node.get(node):
            raise SystemExit(f"fleet stats: node {node} produced no samples")
        final = per_node[node][-1]
        want = len(observed.get(node, []))
        if final["delivered"] != want:
            raise SystemExit(
                f"fleet stats: node {node} final delivered counter "
                f"{final['delivered']} != {want} deliveries in its artifact")

    doc = {
        "schema": "byzcast-fleet-stats/v1",
        "n": args.n,
        "sources": sources,
        "samples_per_node": {str(n): len(s) for n, s in per_node.items()},
        "final_delivered": {str(n): per_node[n][-1]["delivered"]
                            for n in sorted(per_node)},
        "timeline": timeline,
    }
    out = os.path.join(args.trace_dir, "fleet_stats.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"fleet stats: {len(timeline)} samples from {len(sources)} "
          f"stream(s) -> {out}", flush=True)


def check_traces(args):
    """Merges the per-daemon message traces through byztrace and asserts
    every message's propagation DAG is complete across the whole fleet —
    including the range-sync catch-up path of a killed+respawned node."""
    trace_files = sorted(
        os.path.join(args.trace_dir, name)
        for name in os.listdir(args.trace_dir)
        if name.endswith(".trace.jsonl"))
    if len(trace_files) != args.n:
        raise SystemExit(f"expected {args.n} trace files, found "
                         f"{len(trace_files)}: {trace_files}")
    merged_path = os.path.join(args.trace_dir, "merged_trace.json")
    chrome_path = os.path.join(args.trace_dir, "chrome_trace.json")
    subprocess.run(
        [args.byztrace, f"--json={merged_path}", f"--chrome={chrome_path}",
         f"--expect-n={args.n}", *trace_files],
        check=True)

    with open(merged_path, "r", encoding="utf-8") as fh:
        merged = json.load(fh)
    if merged.get("schema") != "byzcast-msg-trace-merged/v1":
        raise SystemExit(f"{merged_path}: unexpected schema "
                         f"{merged.get('schema')!r}")
    summary = merged["summary"]
    if summary["complete"] != summary["messages"]:
        raise SystemExit(f"merged trace: only {summary['complete']} of "
                         f"{summary['messages']} DAGs are complete")

    if args.kill_node >= 0 and args.range_sync:
        sync_edges = [e for msg in merged["messages"] for e in msg["edges"]
                      if e["sync"]]
        if not sync_edges:
            raise SystemExit("merged trace: killed node recovered but no "
                             "range-sync catch-up edge was traced")
        wrong = [e for e in sync_edges if e["to"] != args.kill_node]
        if wrong:
            raise SystemExit(f"merged trace: sync edges into nodes that "
                             f"never crashed: {wrong}")
    with open(chrome_path, "r", encoding="utf-8") as fh:
        chrome = json.load(fh)
    if not chrome.get("traceEvents"):
        raise SystemExit(f"{chrome_path}: empty traceEvents")
    print(f"trace check: {summary['messages']} message DAG(s) complete, "
          f"{summary['hops']} hops ({summary['sync_hops']} via range-sync), "
          f"mean hop latency "
          f"{summary['hop_latency_us']['mean'] / 1000.0:.1f} ms", flush=True)
    check_node_events(args)


def load_trace_events(path):
    """The event lines of one byzcast-msg-trace/v2 file (anchor dropped)."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()][1:]


def check_node_events(args):
    """Node-scoped events end to end: every PeerHealth suspect transition
    reaches its daemon's trace as a MUTE suspicion (a = 1), survivors
    suspect the killed daemon, and the respawned one opens a range-sync
    session."""
    events = {node: load_trace_events(
        os.path.join(args.trace_dir, f"node{node}.trace.jsonl"))
        for node in range(args.n)}
    if args.report_dir:
        for node, evs in events.items():
            path = os.path.join(args.report_dir, f"node{node}.report.json")
            with open(path, "r", encoding="utf-8") as fh:
                health = json.load(fh)["run"]["net"]["peer_health"]
            traced = sum(1 for e in evs if e["kind"] == "suspect"
                         and e["a"] == 1)
            if traced < health["suspect_transitions"]:
                raise SystemExit(
                    f"node {node}: trace holds {traced} mute suspicion(s) "
                    f"but PeerHealth reports "
                    f"{health['suspect_transitions']} suspect transitions")
    if args.kill_node < 0:
        return
    accusers = [node for node, evs in events.items() if node != args.kill_node
                and any(e["kind"] == "suspect" and e["peer"] == args.kill_node
                        for e in evs)]
    gap = args.restart_after_s - args.kill_after_s
    if gap > args.health_silence_s and not accusers:
        raise SystemExit(f"trace check: no survivor's trace suspects the "
                         f"killed node {args.kill_node}")
    if args.range_sync and not any(e["kind"] == "sync_open"
                                   for e in events[args.kill_node]):
        raise SystemExit(f"trace check: respawned node {args.kill_node} "
                         f"traced no sync_open")
    print(f"node events: {len(accusers)} survivor(s) suspect killed node "
          f"{args.kill_node}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--byzcastd", required=True,
                        help="path to the byzcastd binary")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--bcasts", type=int, default=5)
    parser.add_argument("--interval-ms", type=int, default=300)
    parser.add_argument("--start-delay-s", type=float, default=2.0)
    parser.add_argument("--duration-s", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--key-seed", type=int, default=42)
    parser.add_argument("--base-port", type=int, default=0,
                        help="0 = derive from pid")
    parser.add_argument("--report-dir", default="",
                        help="also write per-node run reports here")
    parser.add_argument("--trace-dir", default="",
                        help="collect per-node message traces and stats "
                             "streams here; with --byztrace the merged "
                             "propagation DAGs are validated too")
    parser.add_argument("--byztrace", default="",
                        help="path to the byztrace binary (requires "
                             "--trace-dir)")
    parser.add_argument("--startup-timeout-s", type=float, default=2.0,
                        help="window in which an exiting daemon is treated "
                             "as a startup failure (port retry)")
    chaos = parser.add_argument_group("chaos")
    chaos.add_argument("--loss", type=float, default=0.0,
                       help="per-frame ingress drop probability")
    chaos.add_argument("--dup", type=float, default=0.0)
    chaos.add_argument("--reorder", type=float, default=0.0)
    chaos.add_argument("--corrupt", type=float, default=0.0,
                       help="egress datagram byte-flip probability")
    chaos.add_argument("--delay-ms", type=int, default=0)
    chaos.add_argument("--range-sync", action="store_true",
                       help="enable range-sync on every node (and catch-up "
                            "on the respawned one)")
    chaos.add_argument("--health-silence-s", type=float, default=5.0)
    chaos.add_argument("--kill-node", type=int, default=-1,
                       help="SIGKILL this node mid-run (-1 = no kill; "
                            "node 0 is the source and cannot be killed)")
    chaos.add_argument("--kill-after-s", type=float, default=5.0)
    chaos.add_argument("--restart-after-s", type=float, default=9.0)
    args = parser.parse_args()

    if args.kill_node == 0:
        raise SystemExit("--kill-node: node 0 is the workload source")
    if args.kill_node >= args.n:
        raise SystemExit("--kill-node: out of range")

    common = [
        f"--n={args.n}",
        f"--bcasts={args.bcasts}",
        f"--interval-ms={args.interval_ms}",
        f"--start-delay-s={args.start_delay_s}",
        f"--duration-s={args.duration_s}",
        f"--seed={args.seed}",
        f"--key-seed={args.key_seed}",
    ]
    if args.range_sync:
        common.append("--range-sync")
    chaos_flags = []
    if args.loss:
        chaos_flags.append(f"--impair-drop={args.loss}")
    if args.dup:
        chaos_flags.append(f"--impair-dup={args.dup}")
    if args.reorder:
        chaos_flags.append(f"--impair-reorder={args.reorder}")
    if args.corrupt:
        chaos_flags.append(f"--impair-corrupt={args.corrupt}")
    if args.delay_ms:
        chaos_flags.append(f"--impair-delay-ms={args.delay_ms}")
    chaos_flags.append(f"--health-silence-s={args.health_silence_s}")

    if args.byztrace and not args.trace_dir:
        raise SystemExit("--byztrace requires --trace-dir")
    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        # Stale artifacts from a previous run would corrupt the merge.
        for name in os.listdir(args.trace_dir):
            if name.endswith((".jsonl", ".json")):
                os.remove(os.path.join(args.trace_dir, name))

    with tempfile.TemporaryDirectory(prefix="byzcast-live-") as tmp:
        # 1. DES prediction (virtual time: completes immediately). Ideal
        #    channel on purpose — chaos must not change what converges.
        expect_path = os.path.join(tmp, "expect.json")
        subprocess.run(
            [args.byzcastd, "--transport=sim",
             f"--deliveries={expect_path}", *common],
            check=True)
        expected = load_deliveries(expect_path)

        # 2. Live fleet. Node 0 is the source; launch order is arbitrary
        #    (the overlay warms up during --start-delay-s). A fleet whose
        #    daemons die inside the startup window is assumed to have hit
        #    a port collision and is relaunched on a fresh block.
        for attempt in range(MAX_PORT_RETRIES):
            base_port = args.base_port or pick_base_port(attempt)
            started, failures = run_fleet(args, tmp, base_port, common,
                                          chaos_flags)
            if started:
                break
            print(f"startup failure on port block {base_port} "
                  f"(attempt {attempt + 1}/{MAX_PORT_RETRIES}):",
                  flush=True)
            for d in failures:
                print(d.diagnose(), flush=True)
            if args.base_port:  # explicit port: retrying won't help
                raise SystemExit("daemons died during startup")
        else:
            raise SystemExit(
                f"daemons died during startup {MAX_PORT_RETRIES} times")

        if failures:
            for d in failures:
                print(d.diagnose(), flush=True)
            raise SystemExit(
                f"daemons exited nonzero: {[d.node for d in failures]}")

        observed = {}
        for node in range(args.n):
            observed.update(
                load_deliveries(os.path.join(tmp, f"node{node}.json")))

    ok = True
    for node in range(args.n):
        want = expected.get(node, [])
        got = observed.get(node, [])
        if want != got:
            ok = False
            print(f"node {node}: MISMATCH\n  expected {want}\n  observed {got}")
    if not ok:
        return 1
    if args.report_dir:
        check_reports(args)
    if args.trace_dir:
        aggregate_stats(args, observed)
        if args.byztrace:
            check_traces(args)
    total = sum(len(v) for v in observed.values())
    chaos_note = ""
    if (args.loss or args.dup or args.reorder or args.corrupt
            or args.delay_ms or args.kill_node >= 0):
        chaos_note = (f" under chaos (loss={args.loss} dup={args.dup} "
                      f"reorder={args.reorder} corrupt={args.corrupt}"
                      + (f", node {args.kill_node} killed+respawned"
                         if args.kill_node >= 0 else "") + ")")
    print(f"live harness OK: {args.n} nodes, {args.bcasts} broadcasts, "
          f"{total} deliveries match the DES prediction{chaos_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
