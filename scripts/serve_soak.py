#!/usr/bin/env python3
"""Soak client for `claire-cli serve --listen <unix-socket>`.

Drives a resident server with mixed hostile traffic — well-formed
customs/assigns/what-ifs, malformed lines, oversized pipelined bursts
that overflow the admission queue, and zero-budget deadlines — while a
seeded serve-layer fault plan drops connections and cuts slow readers
on the server side.

The client tolerates connection-level failures (they are the drill),
but holds the wire to the contract:

  * every received line is JSON, and is either ok:true or a typed
    error with a documented exit code (2..=14);
  * the queue-overflow burst earns at least one code-13 shed;
  * a zero deadline earns at least one code-14 expiry;
  * a malformed line earns at least one code-2 parse error;
  * every ok:true answer for the same pinned request is bit-identical
    (load shedding and faults never contaminate completed work; the
    serve-assigned trace_id is the one legitimately varying field);
  * in-band {"op":"stats"} probes interleaved with the hostile
    traffic are answered mid-serve, their counters never move
    backwards between probes, their quantile summaries stay ordered
    (p50 <= p90 <= p99 <= max), and their window rates are present.

Every line sent and received is appended to a JSONL transcript so a
failing soak can be replayed from the artifact.

Usage: serve_soak.py <socket-path> <transcript-path>
       serve_soak.py --validate-events <event-log.jsonl>

The second form validates a `--event-log` file after the server has
drained: every line must parse as one lifecycle event with the schema
fields, and per trace id the stages must advance in lifecycle order
(received -> admitted|shed -> dispatched -> evaluating ->
answered|errored) with exactly one terminal event carrying an outcome
code. Events dropped under pressure are counted by the server
(serve.events_dropped), so a hole in a trace is tolerated — an
out-of-order or duplicated transition is not.
"""

import json
import socket
import sys
import time

TYPED_ERROR_CODES = set(range(2, 15))
MODELS = ["Alexnet", "Resnet18", "VGG16", "Mobilenetv2", "SWIN-T", "BERT-base"]
MALFORMED = [
    "this is not json",
    '{"id":9000,"op":"custom"}',
    '{"id":9001,"op":"teleport","model":"Alexnet"}',
    '{"id":9002,"op":"custom","model":"NoSuchNet"}',
    '{"id":9003,"op":"custom","model":"Alexnet","deadline_ms":-1}',
    '[1,2,3]',
]
# The pinned request: repeated verbatim all soak long, every ok answer
# must be bit-identical.
PINNED = {"op": "custom", "model": "Alexnet"}

MIN_REQUESTS = 200
MAX_ROUNDS = 8
BURST_SIZE = 150


class Stats:
    def __init__(self):
        self.sent = 0
        self.received = 0
        self.ok = 0
        self.dropped_connections = 0
        self.error_codes = {}
        self.pinned_results = set()
        self.violations = []
        self.stats_probes = 0
        self.last_counters = None


def connect(path, timeout=30.0):
    deadline = time.time() + 30.0
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            sock.settimeout(timeout)
            return sock
        except OSError:
            sock.close()
            if time.time() > deadline:
                raise
            time.sleep(0.2)


def check_reply(raw, stats):
    try:
        reply = json.loads(raw)
    except json.JSONDecodeError:
        stats.violations.append(f"non-JSON line on the wire: {raw!r}")
        return
    if not isinstance(reply, dict):
        stats.violations.append(f"non-object reply: {raw!r}")
        return
    if reply.get("ok") is True:
        stats.ok += 1
        model = (reply.get("result") or {}).get("model")
        if reply.get("op") == "custom" and model == "Alexnet":
            # id and the serve-assigned trace_id legitimately vary per
            # request; everything else must be bit-identical.
            body = {k: v for k, v in reply.items() if k not in ("id", "trace_id")}
            stats.pinned_results.add(json.dumps(body, sort_keys=True))
        return
    code = reply.get("error", {}).get("code")
    if code not in TYPED_ERROR_CODES:
        stats.violations.append(f"untyped error on the wire: {raw!r}")
        return
    stats.error_codes[code] = stats.error_codes.get(code, 0) + 1


def run_connection(path, lines, transcript, stats):
    """Pipeline `lines`, then read replies until all answered or the
    server ends the connection (the seeded drill does, on purpose)."""
    sock = connect(path)
    try:
        for line in lines:
            transcript.write(json.dumps({"dir": "send", "line": line}) + "\n")
        stats.sent += len(lines)
        try:
            sock.sendall("".join(line + "\n" for line in lines).encode())
        except OSError:
            stats.dropped_connections += 1
        buf = b""
        answered = 0
        while answered < len(lines):
            try:
                chunk = sock.recv(65536)
            except OSError:
                stats.dropped_connections += 1
                return
            if not chunk:
                stats.dropped_connections += 1
                return
            buf += chunk
            while b"\n" in buf:
                raw, buf = buf.split(b"\n", 1)
                raw = raw.decode(errors="replace").strip()
                if not raw:
                    continue
                transcript.write(json.dumps({"dir": "recv", "line": raw}) + "\n")
                stats.received += 1
                check_reply(raw, stats)
                answered += 1
    finally:
        sock.close()


def stats_probe(path, transcript, stats, probe_no):
    """One in-band {"op":"stats"} round trip: answered mid-serve, with
    monotone counters, ordered quantiles, and present window rates.
    A dropped connection is the drill, not a failure."""
    line = json.dumps({"id": f"probe-{probe_no}", "op": "stats"})
    transcript.write(json.dumps({"dir": "send", "line": line}) + "\n")
    stats.sent += 1
    try:
        sock = connect(path)
    except OSError:
        stats.dropped_connections += 1
        return
    try:
        sock.sendall((line + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                stats.dropped_connections += 1
                return
            buf += chunk
    except OSError:
        stats.dropped_connections += 1
        return
    finally:
        sock.close()
    raw = buf.split(b"\n", 1)[0].decode(errors="replace").strip()
    transcript.write(json.dumps({"dir": "recv", "line": raw}) + "\n")
    stats.received += 1
    try:
        reply = json.loads(raw)
    except json.JSONDecodeError:
        stats.violations.append(f"stats probe answered non-JSON: {raw!r}")
        return
    if reply.get("ok") is not True or not isinstance(reply.get("stats"), dict):
        stats.violations.append(f"stats probe not answered ok: {raw!r}")
        return
    snapshot = reply["stats"]
    counters = snapshot.get("counters")
    if not isinstance(counters, dict) or "serve.requests" not in counters:
        stats.violations.append(f"stats probe missing counters: {raw!r}")
        return
    if stats.last_counters is not None:
        for name, before in stats.last_counters.items():
            after = counters.get(name)
            if not isinstance(after, int) or after < before:
                stats.violations.append(
                    f"counter {name} moved backwards: {before} -> {after}"
                )
    stats.last_counters = counters
    for family in ("queue_wait_us", "latency_us"):
        q = (snapshot.get("quantiles") or {}).get(family)
        if not isinstance(q, dict):
            stats.violations.append(f"stats probe missing quantiles.{family}")
            continue
        if q.get("count", 0) > 0 and not (
            q["p50"] <= q["p90"] <= q["p99"] <= q["max"]
        ):
            stats.violations.append(f"quantiles.{family} out of order: {q}")
    for family in ("requests", "sheds", "deadline_expiries"):
        rate = (snapshot.get("rates") or {}).get(family)
        if not isinstance(rate, dict) or "total" not in rate:
            stats.violations.append(f"stats probe missing rates.{family}")
    stats.stats_probes += 1


def mixed_lines(round_no):
    """One connection's worth of mixed well-formed traffic, with a
    zero-deadline request and the pinned bit-identity probe woven in.
    The zero-deadline request goes first: the pipelined lines behind it
    overflow the small admission queue, and a shed request never
    reaches the deadline triage."""
    lines = [
        json.dumps(
            {
                "id": round_no * 1000 + 900,
                "op": "custom",
                "model": "Alexnet",
                "deadline_ms": 0,
            }
        )
    ]
    for i, model in enumerate(MODELS):
        rid = round_no * 1000 + i * 10
        lines.append(json.dumps({"id": rid, "op": "custom", "model": model}))
        lines.append(json.dumps({"id": rid + 1, "op": "assign", "model": model}))
        lines.append(
            json.dumps(
                {
                    "id": rid + 2,
                    "op": "what_if",
                    "model": model,
                    "constraints": {"chiplet_area_limit_mm2": 0.5},
                }
            )
        )
    lines.append(json.dumps(dict(PINNED, id=round_no * 1000 + 901)))
    return lines


def burst_lines(round_no):
    """An oversized pipelined burst: far more requests than the
    admission queue holds, written in one sendall."""
    return [
        json.dumps({"id": round_no * 1000000 + i, "op": "assign", "model": "Alexnet"})
        for i in range(BURST_SIZE)
    ]


def quotas_met(stats):
    return (
        stats.sent >= MIN_REQUESTS
        and stats.ok >= 10
        and stats.error_codes.get(2, 0) >= 1
        and stats.error_codes.get(13, 0) >= 1
        and stats.error_codes.get(14, 0) >= 1
    )


# Lifecycle stage ranks: a trace's transitions must never regress.
# `shed` shares the admission rank; `answered`/`errored` share the
# terminal rank.
STAGE_RANK = {
    "received": 0,
    "admitted": 1,
    "shed": 1,
    "dispatched": 2,
    "evaluating": 3,
    "answered": 4,
    "errored": 4,
}
TERMINAL_STAGES = {"shed", "answered", "errored"}


def validate_events(path):
    """Validates a --event-log file: schema per line, lifecycle order
    and exactly one terminal outcome per trace id. Exits non-zero on
    the first class of violation found."""
    violations = []
    traces = {}
    lines = 0
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            lines += 1
            try:
                event = json.loads(raw)
            except json.JSONDecodeError:
                violations.append(f"line {lineno}: not JSON: {raw!r}")
                continue
            stage = event.get("event")
            if stage not in STAGE_RANK:
                violations.append(f"line {lineno}: unknown stage {stage!r}")
                continue
            if not isinstance(event.get("t_us"), int) or event["t_us"] < 0:
                violations.append(f"line {lineno}: bad t_us: {raw!r}")
            if not isinstance(event.get("trace"), int):
                violations.append(f"line {lineno}: bad trace id: {raw!r}")
                continue
            if not isinstance(event.get("op"), str):
                violations.append(f"line {lineno}: missing op: {raw!r}")
            if stage == "dispatched" and not isinstance(
                event.get("queue_wait_us"), int
            ):
                violations.append(f"line {lineno}: dispatch without queue wait")
            if stage in TERMINAL_STAGES and not isinstance(event.get("outcome"), int):
                violations.append(f"line {lineno}: terminal stage without outcome")
            traces.setdefault(event["trace"], []).append((lineno, stage))
    if lines == 0:
        sys.exit(f"event log {path} is empty")
    for trace, chain in sorted(traces.items()):
        ranks = [STAGE_RANK[s] for _, s in chain]
        # Drops under pressure may punch holes in a trace, but what
        # did land must advance: never a regression, never a repeat.
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            violations.append(
                f"trace {trace}: stages regress or repeat: "
                f"{[s for _, s in chain]} (lines {[n for n, _ in chain]})"
            )
        terminals = [s for _, s in chain if s in TERMINAL_STAGES]
        if len(terminals) > 1:
            violations.append(f"trace {trace}: {len(terminals)} terminal events")
    for violation in violations[:20]:
        print(f"EVENT-LOG VIOLATION: {violation}", file=sys.stderr)
    if violations:
        sys.exit(f"{len(violations)} event-log violations in {path}")
    print(
        f"event log OK: {lines} lifecycle events across {len(traces)} traces, "
        "stages ordered, one terminal outcome per trace"
    )


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--validate-events":
        validate_events(sys.argv[2])
        return
    if len(sys.argv) != 3:
        sys.exit(
            "usage: serve_soak.py <socket-path> <transcript-path> | "
            "--validate-events <event-log.jsonl>"
        )
    sock_path, transcript_path = sys.argv[1], sys.argv[2]
    stats = Stats()
    with open(transcript_path, "w") as transcript:
        for round_no in range(1, MAX_ROUNDS + 1):
            stats_probe(sock_path, transcript, stats, round_no * 2 - 1)
            run_connection(sock_path, mixed_lines(round_no), transcript, stats)
            run_connection(sock_path, MALFORMED, transcript, stats)
            # A probe between the hostile rounds: answered while burst
            # work is still queued and in flight.
            stats_probe(sock_path, transcript, stats, round_no * 2)
            run_connection(sock_path, burst_lines(round_no), transcript, stats)
            if round_no >= 2 and quotas_met(stats):
                break

    print(
        f"soak: sent {stats.sent}, received {stats.received}, ok {stats.ok}, "
        f"dropped connections {stats.dropped_connections}, "
        f"stats probes {stats.stats_probes}, "
        f"error codes {dict(sorted(stats.error_codes.items()))}"
    )
    for violation in stats.violations[:20]:
        print(f"WIRE VIOLATION: {violation}", file=sys.stderr)
    if stats.violations:
        sys.exit(f"{len(stats.violations)} wire violations (typed errors only)")
    if stats.sent < MIN_REQUESTS:
        sys.exit(f"soak too small: sent {stats.sent} < {MIN_REQUESTS}")
    if stats.ok < 10:
        sys.exit(f"too few successes: {stats.ok}")
    for code, label in [(2, "parse"), (13, "shed"), (14, "deadline")]:
        if stats.error_codes.get(code, 0) < 1:
            sys.exit(f"no code-{code} ({label}) answer observed")
    if len(stats.pinned_results) > 1:
        sys.exit(
            f"pinned request returned {len(stats.pinned_results)} distinct "
            "bodies — completed answers are not bit-identical under load"
        )
    if not stats.pinned_results:
        sys.exit("pinned request never completed — no bit-identity evidence")
    if stats.stats_probes < 2:
        sys.exit(
            f"only {stats.stats_probes} stats probes answered — "
            "no monotonicity evidence"
        )
    print(
        "soak OK: typed errors only, pinned answers bit-identical, "
        "stats probes monotone"
    )


if __name__ == "__main__":
    main()
