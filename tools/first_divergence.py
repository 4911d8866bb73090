"""Find the first event where two tssim source trees stop agreeing.

Both trees run the same scenario: an overlay, a seed and any number of
`--set key=value` settings in scenario-file syntax. Each run happens in
a fresh interpreter that imports tssim from its own DIR (a checkout's
src/). `Engine._dispatch` is wrapped from outside the package, and every
dispatched event becomes one record:

    time | kind | owner | src | chunk

`time` is the event time (repr of the float), `kind` the timer tag,
message type, session kind or "produce", `owner` the peer the event is
for (the destination of a message), `src` the sender of a message
(empty otherwise) and `chunk` the chunk it concerns: the chunk of a
message, the chunk produced, the position a viewer's tick plays, or the
chunk a viewer joins at or seeks to.
The event's sequence number is its place in the run, counted from 0.

The records are hashed in blocks. The first differing block is then
replayed in both trees, and the tool prints the first differing event,
the 20 events before it and both runs' engine counters just before it
was dispatched, with the engine's request outcomes (`outcomes.<name>`)
and its count of transfers started by departed senders where the tree
has them. The runs are seeded and single-threaded, so two builds
agree event for event until the first real change.

Run from the repository root, standard library only:

    python3 tools/first_divergence.py --src a=../old/src --src b=src \\
        --overlay tree --seed 1 --set horizon_s=86400 --set arrival_rate=0.05

Exit status: 0 when the runs agree, 1 at a divergence, 2 on bad usage
or when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

BLOCK = 4096
CONTEXT = 20


def _record(engine, payload) -> str:
    """One event as a line; the layout is the module docstring's."""
    kind = type(payload).__name__
    owner = src = chunk = ""
    tag = getattr(payload, "tag", None)
    message = getattr(payload, "message", None)
    if tag is not None:
        kind, owner = tag[0], payload.owner
        peer = engine.peers.get(owner)
        if kind == "tick" and peer is not None:
            chunk = engine.head_chunk - peer.lag
    elif message is not None:
        kind, owner, src = message[0], payload.dst, payload.src
        if len(message) > 1:
            chunk = message[1]
    elif hasattr(payload, "peer_id"):
        kind, owner = payload.kind.value, payload.peer_id
        where = payload.position if payload.target is None else payload.target
        chunk = "" if where is None else where
    elif hasattr(payload, "chunk_id"):
        kind, chunk = "produce", payload.chunk_id
    return f"{engine.now!r}|{kind}|{owner}|{src}|{chunk}"


def _counts(engine) -> dict:
    """The engine's counters, request outcomes and departed-sender starts;
    read with getattr, since an older tree lacks the last two."""
    counts = dict(engine.counters)
    for outcome, n in getattr(engine, "outcomes", {}).items():
        counts[f"outcomes.{outcome}"] = n
    starts = getattr(engine, "departed_sender_starts", None)
    if starts is not None:
        counts["departed_sender_starts"] = starts
    return counts


def trace(settings: str, block: int, dump: int | None) -> dict:
    """Run the scenario in this process, recording every dispatched event.

    Without `dump`, returns the event count and one digest per block.
    With it, returns the records of blocks dump - 1 and dump, each with
    the engine counters just before that event was dispatched.
    """
    from tssim.config import parse_config
    from tssim.engine import Engine
    from tssim.metrics import run_scenario

    config, errors = parse_config(settings)
    if errors:
        raise SystemExit("invalid scenario: " + "; ".join(errors))
    digests: list[str] = []
    current = hashlib.blake2b(digest_size=16)
    window: list[tuple[int, str, dict]] = []
    first = max(0, (dump or 0) - 1) * block
    last = ((dump or 0) + 1) * block
    count = 0
    dispatch = Engine._dispatch

    def traced(engine, payload):
        nonlocal current, count
        line = _record(engine, payload)
        if dump is None:
            current.update(line.encode())
            current.update(b"\n")
            if (count + 1) % block == 0:
                digests.append(current.hexdigest())
                current = hashlib.blake2b(digest_size=16)
        elif first <= count < last:
            window.append((count, line, _counts(engine)))
        count += 1
        dispatch(engine, payload)

    Engine._dispatch = traced
    run_scenario(config)
    if dump is not None:
        return {"events": count, "window": window}
    if count % block:
        digests.append(current.hexdigest())
    return {"events": count, "blocks": digests}


def spawn(src: str, settings: str, block: int, dump: int | None = None) -> dict:
    """`trace` in a fresh interpreter that imports tssim from `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    args = [sys.executable, os.path.abspath(__file__), "--child",
            settings, str(block), "" if dump is None else str(dump)]
    done = subprocess.run(args, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{src}: the run failed\n{done.stderr}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(done.stdout)


def _scenario(args) -> str:
    lines = [f"overlay = {args.overlay}", f"seed = {args.seed}"]
    for pair in args.set or []:
        key, _, value = pair.partition("=")
        lines.append(f"{key.strip()} = {value.strip()}")
    return "\n".join(lines) + "\n"


def compare(sources: dict[str, str], settings: str,
            block: int = BLOCK) -> tuple[bool, str]:
    """(diverged, report) for the two labelled source trees."""
    (la, a), (lb, b) = sources.items()
    runs = {la: spawn(a, settings, block), lb: spawn(b, settings, block)}
    out = [f"{label}: {sources[label]} ({run['events']} events)"
           for label, run in runs.items()]
    blocks_a, blocks_b = runs[la]["blocks"], runs[lb]["blocks"]
    differing = next((i for i, (x, y) in enumerate(zip(blocks_a, blocks_b))
                      if x != y), None)
    if differing is None:
        if runs[la]["events"] == runs[lb]["events"]:
            out.append(f"no divergence: all {runs[la]['events']} events agree")
            return False, "\n".join(out)
        # the shorter run ended on a block boundary
        differing = min(len(blocks_a), len(blocks_b))

    windows = {label: spawn(sources[label], settings, block, differing)["window"]
               for label in runs}
    wa, wb = windows[la], windows[lb]
    i = next((i for i, (x, y) in enumerate(zip(wa, wb)) if x[1] != y[1]),
             min(len(wa), len(wb)))
    seq = max(0, differing - 1) * block + i
    out.append(f"first divergence at event {seq} (in block {differing}, "
               f"{block} events a block)")
    out.append(f"the {min(CONTEXT, i)} events before it, alike in both runs:")
    for n, line, _ in wa[max(0, i - CONTEXT):i]:
        out.append(f"    {n:>9}  {line}")
    for label, window in windows.items():
        line = window[i][1] if i < len(window) else "(end of run)"
        out.append(f"{label:>4} {seq:>9}  {line}")
    out.append("engine counters just before it:")
    ca = wa[i][2] if i < len(wa) else {}
    cb = wb[i][2] if i < len(wb) else {}
    for name in sorted(set(ca) | set(cb)):
        mark = "" if ca.get(name) == cb.get(name) else "   <- differs"
        out.append(f"    {name:<24} {la} {ca.get(name)}  {lb} {cb.get(name)}{mark}")
    return True, "\n".join(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        settings, block, dump = argv[1:]
        result = trace(settings, int(block), int(dump) if dump else None)
        print(json.dumps(result))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        required=True, help="a tssim source directory; "
                        "give exactly two")
    parser.add_argument("--overlay", default="tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="a scenario setting, as in a scenario file")
    args = parser.parse_args(argv)
    if len(args.src) != 2 or any("=" not in pair for pair in args.src):
        parser.error("give two --src LABEL=DIR pairs")
    sources = dict(pair.split("=", 1) for pair in args.src)
    if len(sources) != 2:
        parser.error("the two --src labels must differ")
    diverged, report = compare(sources, _scenario(args))
    print(report)
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
