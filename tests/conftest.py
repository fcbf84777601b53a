"""Shared scenario builders and demo pins for the test suite.

Process naming: a scenario description's p_k is index k-1 here.
"""

from __future__ import annotations

import random

from mbbc.checker import CONSISTENCY, NO_DUPLICATION, VALIDITY, VIOLATED, PropertyReport
from mbbc.demos import DemoResult, adapter_choices, adapter_output
from mbbc.engine import (
    KIND_BROADCAST_CALL,
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    KIND_STATE_CORRUPTED,
    Simulation,
    Trace,
    TraceEvent,
    deliver_oracle_events,
    delivered_instances,
    encode_line,
)
from mbbc.messages import ProtocolMessage, decode_payload
from mbbc.model import FailureSchedule
from mbbc.protocol import Variant, VariantTag, state_fingerprint
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario
from monitor import monitor_verdicts

# The phase of a round that writes each kind, as the engine runs them: the
# traced kinds and the two ``mbbc-trace/6`` dropped. A trace line holds no
# phase; renders of the older layouts put it back.
KIND_PHASE = {
    "AGENT_MOVE": "ADVERSARY",
    "CURED": "ORACLE",
    "P2P_SEND": "SEND",
    "BROADCAST_CALL": "COMPUTE",
    "DELIVER_CALL": "COMPUTE",
    "STATE_CORRUPTED": "COMPUTE",
}


def ungrouped_events(events: list[TraceEvent]) -> list[TraceEvent]:
    """The events as the engine wrote them before ``mbbc-trace/7``: each
    fan-out one event per message, ``{"from", "message", "to": "ALL"}``, in
    message order (``ProtocolMessage.sort_key``), and each DELIVER_CALL one
    event per instance, ``{"by", "payload…", "source"}``, in (source,
    payload) order. A round's expanded fan-outs stand at its first fan-out,
    and its expanded DELIVER_CALLs at its first DELIVER_CALL; every other
    event is kept as it is."""
    def message_order(ev: TraceEvent):
        return ProtocolMessage.from_dict(ev.detail["message"]).sort_key()

    def instance_order(ev: TraceEvent):
        return ev.detail["source"], decode_payload(ev.detail)

    fan_outs: dict[int, list[TraceEvent]] = {}
    calls: dict[int, list[TraceEvent]] = {}
    for ev in events:
        if ev.kind == KIND_P2P_SEND and "messages" in ev.detail:
            fan_outs.setdefault(ev.round, []).extend(
                ev._replace(detail={"from": ev.detail["from"], "message": m, "to": ev.detail["to"]})
                for m in ev.detail["messages"])
        elif ev.kind == KIND_DELIVER_CALL:
            calls.setdefault(ev.round, []).extend(
                ev._replace(detail={"by": ev.detail["by"], **instance})
                for instance in ev.detail["instances"])
    out = []
    for ev in events:
        if ev.kind == KIND_P2P_SEND and "messages" in ev.detail:
            out += sorted(fan_outs.pop(ev.round, ()), key=message_order)
        elif ev.kind == KIND_DELIVER_CALL:
            out += sorted(calls.pop(ev.round, ()), key=instance_order)
        else:
            out.append(ev)
    return out


def assert_fan_out_layout(events: list[TraceEvent]) -> None:
    """Each round's fan-outs (P2P_SENDs to "ALL") in the ``mbbc-trace/7``
    layout: one per distinct list of senders, each message in one of them,
    so each (sender, message) fan-out once; each listing its messages
    strictly increasing in message order, and the events in first-message
    order."""
    by_round: dict[int, list[TraceEvent]] = {}
    for ev in events:
        if ev.kind == KIND_P2P_SEND and ev.detail["to"] == "ALL":
            by_round.setdefault(ev.round, []).append(ev)
    for r, fan_outs in by_round.items():
        senders = [tuple(ev.detail["from"]) for ev in fan_outs]
        assert len(senders) == len(set(senders)), r
        orders = [[ProtocolMessage.from_dict(m).sort_key() for m in ev.detail["messages"]]
                  for ev in fan_outs]
        assert all(keys and all(a < b for a, b in zip(keys, keys[1:])) for keys in orders), r
        assert [keys[0] for keys in orders] == sorted(keys[0] for keys in orders), r
        messages = [key for keys in orders for key in keys]
        assert len(messages) == len(set(messages)), r
        pairs = [(p, key) for sent, keys in zip(senders, orders) for p in sent for key in keys]
        assert len(pairs) == len(set(pairs)), r


def assert_deliver_call_layout(events: list[TraceEvent]) -> None:
    """Each round's DELIVER_CALLs in the ``mbbc-trace/7`` layout: one per
    distinct ``by``, its subject ``by[0]``, each listing its instances
    strictly increasing in (source, payload) order, no instance in two of
    them, so each (process, instance) delivery at most once, and the events
    in first-instance order."""
    by_round: dict[int, list[tuple[tuple[int, ...], list[tuple[int, bytes]]]]] = {}
    for ev in events:
        if ev.kind == KIND_DELIVER_CALL:
            assert ev.subject == ev.detail["by"][0]
            instances = [(i["source"], decode_payload(i)) for i in ev.detail["instances"]]
            by_round.setdefault(ev.round, []).append((tuple(ev.detail["by"]), instances))
    for r, calls in by_round.items():
        bys = [by for by, _instances in calls]
        assert len(bys) == len(set(bys)), r
        assert all(instances and all(a < b for a, b in zip(instances, instances[1:]))
                   for _by, instances in calls), r
        firsts = [instances[0] for _by, instances in calls]
        assert firsts == sorted(firsts), r
        flat = [i for _by, instances in calls for i in instances]
        assert len(flat) == len(set(flat)), r
        pairs = [(p, i) for by, instances in calls for p in by for i in instances]
        assert len(pairs) == len(set(pairs)), r


def written_digests(trace: Trace) -> dict[tuple[int, int], str]:
    """Each STATE_CORRUPTED's (process, round) to its digest, after checking
    that no (process, round) has two."""
    written = [((ev.subject, ev.round), ev.detail["state_digest"]) for ev in trace.events
               if ev.kind == KIND_STATE_CORRUPTED]
    assert len(dict(written)) == len(written)
    return dict(written)


def span_ends(schedule: FailureSchedule, digests: dict[tuple[int, int], str]
              ) -> dict[tuple[int, int], str]:
    """The entries of ``digests``, keyed by possessed (process, round), whose
    round is the last of the process's maximal faulty span within the
    horizon: the horizon, or a round after which the process is correct."""
    return {(p, r): digest for (p, r), digest in digests.items()
            if r == schedule.horizon or not schedule.is_faulty(p, r + 1)}


def assert_one_digest_per_span(trace: Trace) -> None:
    """The trace's STATE_CORRUPTED events in the ``mbbc-trace/14`` layout:
    exactly one per maximal faulty span, in the span's last round within the
    horizon, and none in any other round; its digest is that of the state
    the process holds after that round, the state its cure finds, read by
    stepping a ``Simulation`` (``possessed_digests``)."""
    schedule = trace.scenario().resolved_schedule()
    assert written_digests(trace) == span_ends(schedule, possessed_digests(trace))


def possessed_details(trace: Trace) -> dict[tuple[int, int], dict]:
    """Each possessed (process, round)'s STATE_CORRUPTED detail, in round
    and then process order: the digest of the state the process holds after
    the round, read by stepping a ``Simulation`` of the trace's config. The
    trace itself holds only each faulty span's last one."""
    sim = Simulation(trace.scenario())
    details: dict[tuple[int, int], dict] = {}
    while sim.round < sim.config.horizon:
        sim.step()
        for p in sorted(sim.schedule.faulty_set(sim.round)):
            details[p, sim.round] = {"state_digest": state_fingerprint(sim.states[p])}
    return details


def possessed_digests(trace: Trace) -> dict[tuple[int, int], str]:
    """Each possessed (process, round)'s state digest (``possessed_details``)."""
    return {key: detail["state_digest"] for key, detail in possessed_details(trace).items()}


# Where an event stands in its round: the SEND phase's events, then the
# COMPUTE phase's STATE_CORRUPTED and BROADCAST_CALL events in subject order,
# then its DELIVER_CALLs.
_ROUND_PLACE = {KIND_P2P_SEND: 0, KIND_STATE_CORRUPTED: 1, KIND_BROADCAST_CALL: 1,
                KIND_DELIVER_CALL: 2}


def every_corruption_events(trace: Trace) -> list[TraceEvent]:
    """The trace's events as the engine wrote them before ``mbbc-trace/8``:
    one STATE_CORRUPTED per possessed process per round, each with the
    detail ``possessed_details`` steps to, among its round's BROADCAST_CALL
    events, in subject order; every other event keeps its place."""
    kept = [ev for ev in trace.events if ev.kind != KIND_STATE_CORRUPTED]
    corrupted = [TraceEvent(r, KIND_STATE_CORRUPTED, p, detail)
                 for (p, r), detail in possessed_details(trace).items()]

    def place(ev: TraceEvent) -> tuple[int, int, int]:
        spot = _ROUND_PLACE[ev.kind]
        return ev.round, spot, ev.subject if spot == 1 else 0

    return sorted(kept + corrupted, key=place)


def scanned_host(schedule: FailureSchedule, agent: int, r: int) -> int | None:
    """The host of ``agent`` in round r, read from its stays: the host of the
    first segment that holds r, None when none does."""
    return next((host for host, first, last in schedule.trajectories[agent].segments
                 if first <= r <= (schedule.horizon if last is None else last)), None)


def previous_layout_events(trace: Trace) -> list[TraceEvent]:
    """The trace's events as the engine wrote them before ``mbbc-trace/6``:
    ``ungrouped_events`` of ``every_corruption_events``, with each round's
    agent moves, by agent, and cure notices, by process, before its traced
    events. The header's schedule fixes both (``scanned_host`` and
    ``deliver_oracle_events``)."""
    config = trace.scenario()
    schedule = config.resolved_schedule()
    traced: dict[int, list[TraceEvent]] = {}
    for ev in ungrouped_events(every_corruption_events(trace)):
        traced.setdefault(ev.round, []).append(ev)
    events = []
    for r in range(1, schedule.horizon + 1):
        for traj in schedule.trajectories:
            prev, now = (scanned_host(schedule, traj.agent_id, r - 1),
                         scanned_host(schedule, traj.agent_id, r))
            if prev != now:
                events.append(TraceEvent(r, "AGENT_MOVE", prev if now is None else now,
                                         {"agent": traj.agent_id, "from": prev, "to": now}))
        events += [TraceEvent(r, "CURED", p, {"faulty_since": since})
                   for p, since in deliver_oracle_events(schedule, r, config.setting.oracle)]
        events += traced.get(r, [])
    return events


def previous_layout_jsonl(trace: Trace) -> str:
    """The trace as ``mbbc-trace/5`` wrote it: its header in that format,
    with the config's seed and fingerprint, and ``previous_layout_events``."""
    header = {"fingerprint": trace.scenario().fingerprint(), "format": "mbbc-trace/5",
              "seed": trace.config["seed"], "config": trace.config}
    lines = [encode_line(header), *(encode_line(ev.to_dict()) for ev in previous_layout_events(trace))]
    return "\n".join(lines) + "\n"


def golden_correct_source(delta_s: int = 1, seed: int = 7) -> ScenarioConfig:
    """Correct source (index 0) broadcasts at round 1; one agent walks
    p2 -> p6 -> p1 -> p2 -> p6 in stays of delta_s rounds."""
    path = [1, 5, 0, 1, 5]
    segments = []
    first = 1
    for i, host in enumerate(path):
        last = first + delta_s - 1
        segments.append({"host": host, "first_round": first,
                         "last_round": None if i == len(path) - 1 else last})
        first = last + 1
    horizon = 4 * delta_s + 4
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": delta_s, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": segments}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "hello"}],
        "strategy": {"kind": "BENIGN"},
    })


def split_send_scenario(targets: list[int], seed: int = 5) -> ScenarioConfig:
    """Faulty source (index 0, possessed rounds 1-3) splits its SEND across
    ``targets``; the agent hops onto index 5 for round 4 to swallow one ABORT."""
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": 8, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 0, "first_round": 1, "last_round": 3},
            {"host": 5, "first_round": 4, "last_round": 4},
            {"host": 0, "first_round": 5, "last_round": None}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "byz"}],
        "strategy": {"kind": "SPLIT_SEND", "targets": targets},
    })


def bfa_double_cure_scenario(seed: int = 3) -> ScenarioConfig:
    """BFA_WEAK: index 5 delivers at round 4 while correct, then is cured at
    rounds 6 and 8 (k=2 cures after birth+3); index 4 hosts the agent at round
    4 and is cured at rounds 5 and 7."""
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": 8, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "BFA"},
        "variant": "BFA_WEAK",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 4, "first_round": 1, "last_round": 4},
            {"host": 5, "first_round": 5, "last_round": 5},
            {"host": 4, "first_round": 6, "last_round": 6},
            {"host": 5, "first_round": 7, "last_round": 7},
            {"host": 4, "first_round": 8, "last_round": None}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "count"}],
        "strategy": {"kind": "BENIGN"},
    })


def zero_agent_scenario(n: int = 4, horizon: int = 5, broadcasts=()) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "n": n, "f": 0, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": []},
        "broadcasts": list(broadcasts),
        "strategy": {"kind": "BENIGN"},
    })


def crash_silent(n: int, f: int, horizon: int, variant: str, oracle: str, broadcasts: list,
                 schedule: dict, delta_s: int = 1) -> ScenarioConfig:
    """A CRASH_SILENT config: faulty processes send nothing."""
    return ScenarioConfig.from_dict({
        "n": n, "f": f, "delta_s": delta_s, "delta_b": 2, "delta_c": 1, "horizon": horizon,
        "seed": 1, "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant, "schedule": schedule, "broadcasts": broadcasts,
        "strategy": {"kind": "CRASH_SILENT"},
    })


def roundrobin_crash(n: int, f: int, horizon: int, rounds, variant: str, oracle: str) -> ScenarioConfig:
    """Agents walk the ring; one broadcast per round in ``rounds`` from a process they are not on."""
    return crash_silent(n, f, horizon, variant, oracle,
                        [{"source": (b + f + i) % n, "round": b, "payload": f"m{i}"}
                         for i, b in enumerate(rounds)],
                        {"generator": "roundrobin", "params": {"offset": 0}})


def fanout_shaped() -> ScenarioConfig:
    """The shape of the benchmark's ``fanout`` inputs: FFA_FULL at n=32, f=6."""
    return roundrobin_crash(32, 6, 20, (1, 2, 3, 4, 5), "FFA_FULL", "FFA")


def weak_redelivery_shaped() -> ScenarioConfig:
    """The shape of the benchmark's ``weak_redelivery`` inputs: NFA_WEAK at n=7,
    re-delivering every round from the first birth plus 3."""
    return roundrobin_crash(7, 1, 40, tuple(range(14, 33, 2)), "NFA_WEAK", "NFA")


def random_walk_schedule(rng: random.Random, n: int, f: int, horizon: int) -> list[dict]:
    """Random legal trajectories with delta_s=1: each agent re-hosts every round."""
    out = []
    for agent in range(f):
        segments = []
        host = rng.randrange(n)
        first = 1
        for r in range(2, horizon + 1):
            if rng.random() < 0.6:
                nxt = rng.randrange(n - 1)
                nxt = nxt if nxt < host else nxt + 1
                segments.append({"host": host, "first_round": first, "last_round": r - 1})
                host, first = nxt, r
        segments.append({"host": host, "first_round": first, "last_round": None})
        out.append({"agent_id": agent, "segments": segments})
    return out


# The names ``shape_config`` builds.
SHAPES = ("bfa_weak_roundrobin", "bfa_weak_walk", "ffa_full_walk", "nfa_weak_alternating_f2",
          "nfa_weak_roundrobin", "nfa_weak_walk")


def shape_config(name: str) -> ScenarioConfig:
    """Longer scenarios than the bundled configs: re-delivery in every round,
    repeated cures, random agent walks and an f=2 attack below the bound, so
    every checker has work to do."""
    if name == "nfa_weak_alternating_f2":
        return attack_scenario(VariantTag.NFA_WEAK, 12, 2, 2, "alternating")
    variant, oracle, n, horizon, walk = {
        "nfa_weak_roundrobin": ("NFA_WEAK", "NFA", 7, 40, False),
        "bfa_weak_roundrobin": ("BFA_WEAK", "BFA", 6, 30, False),
        "nfa_weak_walk": ("NFA_WEAK", "NFA", 7, 30, True),
        "bfa_weak_walk": ("BFA_WEAK", "BFA", 6, 30, True),
        "ffa_full_walk": ("FFA_FULL", "FFA", 6, 24, True),
    }[name]
    rng = random.Random(name)
    offset = rng.randrange(n)
    rounds = range(4, horizon - 6, 3)
    if walk:
        schedule = {"trajectories": random_walk_schedule(rng, n, 1, horizon)}
        sources = [rng.randrange(n) for _ in rounds]
    else:
        schedule = {"generator": "roundrobin", "params": {"offset": offset}}
        sources = [(offset + b + 1 + (5 * i) % (n - 2)) % n for i, b in enumerate(rounds)]
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon,
        "seed": rng.randrange(1000),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": schedule,
        "broadcasts": [{"source": s, "round": b, "payload": f"m{i}"}
                       for i, (s, b) in enumerate(zip(sources, rounds))],
        "strategy": {"kind": "CRASH_SILENT"},
    })


def random_scenario(rng: random.Random) -> ScenarioConfig:
    """A random valid scenario, used by the determinism acceptance criterion."""
    n = rng.randrange(4, 9)
    f = 1
    delta_s = rng.choice([1, 2])
    horizon = rng.randrange(7, 11)
    kind = rng.choice(["BENIGN", "CRASH_SILENT", "ALTERNATING_SETS", "SPLIT_SEND"])
    if kind == "ALTERNATING_SETS":
        schedule = {"generator": "alternating",
                    "params": {"p1": [n - 2], "p2": [n - 1], "start": 2}}
        strategy = {"kind": kind, "p1": [n - 2], "p2": [n - 1]}
    else:
        schedule = {"generator": "roundrobin", "params": {"offset": rng.randrange(n)}}
        strategy = {"kind": kind}
        if kind == "SPLIT_SEND":
            strategy["targets"] = sorted(rng.sample(range(1, n), k=min(2, n - 1)))
    broadcasts = []
    if rng.random() < 0.8:
        broadcasts.append({"source": rng.randrange(n), "round": rng.randrange(1, 3),
                           "payload": f"m{rng.randrange(100)}"})
    return ScenarioConfig.from_dict({
        "n": n, "f": f, "delta_s": delta_s, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": rng.randrange(1 << 30),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": schedule,
        "broadcasts": broadcasts,
        "strategy": strategy,
    })


# Each variant's oracle and the k of its resilience bound n > k * f.
VARIANT_SETTINGS = {"FFA_FULL": ("FFA", 5), "BFA_WEAK": ("BFA", 5), "NFA_WEAK": ("NFA", 6)}


def arbitrary_config(seed: int) -> ScenarioConfig:
    """A seeded ARBITRARY script one above its variant's bound, the variant
    cycling with the seed: f of 1 or 2 agents on random walks, one or two
    broadcasts by processes correct in their round, dictated votes and
    protocol messages to every process or to random receivers (duplicates
    kept), and state overrides and wipes. Half the forged SEND, ECHO, READY
    and ABORT messages name a broadcast's own (source, round, payload), so
    they can move a real instance's quorums. Freed processes send what the
    script left in their queues, so fan-outs split into many sender lists.

    About half the scripts also split a broadcast's SEND: an agent that
    holds the source in its SEND and ECHO rounds sends the source's SEND,
    then its own ECHO, only to a strict subset of the processes correct in
    both rounds. The subset holds F or (n+F)//2 of them, so its members'
    folds read one ECHO above an ABORT or READY threshold that every other
    correct fold stays at."""
    rng = random.Random(seed)
    variant = sorted(VARIANT_SETTINGS)[seed % 3]
    oracle, factor = VARIANT_SETTINGS[variant]
    f = rng.choice([1, 1, 2])
    n, horizon = factor * f + 1, rng.randrange(8, 13)
    base = {
        "n": n, "f": f, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": {"trajectories": random_walk_schedule(rng, n, f, horizon)},
    }
    sched = ScenarioConfig.from_dict(base).resolved_schedule()
    broadcasts = []
    for i in range(rng.randrange(1, 3)):
        r = rng.randrange(1, max(2, horizon - 4))
        broadcasts.append({"source": rng.choice(sorted(sched.correct_set(r))), "round": r,
                           "payload": f"b{i}"})

    def message() -> dict:
        kind = rng.choice(["SEND", "ECHO", "READY", "ABORT", "ROUND"])
        if kind == "ROUND":
            return {"kind": kind, "round_value": rng.randrange(1, 8)}
        if rng.random() < 0.5:
            b = rng.choice(broadcasts)
            return {"kind": kind, "source": b["source"], "birth_round": b["round"],
                    "payload": b["payload"]}
        return {"kind": kind, "source": rng.randrange(n), "birth_round": rng.randrange(1, 4),
                "payload": rng.choice(["m", "x", "y"])}

    script: dict = {}
    for r in range(1, horizon + 1):
        for p in sorted(sched.faulty_set(r)):
            sends = []
            for _ in range(rng.randrange(4)):
                m = message()
                receivers = range(n) if rng.random() < 0.5 else [rng.randrange(n) for _ in range(3)]
                sends += [[q, m] for q in receivers]
            state = rng.choice([None, "init", {"rc": rng.randrange(1, 8)},
                                {"to_send": [message() for _ in range(rng.randrange(1, 4))]}])
            script.setdefault(str(r), {})[str(p)] = {"sends": sends, "state": state}

    splits = [(p, r) for r in range(1, horizon - 2) for p in sorted(sched.faulty_set(r + 1))
              if not sched.is_faulty(p, r) and sched.is_faulty(p, r + 2)]
    if splits and rng.random() < 0.5:
        source, birth = rng.choice(splits)
        payload = f"b{len(broadcasts)}"
        broadcasts.append({"source": source, "round": birth, "payload": payload})
        F = Variant.for_tag(VariantTag(variant), f).effective_f
        hearers = sorted(sched.correct_set(birth + 1) & sched.correct_set(birth + 2))
        targets = rng.sample(hearers, min(len(hearers), rng.choice([F, (n + F) // 2])))
        for r, kind in ((birth + 1, "SEND"), (birth + 2, "ECHO")):
            m = {"kind": kind, "source": source, "birth_round": birth, "payload": payload}
            script[str(r)][str(source)]["sends"] += [[q, m] for q in targets]
    return ScenarioConfig.from_dict({**base, "broadcasts": broadcasts,
                                     "strategy": {"kind": "ARBITRARY", "script": script}})


def forged_birth_config(seed: int, n: int, f: int) -> ScenarioConfig:
    """A seeded FFA_FULL ARBITRARY script at ``n`` processes and ``f`` agents
    on random walks, in which possessed processes forge the broadcasts' own
    (source, payload) at other births. Each round each possessed process
    sends SEND, ECHO, READY and ABORT messages naming a broadcast's source
    and payload at a birth in 1..horizon, a third of them at the birth that
    the processes correct in the round would echo, and random ROUND votes,
    each message to every process or to a random subset. It may also
    override its ``rc`` or ``cured``, queue forged messages, or wipe its
    state. A possessed source's forged SEND is authenticated, so a real
    instance can gain READY quorums at several births, and its earliest one
    can move between rounds: the route on which both branches of FFA_FULL's
    delivery gate could pass for one (source, payload)."""
    rng = random.Random(seed)
    horizon = rng.randrange(8, 13)
    base = {
        "n": n, "f": f, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": random_walk_schedule(rng, n, f, horizon)},
    }
    sched = ScenarioConfig.from_dict(base).resolved_schedule()
    broadcasts = []
    for i in range(rng.randrange(1, 3)):
        r = rng.randrange(1, max(2, horizon - 4))
        broadcasts.append({"source": rng.choice(sorted(sched.correct_set(r))), "round": r,
                           "payload": f"b{i}"})

    def message(r: int) -> dict:
        kind = rng.choice(["SEND", "ECHO", "READY", "ABORT", "ROUND"])
        if kind == "ROUND":
            return {"kind": kind, "round_value": rng.randrange(1, horizon + 2)}
        b = rng.choice(broadcasts)
        birth = max(1, r - 1) if rng.random() < 1 / 3 else rng.randrange(1, horizon + 1)
        return {"kind": kind, "source": b["source"], "birth_round": birth, "payload": b["payload"]}

    script: dict = {}
    for r in range(1, horizon + 1):
        for p in sorted(sched.faulty_set(r)):
            sends = []
            for _ in range(rng.randrange(1, 6)):
                m = message(r)
                receivers = (range(n) if rng.random() < 0.5
                             else sorted(rng.sample(range(n), rng.randrange(1, n))))
                sends += [[q, m] for q in receivers]
            state = rng.choice([None, None, "init", {"rc": rng.randrange(1, horizon + 2)},
                                {"cured": rng.random() < 0.5},
                                {"rc": rng.randrange(1, horizon + 2), "cured": True},
                                {"to_send": [message(r) for _ in range(rng.randrange(1, 4))]}])
            script.setdefault(str(r), {})[str(p)] = {"sends": sends, "state": state}
    return ScenarioConfig.from_dict({**base, "broadcasts": broadcasts,
                                     "strategy": {"kind": "ARBITRARY", "script": script}})


# At the default parameters, the checker's (history, property) violations of
# each adapter choice.
CHOICE_PINS = {
    "SOURCE_FLIP": {
        "deliver_first_payload": [("faulty_then_correct", "VALIDITY")],
        "deliver_second_payload": [("correct_then_faulty", "VALIDITY")],
        "deliver_neither": [("correct_then_faulty", "VALIDITY"),
                            ("faulty_then_correct", "VALIDITY")],
        "deliver_both": [("correct_then_faulty", "CONSISTENCY"),
                         ("faulty_then_correct", "CONSISTENCY")],
    },
    "WIPE_FLIP": {
        "deliver_on_cure": [("deliver_then_wipe", "NO_DUPLICATION")],
        "ignore_cure": [("wipe_only", "TOTALITY")],
    },
}


def choice_violations(result: DemoResult) -> dict[str, list[tuple[str, str]]]:
    """Each adapter choice of a demo to its (history, property) violations."""
    return {c["choice"]: [(v["history"], v["property"]) for v in c["violations"]]
            for c in result.choices}


def forged_trace(config: ScenarioConfig, events: list[TraceEvent]) -> Trace:
    return Trace(config=config.to_dict(), events=events)


def fault_free_config(n=4, horizon=6) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "n": n, "f": 0, "delta_s": 1, "horizon": horizon, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": []},
    })


def deliver_event(process, round_, source, payload) -> TraceEvent:
    return TraceEvent(round=round_, kind=KIND_DELIVER_CALL, subject=process,
                      detail={"by": [process], "instances": [{"payload": payload, "source": source}]})


def broadcast_event(source, round_, payload) -> TraceEvent:
    return TraceEvent(round=round_, kind=KIND_BROADCAST_CALL,
                      subject=source, detail={"payload": payload})


def one_stay_config(n: int, horizon: int, host: int, first: int, last: int | None,
                    variant: str = "FFA_FULL") -> ScenarioConfig:
    """One agent, on ``host`` in rounds ``first`` to ``last`` (to the
    horizon when None), and nothing else: no broadcast, no strategy."""
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "horizon": horizon, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": VARIANT_SETTINGS[variant][0]},
        "variant": variant,
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": host, "first_round": first, "last_round": last}]}]},
    })


# Hand-built traces, by name, as (config, events): each breaks a property no
# engine run here breaks, breaks several at once, or sits on the edge one
# comparison of a property turns on (delta_b 2, delta_c 1).
HAND_BUILT = {
    # A delivery with no broadcast and a source never faulty: INTEGRITY.
    "unexplained_delivery": lambda: (fault_free_config(), [deliver_event(1, 4, 0, "ghost")]),
    # Two of four processes deliver: AGREEMENT, with 2 and 3 owing.
    "partial_delivery": lambda: (fault_free_config(), [deliver_event(0, 4, 0, "m"),
                                                       deliver_event(1, 4, 0, "m")]),
    # The same in round 5 of 6: the others owe it in round 6, the horizon.
    "partial_delivery_before_horizon": lambda: (fault_free_config(), [
        deliver_event(0, 5, 0, "m"), deliver_event(1, 5, 0, "m")]),
    # One of three processes delivers in the last round, so the others owe it
    # past the horizon: AGREEMENT and TOTALITY UNRESOLVED.
    "delivery_at_horizon": lambda: (fault_free_config(n=3, horizon=5),
                                    [deliver_event(0, 5, 0, "m")]),
    # Two payloads of source 2: CONSISTENCY.
    "two_payloads": lambda: (fault_free_config(), [deliver_event(0, 3, 2, "a"),
                                                   deliver_event(1, 4, 2, "b")]),
    # A correct process delivers (0, "a") twice and (0, "b") once, unbroadcast.
    "correct_repeats": lambda: (one_stay_config(4, 8, 1, 1, None, "BFA_WEAK"), [
        deliver_event(2, 3, 0, "a"), deliver_event(2, 4, 0, "a"), deliver_event(2, 5, 0, "b")]),
    # A delivery in its broadcast's round, and one in the first faulty round
    # of its source: each explained, INTEGRITY holds.
    "delivery_in_broadcast_round": lambda: (fault_free_config(horizon=8), [
        broadcast_event(0, 3, "m"), deliver_event(2, 3, 0, "m")]),
    "delivery_as_source_falls": lambda: (one_stay_config(4, 8, 0, 4, None),
                                         [deliver_event(2, 4, 0, "ghost")]),
    # Process 3, freed in round 6 of 6, is i.o.-correct and never delivers: AGREEMENT.
    "freed_in_the_last_round": lambda: (one_stay_config(4, 6, 3, 5, 5), [
        deliver_event(p, 4, 0, "m") for p in range(3)]),
    # NFA_WEAK: process 2, correct from round 2, misses only the due round 4.
    "missed_due_round": lambda: (one_stay_config(3, 6, 2, 1, 1, "NFA_WEAK"), [
        broadcast_event(0, 1, "m"), deliver_event(0, 4, 0, "m"), deliver_event(1, 4, 0, "m"),
        *(deliver_event(p, r, 0, "m") for r in (5, 6) for p in range(3))]),
    # FFA_FULL at n = 5f: three of five deliver, so only the per-process
    # reading, not promised at the bound, would break VALIDITY.
    "some_deliver_at_the_bound": lambda: (one_stay_config(5, 6, 4, 1, 1), [
        broadcast_event(0, 1, "m"), *(deliver_event(p, 4, 0, "m") for p in range(3))]),
}


def hand_built(name: str) -> tuple[ScenarioConfig, Trace]:
    config, events = HAND_BUILT[name]()
    return config, forged_trace(config, events)


def witness_holds(report: PropertyReport, trace: Trace, schedule: FailureSchedule) -> bool:
    """Whether a VIOLATED report's witness cites what its property needs.

    Each index names an event of the trace of the kind the property cites:
    a BROADCAST_CALL for VALIDITY, a DELIVER_CALL for the others. For the
    two properties a pair of deliveries breaks, the cited events show the
    pair, each standing for all its instances and each holding a delivery
    by a process correct in its round: for NO_DUPLICATION some process
    delivers one instance twice among them, and for CONSISTENCY they
    deliver two payloads of one source. An empty witness cites nothing, so it
    never holds."""
    events = trace.events
    if not report.witness:
        return False
    kind = KIND_BROADCAST_CALL if report.property == VALIDITY else KIND_DELIVER_CALL
    if any(not 0 <= i < len(events) or events[i].kind != kind for i in report.witness):
        return False
    if report.property not in (NO_DUPLICATION, CONSISTENCY):
        return True
    cited = set(report.witness)
    groups = [(i, source, payload, [p for p in by if p not in schedule.faulty_set(r)])
              for i, r, by, source, payload in delivered_instances(events) if i in cited]
    if {i for i, _source, _payload, correct in groups if correct} != cited:
        return False
    if report.property == NO_DUPLICATION:
        deliveries = [(p, source, payload) for _i, source, payload, correct in groups for p in correct]
        return len(set(deliveries)) < len(deliveries)
    payloads: dict[int, set[bytes]] = {}
    for _i, source, payload, correct in groups:
        if correct:
            payloads.setdefault(source, set()).add(payload)
    return any(len(of_source) > 1 for of_source in payloads.values())


def assert_checked_independently(reports: list[PropertyReport], trace: Trace,
                                 schedule: FailureSchedule, delta_b: int, delta_c: int,
                                 variant: VariantTag) -> None:
    """Each report's verdict is the one the monitor (``monitor.Monitor``)
    gives, and each VIOLATED report's witness holds (``witness_holds``)."""
    verdicts = monitor_verdicts(trace, schedule, delta_b, delta_c, variant)
    for report in reports:
        assert report.verdict == verdicts[report.property], (report.property, verdicts)
        if report.verdict == VIOLATED:
            assert witness_holds(report, trace, schedule), report.property


def assert_choice_verdicts_hold(result: DemoResult) -> None:
    """Each adapter choice's verdicts on each history are the monitor's on
    the choice's output for that history, and the witness of each
    violation holds on it."""
    pairs = {name: pair for names, pair in (
        (("correct_then_faulty", "deliver_then_wipe"), (result.config_first, result.trace_first)),
        (("faulty_then_correct", "wipe_only"), (result.config_second, result.trace_second)))
        for name in names}
    keeps = adapter_choices(result.kind, result.config_first)
    for choice in result.choices:
        for history, verdicts in choice["verdicts"].items():
            cfg, trace = pairs[history]
            witnesses = {v["property"]: v["witness"] for v in choice["violations"]
                         if v["history"] == history}
            reports = [PropertyReport(prop, verdict, witnesses.get(prop, []))
                       for prop, verdict in verdicts.items()]
            assert_checked_independently(reports, adapter_output(trace, keeps[choice["choice"]]),
                                         cfg.resolved_schedule(), cfg.delta_b, cfg.delta_c,
                                         cfg.variant)
