import copy
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    KIND_PHASE,
    SHAPES,
    golden_correct_source,
    previous_layout_jsonl,
    random_walk_schedule,
    shape_config,
    split_send_scenario,
    zero_agent_scenario,
)
from mbbc import adversary, engine
from mbbc.adversary import Strategy, generate_paired_histories
from mbbc.demos import run_demo
from mbbc.engine import (
    KIND_BROADCAST_CALL,
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    KIND_STATE_CORRUPTED,
    TO_ALL,
    Delivery,
    Simulation,
    Trace,
    TraceEvent,
    deliver_oracle_events,
    deliveries,
    encode_line,
    round_sends,
    run,
)
from mbbc.messages import ProtocolMessage, decode_payload
from mbbc.model import AgentTrajectory, FailureSchedule, OracleKind, Segment
from mbbc.protocol import (
    ProtocolState,
    Tallies,
    VariantTag,
    compute_phase,
    on_cured,
    on_p2p_deliver,
    receive,
    send_phase,
    state_fingerprint,
)
from mbbc.scenario import InvalidScenario, ScenarioConfig, UnsupportedSetting
from mbbc.sweeps import attack_scenario


BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def schedule_single(segments, n=6, horizon=8, delta_s=1):
    traj = AgentTrajectory(agent_id=0, segments=tuple(Segment(*s) for s in segments))
    return FailureSchedule(n=n, f=1, delta_s=delta_s, horizon=horizon, trajectories=(traj,))


class TestOracle:
    def test_one_round_stay_ffa(self):
        sched = schedule_single([(1, 1, 1)])
        assert deliver_oracle_events(sched, 2, OracleKind.FFA) == [(1, 1)]

    def test_three_round_stay_ffa(self):
        # Stay on rounds 3..5 cures at 6 and reports the stay's first round.
        sched = schedule_single([(2, 3, 5)])
        assert deliver_oracle_events(sched, 6, OracleKind.FFA) == [(2, 3)]

    def test_bfa_has_no_faulty_since(self):
        sched = schedule_single([(2, 3, 5)])
        assert deliver_oracle_events(sched, 6, OracleKind.BFA) == [(2, None)]

    def test_nfa_never_fires(self):
        sched = schedule_single([(1, 1, 1)])
        assert deliver_oracle_events(sched, 2, OracleKind.NFA) == []

    def test_no_events_while_agent_stays(self):
        sched = schedule_single([(2, 3, 5)])
        assert deliver_oracle_events(sched, 4, OracleKind.FFA) == []


class TestRunBasics:
    def test_zero_agent_no_broadcast_only_round_traffic(self):
        trace = run(zero_agent_scenario())
        p2p = [e for e in trace.events if e.kind == KIND_P2P_SEND]
        assert p2p, "round votes flow even without protocol activity"
        assert all(e.detail["message"]["kind"] == "ROUND" for e in p2p)
        assert not [e for e in trace.events if e.kind in (KIND_DELIVER_CALL, KIND_BROADCAST_CALL)]

    def test_determinism_same_config_identical_bytes(self):
        cfg = golden_correct_source()
        assert run(cfg).to_jsonl() == run(cfg).to_jsonl()

    def test_seed_is_part_of_fingerprint(self):
        a = golden_correct_source(seed=1)
        b = golden_correct_source(seed=2)
        assert run(a).fingerprint != run(b).fingerprint

    def test_synchrony_send_deliver_bijection(self):
        trace = run(golden_correct_source())
        received = deliveries(trace)
        sent = round_sends(trace.events)
        assert received
        for r in range(1, 9):
            sends = sorted((sender, q, str(message)) for sender, message, to in sent.get(r, ())
                           for q in (range(6) if to == TO_ALL else to))
            delivers = sorted((d.sender, d.receiver, str(d.message)) for d in received if d.round == r)
            assert sends == delivers

    def test_cured_process_is_silent_in_cure_round(self):
        # Index 5 is freed at round 3 of the golden schedule; the wipe must
        # suppress everything it had queued.
        trace = run(golden_correct_source())
        assert 5 not in {sender for sender, _message, _to in round_sends(trace.events)[3]}

    def test_golden_deliveries(self):
        trace = run(golden_correct_source())
        deliveries = sorted((p, e.round) for e in trace.events if e.kind == KIND_DELIVER_CALL
                            for p in e.detail["by"])
        assert deliveries == [(0, 4), (1, 5), (2, 4), (3, 4), (4, 4), (5, 4)]

    def test_send_fans_out_to_all_including_self(self):
        trace = run(golden_correct_source())
        sends = [e for e in trace.events
                 if e.kind == KIND_P2P_SEND and e.round == 2 and e.detail["message"]["kind"] == "SEND"]
        assert len(sends) == 1 and sends[0].detail["to"] == TO_ALL and sends[0].detail["from"] == [0]
        receivers = [d.receiver for d in deliveries(trace)
                     if d.round == 2 and d.sender == 0 and d.message["kind"] == "SEND"]
        assert receivers == list(range(6))

    def test_stepping_past_horizon_raises(self):
        sim = Simulation(zero_agent_scenario(horizon=2))
        sim.run()
        with pytest.raises(RuntimeError):
            sim.step()


class TestTraceOrdering:
    PHASE_ORDER = {"ADVERSARY": 0, "ORACLE": 1, "SEND": 2, "RECEIVE": 3, "COMPUTE": 4}

    def test_events_totally_ordered(self):
        trace = run(golden_correct_source())
        marks = [(e.round, self.PHASE_ORDER[KIND_PHASE[e.kind]]) for e in trace.events]
        assert marks == sorted(marks)

    @pytest.mark.parametrize("config, has_dictated", [
        (golden_correct_source, False), (lambda: split_send_scenario([1, 2, 3]), True),
    ], ids=["correct_source", "split_send"])
    def test_within_phase_lexicographic(self, config, has_dictated):
        """Fan-outs first, in message order, each listing its senders in
        process order; then dictated sends by (sender, message). Expanded
        sends and receipts are in (sender, message) and (receiver, sender,
        message) order."""
        trace = run(config())
        received = deliveries(trace)
        sent = round_sends(trace.events)
        dictated_seen = False
        for r in range(1, trace.config["horizon"] + 1):
            events = [e for e in trace.events if e.round == r and e.kind == KIND_P2P_SEND]
            fan_outs = [e for e in events if e.detail["to"] == TO_ALL]
            dictated = [e for e in events if e.detail["to"] != TO_ALL]
            assert events == fan_outs + dictated
            keys = [sort_key(e.detail["message"]) for e in fan_outs]
            assert keys == sorted(set(keys))
            for e in fan_outs:
                assert e.detail["from"] == sorted(set(e.detail["from"])) and e.subject == e.detail["from"][0]
            keys = [(e.subject, sort_key(e.detail["message"])) for e in dictated]
            assert keys == sorted(keys)
            dictated_seen |= bool(dictated)
            expanded = [(sender, sort_key(message)) for sender, message, _to in sent.get(r, ())]
            assert expanded == sorted(expanded)
            delivers = [(d.receiver, d.sender, sort_key(d.message)) for d in received if d.round == r]
            assert delivers == sorted(delivers)
        assert dictated_seen == has_dictated

    def test_one_send_per_sender_and_message(self):
        trace = run(split_send_scenario([1, 2, 3]))
        keys = [(r, sender, str(message))
                for r, sends in round_sends(trace.events).items() for sender, message, _to in sends]
        assert len(keys) == len(set(keys))
        assert not [e for e in trace.events if e.kind not in engine.KINDS]


def sort_key(message: dict) -> tuple:
    return ProtocolMessage.from_dict(message).sort_key()


def receive_and_fold(cfg: ScenarioConfig, monkeypatch) -> tuple[Trace, dict, dict]:
    """Run ``cfg``; return its trace, a copy of the tallies RECEIVE gave each
    (round, process), and a per-receipt fold of ``deliveries`` for the same
    keys. Every receiver's fold holds all its receipts, a possessed
    receiver's included."""
    sim = Simulation(cfg)
    received = {}
    original = engine.receive_phase

    def snapshot(*args):
        out = original(*args)
        for p, tallies in enumerate(out):
            received[(sim.round, p)] = copy.deepcopy(tallies)
        return out

    monkeypatch.setattr(engine, "receive_phase", snapshot)
    trace = sim.run()
    folded = {key: Tallies() for key in received}
    for d in deliveries(trace):
        if (d.round, d.receiver) in folded:
            on_p2p_deliver(folded[(d.round, d.receiver)], (d.sender,),
                           ProtocolMessage.from_dict(d.message))
    return trace, received, folded


def arbitrary_walk(seed: int) -> ScenarioConfig:
    """An agent on a random walk (n=6, FFA) whose host sends random votes to
    random receivers, duplicates included, and leaves a random queue behind."""
    rng = random.Random(seed)
    n, horizon = 6, 12
    base = {
        "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": random_walk_schedule(rng, n, 1, horizon)},
    }
    sched = ScenarioConfig.from_dict(base).resolved_schedule()

    def message() -> dict:
        kind = rng.choice(["SEND", "ECHO", "READY", "ABORT", "ROUND"])
        if kind == "ROUND":
            return {"kind": kind, "round_value": rng.randrange(1, 6)}
        return {"kind": kind, "source": rng.randrange(n), "birth_round": rng.randrange(1, 3),
                "payload": rng.choice(["m", "x"])}

    script = {}
    for r in range(1, horizon + 1):
        for p in sorted(sched.faulty_set(r)):
            script[str(r)] = {str(p): {
                "sends": [[rng.randrange(n), message()] for _ in range(rng.randrange(8))],
                "state": {"to_send": [message() for _ in range(3)], "rc": rng.randrange(1, 6)}}}
    source = min(p for p in range(n) if sched.is_correct(p, 1))
    return ScenarioConfig.from_dict({
        **base, "broadcasts": [{"source": source, "round": 1, "payload": "m"}],
        "strategy": {"kind": "ARBITRARY", "script": script},
    })


def planted_round_votes() -> ScenarioConfig:
    """NFA_WEAK, n=7: the agent holds process 2 in rounds 1-2 and leaves
    ROUND 5 and ROUND 7 in its queue, then moves on to process 4."""
    return ScenarioConfig.from_dict({
        "n": 7, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": 6, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "NFA"},
        "variant": "NFA_WEAK",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 2, "first_round": 1, "last_round": 2},
            {"host": 4, "first_round": 3, "last_round": None}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "m"}],
        "strategy": {"kind": "ARBITRARY", "script": {"2": {"2": {"state": {"to_send": [
            {"kind": "ROUND", "round_value": 7}, {"kind": "ROUND", "round_value": 5}]}}}}},
    })


def send_event(round_, senders, message, to) -> TraceEvent:
    """A fan-out from ``senders`` (a list) when ``to`` is "ALL", else a send dictated to ``to``."""
    if to == TO_ALL:
        return TraceEvent(round_, KIND_P2P_SEND, senders[0],
                          {"from": senders, "message": message.to_dict(), "to": to})
    return TraceEvent(round_, KIND_P2P_SEND, senders,
                      {"message": message.to_dict(), "to": to})


def hand_trace(n, events) -> Trace:
    return Trace(fingerprint="x", seed=0, config={"n": n, "horizon": 4}, events=events)


class TestDeliveries:
    def test_correct_fan_out_reaches_every_process_once(self):
        msg = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 2})
        trace = hand_trace(3, [send_event(2, [1], msg, TO_ALL)])
        assert deliveries(trace) == [Delivery(2, q, 1, msg.to_dict()) for q in range(3)]

    def test_a_fan_out_expands_to_one_send_per_sender_in_sender_order(self):
        a = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 5})
        b = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 7})
        trace = hand_trace(4, [send_event(1, [0, 3], a, TO_ALL), send_event(1, [0, 2], b, TO_ALL),
                               send_event(1, 1, a, [2, 2]), send_event(2, [3], b, TO_ALL)])
        assert [(r, sender, message["round_value"], to)
                for r, sends in round_sends(trace.events).items() for sender, message, to in sends] == [
            (1, 0, 5, TO_ALL), (1, 0, 7, TO_ALL), (1, 1, 5, [2, 2]), (1, 2, 7, TO_ALL),
            (1, 3, 5, TO_ALL), (2, 3, 7, TO_ALL)]
        assert [(d.receiver, d.sender, d.message["round_value"]) for d in deliveries(trace)
                if d.round == 1 and d.receiver == 2] == [(2, 0, 5), (2, 0, 7), (2, 1, 5), (2, 1, 5),
                                                         (2, 2, 7), (2, 3, 5)]

    def test_dictated_duplicate_receiver_is_delivered_twice(self):
        a = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 5})
        b = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 7})
        trace = hand_trace(5, [send_event(1, [3], b, TO_ALL), send_event(1, 0, a, [1, 1, 4])])
        assert [(d.receiver, d.sender, d.message["round_value"]) for d in deliveries(trace)] == [
            (0, 3, 7), (1, 0, 5), (1, 0, 5), (1, 3, 7), (2, 3, 7), (3, 3, 7),
            (4, 0, 5), (4, 3, 7)]

    @pytest.mark.parametrize("receiver", [-1, 3])
    def test_dictated_receiver_out_of_range_rejected(self, receiver):
        msg = ProtocolMessage.from_dict({"kind": "ROUND", "round_value": 2})
        with pytest.raises(ValueError, match="outside 0..2"):
            deliveries(hand_trace(3, [send_event(1, 0, msg, [receiver])]))

    @pytest.mark.parametrize("config", [
        *[pytest.param(lambda path=path: ScenarioConfig.from_json(path.read_text()), id=path.stem)
          for path in BUNDLED],
        *[pytest.param(lambda name=name: shape_config(name), id=name) for name in SHAPES],
        pytest.param(lambda: split_send_scenario([1, 2, 3]), id="split_send"),
        pytest.param(lambda: arbitrary_walk(11), id="arbitrary_walk"),
        pytest.param(planted_round_votes, id="planted_round_votes"),
    ])
    def test_engine_receive_equals_a_fold_of_the_derived_deliveries(self, config, monkeypatch):
        """RECEIVE gives each process, correct or possessed, tallies equal to
        a fresh fold of the receipts ``deliveries`` derives for it from the
        trace, in order; a possessed process's dictated receipts count only
        when the strategy reads its fold."""
        cfg = config()
        trace, received, folded = receive_and_fold(cfg, monkeypatch)
        assert set(received) == {(r, p) for r in range(1, cfg.horizon + 1) for p in range(cfg.n)}
        assert received == folded

    def test_a_freed_process_votes_its_later_planted_round_message(self, monkeypatch):
        """NFA_WEAK has no cure wipe: process 2, freed in round 3, sends both
        ROUND messages the agent left in its queue, and the later one in
        message order is its vote under the grouped fold and the per-receipt
        fold alike."""
        cfg = planted_round_votes()
        trace, received, folded = receive_and_fold(cfg, monkeypatch)
        planted = [e.detail["message"]["round_value"] for e in trace.events
                   if e.kind == KIND_P2P_SEND and e.round == 3 and 2 in e.detail.get("from", ())
                   and e.detail["message"]["kind"] == "ROUND"]
        assert planted == [5, 7]
        votes = {(tallies.rc_votes[2], folded[key].rc_votes[2])
                 for key, tallies in received.items() if key[0] == 3}
        assert votes == {(7, 7)}

    def test_sender_is_stamped_by_the_engine(self):
        """A possessed process cannot send under another process's name."""
        forged = {"kind": "SEND", "source": 2, "birth_round": 1, "payload": "x"}
        received = [d for d in deliveries(run(scripted_sends([[1, forged]])))
                    if d.message == forged]
        assert [(d.receiver, d.sender) for d in received] == [(1, 0)]

    def test_engine_keeps_a_dictated_duplicate(self):
        vote = {"kind": "ROUND", "round_value": 7}
        trace = run(scripted_sends([[2, vote], [1, vote], [2, vote]]))
        sends = [e.detail for e in trace.events if e.kind == KIND_P2P_SEND and e.subject == 0]
        assert sends == [{"message": vote, "to": [1, 2, 2]}]
        assert [d.receiver for d in deliveries(trace) if d.sender == 0] == [1, 2, 2]


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
    return roundrobin_crash(32, 6, 20, (1, 2, 3, 4, 5), "FFA_FULL", "FFA")


def weak_redelivery_shaped() -> ScenarioConfig:
    return roundrobin_crash(7, 1, 40, tuple(range(14, 33, 2)), "NFA_WEAK", "NFA")


def cured_in_pairs(variant: str, oracle: str) -> ScenarioConfig:
    """Two agents leave their hosts together, so two processes are cured in
    one round with the same cure flags."""
    return crash_silent(11, 2, 12, variant, oracle,
                        [{"source": 0, "round": b, "payload": f"m{b}"} for b in (1, 3, 5)],
                        {"generator": "alternating", "params": {"p1": [1, 2], "p2": [3, 4]}},
                        delta_s=2)


def cured_in_step() -> ScenarioConfig:
    """BFA_WEAK: the possessed process leaves with the round counter every
    correct process has, so at its cure only the cure flag tells it apart."""
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": 7, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "BFA"},
        "variant": "BFA_WEAK",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 3, "first_round": 1, "last_round": 4}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "m"}],
        "strategy": {"kind": "ARBITRARY", "script": {"4": {"3": {"state": {"rc": 5}}}}},
    })


def containers(state: ProtocolState) -> list:
    """Every set a state holds, each immutable, so that states may share it."""
    return [state.to_send, state.delivered]


def payloads_against_birth_order() -> ScenarioConfig:
    """NFA_WEAK: source 0 broadcasts "b" in round 1 and "a" in round 2, so
    from round 5 on every correct process delivers both in one round."""
    return crash_silent(7, 1, 8, "NFA_WEAK", "NFA",
                        [{"source": 0, "round": 1, "payload": "b"},
                         {"source": 0, "round": 2, "payload": "a"}],
                        {"generator": "alternating", "params": {"p1": [5], "p2": [6]}})


class TestDeliveryOrder:
    def test_a_round_delivers_in_source_payload_order(self):
        """A round's DELIVER_CALLs are strictly increasing in (source,
        payload), whatever the births of the instances."""
        trace = run(payloads_against_birth_order())
        by_round: dict[int, list[tuple[int, bytes]]] = {}
        for ev in trace.events:
            if ev.kind == KIND_DELIVER_CALL:
                instance = (ev.detail["source"], decode_payload(ev.detail))
                by_round.setdefault(ev.round, []).append(instance)
        assert any(len(calls) > 1 for calls in by_round.values())
        for r, calls in by_round.items():
            assert all(a < b for a, b in zip(calls, calls[1:])), (r, calls)


class TestSharedCompute:
    """COMPUTE runs once per class of processes with equal inputs; every
    member must end where its own receive and compute would have left it."""

    @pytest.mark.parametrize("config", [
        *[pytest.param(lambda path=path: ScenarioConfig.from_json(path.read_text()), id=path.stem)
          for path in BUNDLED],
        pytest.param(lambda: split_send_scenario([1, 2, 3]), id="split_send"),
        pytest.param(fanout_shaped, id="fanout_shaped"),
        pytest.param(weak_redelivery_shaped, id="weak_redelivery_shaped"),
        # No round counter has more than F = 2 votes, so the majority repair
        # keeps each process's own and unequal counters stay apart.
        *[pytest.param(lambda n=n: roundrobin_crash(n, 1, 12, (1, 2, 3), "NFA_WEAK", "NFA"),
                       id=f"nfa_weak_n{n}_unbacked_counters") for n in (3, 4)],
        pytest.param(lambda: cured_in_pairs("FFA_FULL", "FFA"), id="ffa_cured_in_pairs"),
        pytest.param(lambda: cured_in_pairs("BFA_WEAK", "BFA"), id="bfa_cured_in_pairs"),
        pytest.param(cured_in_step, id="bfa_cured_in_step"),
        pytest.param(payloads_against_birth_order, id="payloads_against_birth_order"),
    ])
    def test_each_state_equals_a_per_process_compute(self, config):
        cfg = config()
        sim = Simulation(cfg)
        sched, variant, n = sim.schedule, cfg.variant_spec(), cfg.n
        while sim.round < cfg.horizon:
            before = copy.deepcopy(sim.states)
            start = len(sim.trace.events)
            sim.step()
            r, events = sim.round, sim.trace.events[start:]
            receipts = {p: [] for p in range(n)}
            for d in deliveries(Trace("", 0, {"n": n}, events)):
                receipts[d.receiver].append((d.sender, ProtocolMessage.from_dict(d.message)))
            cures = dict(deliver_oracle_events(sched, r, cfg.setting.oracle))
            for p in range(n):
                if not sched.is_correct(p, r):
                    continue
                state = before[p]
                if p in cures:
                    on_cured(state, cures[p])
                send_phase(state)
                tallies = receive(Tallies(), receipts[p])
                payloads = [b.payload for b in cfg.broadcasts if (b.source, b.round) == (p, r)]
                delivered = compute_phase(state, tallies, p, variant, n, broadcasts=payloads)
                assert state == sim.states[p], (r, p)
                assert delivered == [(ev.detail["source"], decode_payload(ev.detail)) for ev in events
                                     if ev.kind == KIND_DELIVER_CALL and p in ev.detail["by"]], (r, p)
            assert all(type(c) is frozenset for state in sim.states for c in containers(state)), r

    def test_sharing_fires_on_the_fanout_shape(self, monkeypatch):
        calls = []
        original = engine.compute_phase

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "compute_phase", counted)
        cfg = fanout_shaped()
        run(cfg)
        sched = cfg.resolved_schedule()
        pairs = sum(sched.is_correct(p, r) for r in range(1, cfg.horizon + 1) for p in range(cfg.n))
        assert 0 < len(calls) < pairs / 4

    def test_one_compute_per_round_on_the_weak_redelivery_shape(self, monkeypatch):
        """Every correct process enters COMPUTE with one fold and, after the
        majority repair, one round counter: the process CRASH_SILENT has
        just freed joins the others from ``rc = 1``, and a broadcast caller
        differs from them only by its SEND. So one compute runs per round."""
        cfg = weak_redelivery_shaped()
        _trace, calls, _inputs = compute_inputs(cfg, monkeypatch)
        assert calls["compute_phase"] == cfg.horizon

    def test_send_walks_each_shared_queue_once_on_the_fanout_shape(self, monkeypatch):
        """The members of a compute class hold one queue, and SEND walks it
        once for all of them: fewer walks than correct senders, same trace."""
        cfg = fanout_shaped()
        expected = run(cfg).to_jsonl()
        walks = []
        held: dict[int, tuple] = {}

        class Walked:
            def __init__(self, queue):
                self.queue = queue

            def __iter__(self):
                walks.append(self)
                return iter(self.queue)

        def walked(state):
            queue = send_phase(state)
            if id(queue) not in held:
                held[id(queue)] = (queue, Walked(queue))
            return held[id(queue)][1]

        monkeypatch.setattr(engine, "send_phase", walked)
        assert run(cfg).to_jsonl() == expected
        sched = cfg.resolved_schedule()
        senders = sum(sched.is_correct(p, r) for r in range(1, cfg.horizon + 1) for p in range(cfg.n))
        assert 0 < len(walks) < senders


def compute_inputs(cfg: ScenarioConfig, monkeypatch) -> tuple[Trace, Counter, dict]:
    """Run ``cfg``, counting the engine's ``receive`` and ``compute_phase`` calls.

    Returns the trace, the counts, and for each correct (round, process) its
    inbox, derived by ``deliveries``, and the (rc, cured, cured_faulty_since,
    delivered) it entered COMPUTE with: SEND reads each correct state after
    ORACLE, and nothing changes those fields before COMPUTE.
    """
    sim = Simulation(cfg)
    calls: Counter = Counter()
    entering = {}

    def counted(name, function):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapped

    def sending(state):
        p = next(p for p, held in enumerate(sim.states) if held is state)
        entering[(sim.round, p)] = (state.rc, state.cured, state.cured_faulty_since, state.delivered)
        return send_phase(state)

    monkeypatch.setattr(engine, "receive", counted("receive", receive))
    monkeypatch.setattr(engine, "compute_phase", counted("compute_phase", compute_phase))
    monkeypatch.setattr(engine, "send_phase", sending)
    trace = sim.run()
    inboxes = {key: [] for key in entering}
    for d in deliveries(trace):
        if (d.round, d.receiver) in inboxes:
            inboxes[d.round, d.receiver].append((d.sender, encode_line(d.message)))
    return trace, calls, {key: (tuple(inboxes[key]), entering[key]) for key in entering}


def paired_history(kind: str, side: int) -> ScenarioConfig:
    return generate_paired_histories(kind, {})[side]


def shared_inbox_script(seed: int) -> ScenarioConfig:
    """Three agents leave processes ``a``, ``e`` and ``h`` at the boundary of
    round ``k``, after the instance's due round 4, and possess ``b``, ``g``
    and ``j`` from ``k`` on. In round ``k``, ``b`` sends one SEND of its own
    to ``a``, ``e``, ``h`` and two or three processes correct throughout, and
    ``g`` sends one message to every process, so these receivers share one
    inbox. All three freed processes enter COMPUTE cured: ``a`` with the
    round counter of the others, faulty since round 1; ``e`` with another
    counter; ``h`` with ``a``'s counter and nothing delivered, but faulty
    since round 5 (wiped then). NFA_WEAK has no cure notice, so there the
    agents leave them cured themselves."""
    rng = random.Random(seed)
    variant, oracle, n = [("FFA_FULL", "FFA", 16), ("BFA_WEAK", "BFA", 16),
                          ("NFA_WEAK", "NFA", 19)][seed % 3]
    k = rng.randrange(7, 10)
    a, e, h, b, g, j, *others = rng.sample(range(1, n), n - 1)
    receivers = [a, e, h, *others[:rng.randrange(2, 4)]]
    rng.shuffle(receivers)
    cured = {"cured": True} if variant == "NFA_WEAK" else {}

    def message() -> dict:
        kind = rng.choice(["SEND", "ECHO", "READY", "ABORT", "ROUND"])
        if kind == "ROUND":
            return {"kind": kind, "round_value": rng.choice([k, k + 1, k + 40])}
        return {"kind": kind, "source": 0, "birth_round": rng.choice([1, k]),
                "payload": rng.choice(["x", "y"])}

    def stays(agent: int, first: int, left: int, then: int) -> dict:
        return {"agent_id": agent, "segments": [
            {"host": left, "first_round": first, "last_round": k - 1},
            {"host": then, "first_round": k, "last_round": None}]}

    own_send = {"kind": "SEND", "source": b, "birth_round": k - 1, "payload": rng.choice(["x", "z"])}
    e_rc = k + rng.choice([-2, 3, 40])
    to_all = message()
    return ScenarioConfig.from_dict({
        "n": n, "f": 3, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": k + 2, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": {"trajectories": [stays(0, 1, a, b), stays(1, 2, e, g), stays(2, 5, h, j)]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "x"}],
        "strategy": {"kind": "ARBITRARY", "script": {
            "5": {str(h): {"state": "init"}},
            str(k - 1): {str(a): {"state": {"rc": k, **cured}},
                         str(e): {"state": {"rc": e_rc}},
                         str(h): {"state": {"rc": k, **cured}}},
            str(k): {str(b): {"sends": [[q, own_send] for q in receivers]},
                     str(g): {"sends": [[q, to_all] for q in range(n)]}}}},
    })


# seed -> sha256 of the trace of ``shared_inbox_script(seed)`` in the
# ``mbbc-trace/5`` layout (``previous_layout_jsonl``), derived with every
# process that received a dictated message running its own COMPUTE.
SHARED_INBOX_PINS = {
    0: "23f669bf3f718a7b3392c6030255254c9942cac3a6b169c5a492a75e77cfc76b",  # FFA_FULL
    1: "0b3dd73247e6896d9cb8ed5e8765038557dae2367aa3016afaa322ae524336d0",  # BFA_WEAK
    2: "4c7b303712cd0659228b1af389a675a0a33e02e1a035a11cf1b14f9caa93f668",  # NFA_WEAK
    3: "7ec35bfe44ab722d987cc9bf3e29e6e92f3ae230fc50e54ce448f420ea8cf0c5",  # FFA_FULL
    4: "3910b887f3ce64fa672e1223d4ca2091f277a4d620f4973ebff923ca8052d05c",  # BFA_WEAK
    5: "13aa2a97ba546ef7f133ce257a688ed6f3ee836af38db7840ed2d362d2cd95fc",  # NFA_WEAK
}


class TestSharedFolds:
    """RECEIVE folds each distinct inbox of a round once, possessed processes'
    included whatever the strategy, and COMPUTE runs at most once per class
    of equal fold and state; broadcast callers join their class."""

    @pytest.mark.parametrize("config", [
        *[pytest.param(lambda kind=kind, side=side: paired_history(kind, side), id=f"{kind}-{side}")
          for kind in ("SOURCE_FLIP", "WIPE_FLIP") for side in (0, 1)],
        pytest.param(lambda: split_send_scenario([1, 2, 3]), id="split_send"),
        *[pytest.param(lambda seed=seed: arbitrary_walk(seed), id=f"arbitrary_walk-{seed}")
          for seed in (11, 12)],
    ])
    def test_one_fold_per_distinct_inbox_and_one_compute_per_class(self, config, monkeypatch):
        cfg = config()
        trace, calls, inputs = compute_inputs(cfg, monkeypatch)
        sched = cfg.resolved_schedule()
        dictated = {(r, p): [] for r in range(1, cfg.horizon + 1) for p in range(cfg.n)}
        for d in deliveries(trace):
            if not sched.is_correct(d.sender, d.round):
                dictated[d.round, d.receiver].append((d.sender, encode_line(d.message)))
        distinct = {(r, tuple(receipts)) for (r, _p), receipts in dictated.items() if receipts}
        assert calls["receive"] == len(distinct)
        classes = {(r, inbox, state) for (r, p), (inbox, state) in inputs.items()}
        assert calls["compute_phase"] <= len(classes) < len(inputs)

    @pytest.mark.parametrize("kind", ["SOURCE_FLIP", "WIPE_FLIP"])
    def test_a_faithful_compute_reads_the_fold_receive_gave_its_process(self, kind, monkeypatch):
        """On both histories, each compute phase a possessed process runs
        faithfully reads the very tallies object RECEIVE returned for that
        process in that round: the adversary folds nothing of its own."""
        sim = None
        returned: dict[int, list] = {}
        reads: list[tuple[int, int, bool]] = []

        def recording_receive(*args):
            returned[sim.round] = receive_phase(*args)
            return returned[sim.round]

        def recording_compute(state, tallies, p, *args, **kwargs):
            reads.append((sim.round, p, tallies is returned[sim.round][p]))
            return compute(state, tallies, p, *args, **kwargs)

        receive_phase, compute = engine.receive_phase, adversary.compute_phase
        monkeypatch.setattr(engine, "receive_phase", recording_receive)
        monkeypatch.setattr(adversary, "compute_phase", recording_compute)
        for cfg in generate_paired_histories(kind, {}):
            sim = Simulation(cfg)
            reads.clear()
            sim.run()
            # EQUIVOCATE_HISTORY runs faithfully while it holds the source;
            # WIPE_AND_RUN through ``sim_until``.
            sched, last = cfg.resolved_schedule(), cfg.strategy.get("sim_until", cfg.horizon)
            faithful = [(r, p) for r in range(1, last + 1) for p in sorted(sched.faulty_set(r))]
            assert reads == [(r, p, True) for r, p in faithful]
        assert faithful, "the second history possesses a process that runs faithfully"

    @pytest.mark.parametrize("seed", sorted(SHARED_INBOX_PINS))
    def test_receivers_of_one_inbox_in_different_states_stay_apart(self, seed, monkeypatch):
        """The shared inbox of round ``k`` holds a cured receiver and one with
        another round counter beside processes correct throughout; the trace
        is the one each receiver's own COMPUTE gave."""
        cfg = shared_inbox_script(seed)
        trace, _calls, inputs = compute_inputs(cfg, monkeypatch)
        k = cfg.horizon - 2
        by_inbox: dict[tuple, list[tuple]] = {}
        for (r, _p), (inbox, state) in inputs.items():
            if r == k:
                by_inbox.setdefault(inbox, []).append(state)
        assert any(any(cured for _rc, cured, _since, _delivered in states)
                   and len({rc for rc, _cured, _since, _delivered in states}) > 1
                   and len(set(states)) >= 3 for states in by_inbox.values())
        text = previous_layout_jsonl(trace)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SHARED_INBOX_PINS[seed]


def send_order_texts(case: str) -> list[str]:
    """The trace texts of a bundled config, a shape, an alternating sweep
    cell of a variant, or both traces of a demo."""
    if case in ("SOURCE_FLIP", "WIPE_FLIP"):
        result = run_demo(case, {})
        return [result.trace_first.to_jsonl(), result.trace_second.to_jsonl()]
    if case in SHAPES:
        cfg = shape_config(case)
    elif case in VariantTag.__members__:
        cfg = attack_scenario(VariantTag[case], 7, 1, 2, "alternating")
    else:
        cfg = ScenarioConfig.from_json(next(p for p in BUNDLED if p.stem == case).read_text())
    return [run(cfg).to_jsonl()]


class TestSendOrder:
    @pytest.mark.parametrize("case", [*(path.stem for path in BUNDLED), *SHAPES,
                                      *VariantTag.__members__, "SOURCE_FLIP", "WIPE_FLIP"])
    def test_queue_order_does_not_reach_the_trace(self, case, monkeypatch):
        """``send_phase`` hands a queue back in no particular order: the
        engine's sort of a round's fan-outs and ``_dictated``'s sort are the
        only orders, so reversing every queue, the engine's and a faithful
        adversary's alike, leaves each trace as it was."""
        expected = send_order_texts(case)
        lengths = []

        def reversed_queue(state):
            queue = send_phase(state)
            lengths.append(len(queue))
            return list(queue)[::-1]

        monkeypatch.setattr(engine, "send_phase", reversed_queue)
        monkeypatch.setattr(adversary, "send_phase", reversed_queue)
        assert send_order_texts(case) == expected
        assert max(lengths) > 1


def scripted_sends(sends: list) -> ScenarioConfig:
    """n=3; process 0 is possessed throughout and sends ``sends`` in round 1."""
    return ScenarioConfig.from_dict({
        "n": 3, "f": 1, "delta_s": 1, "horizon": 2, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 0, "first_round": 1, "last_round": None}]}]},
        "strategy": {"kind": "ARBITRARY", "script": {"1": {"0": {"sends": sends}}}},
    })


class TestSharedDetails:
    @pytest.mark.parametrize("config, repeated", [
        (split_send_scenario([1, 2, 3]), True),
        (scripted_sends([[q, {"kind": "ROUND", "round_value": v}] for v in (5, 7) for q in (1, 2)]),
         False),
    ], ids=["split_send", "two_messages_one_receiver_list"])
    def test_equal_messages_share_one_dict_and_every_send_owns_its_detail(self, config, repeated):
        """Each distinct message is one dict, shared read-only by the sends
        that carry it; a fan-out's ``from`` and a dictated send's ``to`` are
        each its own."""
        trace = run(config)
        sends = [e.detail for e in trace.events if e.kind == KIND_P2P_SEND]
        ids_by_text: dict[str, set[int]] = {}
        for d in sends:
            ids_by_text.setdefault(encode_line(d["message"]), set()).add(id(d["message"]))
        assert (len(sends) > len(ids_by_text)) == repeated
        assert all(len(ids) == 1 for ids in ids_by_text.values())
        assert len({id(d) for d in sends}) == len(sends)
        lists = [d["from"] if d["to"] == TO_ALL else d["to"] for d in sends]
        assert len({id(x) for x in lists}) == len(lists)
        assert sum(d["to"] != TO_ALL for d in sends) > 1

    def test_corrupted_digest_is_the_state_fingerprint_type_exactly(self, monkeypatch):
        """``rc=True`` equals ``rc=1`` but digests differently, so the digest
        memo must not hand one's digest to the other."""
        digests = []

        class FlipRc(Strategy):
            def corrupt_state(self, p, r, obs):
                state = obs.states[p]
                state.rc = True if r % 2 else 1
                digests.append(state_fingerprint(state))
                return state

        monkeypatch.setattr(engine, "build_strategy", lambda config: FlipRc())
        trace = run(scripted_sends([]))
        recorded = [e.detail["state_digest"] for e in trace.events
                    if e.kind == KIND_STATE_CORRUPTED]
        assert recorded == digests and len(set(digests)) == 2


class TestTraceIO:
    def test_jsonl_roundtrip(self):
        trace = run(golden_correct_source())
        back = Trace.from_jsonl(trace.to_jsonl())
        assert back.events == trace.events
        assert back.fingerprint == trace.fingerprint
        assert back.to_jsonl() == trace.to_jsonl()

    def test_header_embeds_config(self):
        cfg = golden_correct_source()
        back = Trace.from_jsonl(run(cfg).to_jsonl())
        assert back.scenario() == cfg

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_jsonl("")


class TestValidation:
    def test_async_setting_rejected_with_reason(self):
        cfg = zero_agent_scenario()
        bad = cfg.with_overrides(setting={"timing": "ASYNC", "mobility": "S-MOB", "oracle": "FFA"})
        with pytest.raises(UnsupportedSetting) as err:
            Simulation(bad)
        assert "asynchronous" in str(err.value)

    def test_variant_oracle_pairing_enforced(self):
        cfg = zero_agent_scenario()
        bad = cfg.with_overrides(variant="BFA_WEAK")  # oracle stays FFA
        with pytest.raises(InvalidScenario):
            Simulation(bad)

    def test_schedule_violations_rejected(self):
        bad = ScenarioConfig.from_dict({
            "n": 4, "f": 1, "delta_s": 2, "horizon": 6, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 1, "first_round": 1, "last_round": 1}]}]},
        })
        with pytest.raises(InvalidScenario) as err:
            Simulation(bad)
        assert "residency" in str(err.value)

    def test_sub_round_residency_rejected(self):
        cfg = zero_agent_scenario()
        with pytest.raises(InvalidScenario):
            Simulation(cfg.with_overrides(delta_s=0))
