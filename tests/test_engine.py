import copy
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    KIND_PHASE,
    SHAPES,
    arbitrary_config,
    assert_deliver_call_layout,
    crash_silent,
    fanout_shaped,
    forged_birth_config,
    golden_correct_source,
    previous_layout_jsonl,
    random_walk_schedule,
    roundrobin_crash,
    shape_config,
    split_send_scenario,
    weak_redelivery_shaped,
    zero_agent_scenario,
)
from mbbc import adversary, engine, protocol
from mbbc.adversary import Observation, Strategy, generate_paired_histories
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
    delivered_instances,
    deliveries,
    encode_line,
    round_sends,
    run,
)
from mbbc.messages import ProtocolMessage, send_msg
from mbbc.model import AgentTrajectory, FailureSchedule, OracleKind, Segment
from mbbc.protocol import (
    ProtocolState,
    Tallies,
    VariantTag,
    compute_phase,
    on_cured,
    on_p2p_deliver,
    queue_broadcasts,
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
        assert all(m["kind"] == "ROUND" for e in p2p for m in e.detail["messages"])
        assert not [e for e in trace.events if e.kind in (KIND_DELIVER_CALL, KIND_BROADCAST_CALL)]

    def test_determinism_same_config_identical_bytes(self):
        cfg = golden_correct_source()
        assert run(cfg).to_jsonl() == run(cfg).to_jsonl()

    def test_the_seed_is_kept_in_the_config_and_drives_nothing(self):
        """Nothing in a run draws randomness: two seeds give the same events,
        and their traces differ only in the config the header holds."""
        a, b = run(golden_correct_source(seed=1)), run(golden_correct_source(seed=2))
        assert a.events == b.events
        assert a.config == {**b.config, "seed": 1} != b.config
        assert a.to_jsonl().partition("\n")[2] == b.to_jsonl().partition("\n")[2]

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
        deliveries = sorted((p, r) for _i, r, by, _s, _m in delivered_instances(trace.events)
                            for p in by)
        assert deliveries == [(0, 4), (1, 5), (2, 4), (3, 4), (4, 4), (5, 4)]

    def test_send_fans_out_to_all_including_self(self):
        trace = run(golden_correct_source())
        sends = [e for e in trace.events if e.kind == KIND_P2P_SEND and e.round == 2
                 and any(m["kind"] == "SEND" for m in e.detail["messages"])]
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
        """Fan-outs first, one per list of senders in process order, each
        listing its messages in message order, ordered by their first
        message; then dictated sends by (sender, message). Expanded sends
        and receipts are in (sender, message) and (receiver, sender,
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
            for e in fan_outs:
                keys = [sort_key(m) for m in e.detail["messages"]]
                assert keys == sorted(set(keys))
                assert e.detail["from"] == sorted(set(e.detail["from"])) and e.subject == e.detail["from"][0]
            firsts = [sort_key(e.detail["messages"][0]) for e in fan_outs]
            assert firsts == sorted(firsts)
            senders = [tuple(e.detail["from"]) for e in fan_outs]
            assert len(senders) == len(set(senders))
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


def observations(monkeypatch) -> list[Observation]:
    """Patch the engine to keep each round's ``Observation``, in the order
    the rounds run: once a round has run, its ``tallies`` are every
    process's fold, as RECEIVE left them for the strategies and COMPUTE."""
    made = []

    def kept(**fields):
        made.append(Observation(**fields))
        return made[-1]

    monkeypatch.setattr(engine, "Observation", kept)
    return made


def receive_and_fold(cfg: ScenarioConfig, monkeypatch) -> tuple[Trace, dict, dict]:
    """Run ``cfg``; return its trace, a copy of the tallies RECEIVE gave each
    (round, process), and a per-receipt fold of ``deliveries`` for the same
    keys. Every receiver's fold holds all its receipts, a possessed
    receiver's included."""
    observed = observations(monkeypatch)
    trace = Simulation(cfg).run()
    received = {(r, p): copy.deepcopy(tallies)
                for r, obs in enumerate(observed, start=1) for p, tallies in enumerate(obs.tallies)}
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
    source = min(sched.correct_set(1))
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
    return Trace(config={"n": n, "horizon": 4}, events=events)


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
        pytest.param(lambda: scripted_sends(
            [[q, {"kind": "ROUND", "round_value": 9}] for q in range(3)]
            + [[q, {"kind": "ROUND", "round_value": 7}] for q in (1, 2)]), id="partial_round_votes"),
    ])
    def test_engine_receive_equals_a_fold_of_the_derived_deliveries(self, config, monkeypatch):
        """RECEIVE gives each process, correct or possessed, tallies equal to
        a fresh fold of the receipts ``deliveries`` derives for it from the
        trace, in order; a possessed process's dictated receipts count only
        when the strategy reads its fold. No sender both fans out and
        dictates in a round: a possessed sender that sends ROUND 9 to every
        process and ROUND 7 to two of them stays wholly dictated, so those
        two fold 7, then 9, and vote 9, as the third does."""
        cfg = config()
        trace, received, folded = receive_and_fold(cfg, monkeypatch)
        assert set(received) == {(r, p) for r in range(1, cfg.horizon + 1) for p in range(cfg.n)}
        assert received == folded
        for r, sends in round_sends(trace.events).items():
            fan_out = {sender for sender, _message, to in sends if to == TO_ALL}
            assert not fan_out & {sender for sender, _message, to in sends if to != TO_ALL}, r

    def test_a_freed_process_votes_its_later_planted_round_message(self, monkeypatch):
        """NFA_WEAK has no cure wipe: process 2, freed in round 3, sends both
        ROUND messages the agent left in its queue, and the later one in
        message order is its vote under the grouped fold and the per-receipt
        fold alike."""
        cfg = planted_round_votes()
        trace, received, folded = receive_and_fold(cfg, monkeypatch)
        planted = [m["round_value"] for e in trace.events
                   if e.kind == KIND_P2P_SEND and e.round == 3 and 2 in e.detail.get("from", ())
                   for m in e.detail["messages"] if m["kind"] == "ROUND"]
        assert planted == [5, 7]
        votes = {(tallies.rc_votes[2], folded[key].rc_votes[2])
                 for key, tallies in received.items() if key[0] == 3}
        assert votes == {(7, 7)}

    def test_a_sender_with_one_partial_send_keeps_all_its_sends_on_the_inbox_path(self, monkeypatch):
        """Process 0, possessed, sends ROUND 5 to every process and ROUND 3
        to process 2 alone. ROUND 3 comes first in message order, so process
        2 folds 3, then 5, and votes 5, as every other process does. Only a
        sender each of whose sends reaches every process folds into the
        common tallies: were the ROUND 5 folded there, process 2 would fold
        its ROUND 3 after it and keep 3. The pinned trace holds the sends
        the per-process engine gave, and the digest over the four fields of
        the state process 0 holds at the horizon, the end of its stay."""
        five, three = {"kind": "ROUND", "round_value": 5}, {"kind": "ROUND", "round_value": 3}
        cfg = scripted_sends([[q, five] for q in range(3)] + [[2, three]])
        trace, received, folded = receive_and_fold(cfg, monkeypatch)
        assert received == folded
        assert {key: tallies.rc_votes.get(0) for key, tallies in received.items() if key[0] == 1} == {
            (1, 0): 5, (1, 1): 5, (1, 2): 5}
        assert [ev.detail["to"] for ev in trace.events
                if ev.kind == KIND_P2P_SEND and ev.subject == 0] == [[2], [0, 1, 2]]
        assert hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest() == (
            "a070fa7b595ed2db005f701beaaea14c14d31a41ab9edbfb9db1e330c3dd64b3")

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


def payloads_against_birth_order() -> ScenarioConfig:
    """NFA_WEAK: source 0 broadcasts "b" in round 1 and "a" in round 2, so
    from round 5 on every correct process delivers both in one round."""
    return crash_silent(7, 1, 8, "NFA_WEAK", "NFA",
                        [{"source": 0, "round": 1, "payload": "b"},
                         {"source": 0, "round": 2, "payload": "a"}],
                        {"generator": "alternating", "params": {"p1": [5], "p2": [6]}})


class TestDeliveryOrder:
    def test_a_round_delivers_in_source_payload_order(self):
        """Each DELIVER_CALL's instances are strictly increasing in (source,
        payload), whatever the births of the instances, a round's events are
        ordered by their first instance, and no instance stands in two of
        them (``conftest.assert_deliver_call_layout``)."""
        trace = run(payloads_against_birth_order())
        assert any(len(ev.detail["instances"]) > 1 for ev in trace.events
                   if ev.kind == KIND_DELIVER_CALL)
        assert_deliver_call_layout(trace.events)


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
            # Members of a class share one state object: copy each apart.
            before = [copy.deepcopy(state) for state in sim.states]
            start = len(sim.trace.events)
            sim.step()
            r, events = sim.round, sim.trace.events[start:]
            receipts = {p: [] for p in range(n)}
            for d in deliveries(Trace({"n": n}, events)):
                receipts[d.receiver].append((d.sender, ProtocolMessage.from_dict(d.message)))
            cures = dict(deliver_oracle_events(sched, r, cfg.setting.oracle))
            for p in range(n):
                if p not in sched.correct_set(r):
                    continue
                state = before[p]
                if p in cures:
                    on_cured(state, cures[p])
                send_phase(state)
                tallies = receive(Tallies(), receipts[p])
                delivered = compute_phase(state, tallies, variant, n)
                queue_broadcasts(state, p, [b.payload for b in cfg.broadcasts
                                            if (b.source, b.round) == (p, r)])
                assert state == sim.states[p], (r, p)
                assert delivered == sorted((source, payload) for _i, _r, by, source, payload
                                           in delivered_instances(events) if p in by), (r, p)
            # The queue is immutable, so states may share it.
            assert all(type(state.to_send) is frozenset for state in sim.states), r

    def test_sharing_fires_on_the_fanout_shape(self, monkeypatch):
        calls = []
        original = engine.compute_phase

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "compute_phase", counted)
        cfg = fanout_shaped()
        run(cfg)
        sched = cfg.resolved_schedule()
        pairs = sum(len(sched.correct_set(r)) for r in range(1, cfg.horizon + 1))
        assert 0 < len(calls) < pairs / 4

    def test_each_fold_is_read_once_per_round_on_the_fanout_shape(self, monkeypatch):
        """CRASH_SILENT dictates nothing, so every process holds the common
        fold, while the processes freed or wiped split a round into several
        compute classes. The fold's reading is built once per round all the
        same: once per distinct fold a correct process holds, fewer times
        than ``compute_phase`` runs."""
        builds = []
        calls = Counter()

        def counted_compute(*args, **kwargs):
            calls["compute_phase"] += 1
            return compute(*args, **kwargs)

        def counted_reading(*args):
            builds.append(args)
            return reading(*args)

        compute, reading = engine.compute_phase, protocol.FoldReading
        observed = observations(monkeypatch)
        monkeypatch.setattr(engine, "compute_phase", counted_compute)
        monkeypatch.setattr(protocol, "FoldReading", counted_reading)
        cfg = fanout_shaped()
        sim = Simulation(cfg)
        sim.run()
        held = [{id(obs.tallies[p]) for p in sim.schedule.correct_set(r)}
                for r, obs in enumerate(observed, start=1)]
        assert calls["compute_phase"] > cfg.horizon == len(held)
        assert len(builds) == sum(map(len, held)) < calls["compute_phase"]

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
        senders = sum(len(sched.correct_set(r)) for r in range(1, cfg.horizon + 1))
        assert 0 < len(walks) < senders


def compute_inputs(cfg: ScenarioConfig, monkeypatch) -> tuple[Trace, Counter, dict]:
    """Run ``cfg``, counting the engine's ``receive`` and ``compute_phase`` calls.

    Returns the trace, the counts, and for each correct (round, process) its
    inbox, derived by ``deliveries``, and the (rc, cured, cured_faulty_since)
    it entered COMPUTE with: SEND reads each correct state after
    ORACLE, once per group, and the processes that hold the state object
    then are that group's members; nothing changes those fields before
    COMPUTE.
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
        for p, held in enumerate(sim.states):
            if held is state:
                entering[(sim.round, p)] = (state.rc, state.cured, state.cured_faulty_since)
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
    counter; ``h`` with ``a``'s counter, but faulty since round 5 (wiped then). NFA_WEAK has no cure notice, so there the
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
# process that received a dictated message running its own COMPUTE, each
# state digest over the four fields, and each possessed sender whose every
# message reaches every process exactly once written as a fan-out sender.
SHARED_INBOX_PINS = {
    0: "5fd740b64e85a73b3423358f633fdbe0b94f5ff83b6447c7a6d83102fc3c38df",  # FFA_FULL
    1: "c95d73e07901945f8be7562e30a3377e16fb103b7becc6149241e52e6ee8fd0a",  # BFA_WEAK
    2: "3fdd69e75500da6be6e761c2b0d7908ec71954a74e46321aa98845f80d591775",  # NFA_WEAK
    3: "1cecdfc27684e48fad4dc7ef75adea9d5a736ba7128147148191e9af236d31fe",  # FFA_FULL
    4: "7519872a86b6c57ab0a3c18ad621b306d5c66e4e30756900871b752de3b0beb3",  # BFA_WEAK
    5: "1edd13906ee2f972891df76960cc4791b677f695734e51255a6ee4f6b980f05f",  # NFA_WEAK
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
        """A possessed sender each of whose dictated sends reaches every
        process folds into the common tallies; the receipts of the others,
        the partial senders, are the inboxes."""
        cfg = config()
        trace, calls, inputs = compute_inputs(cfg, monkeypatch)
        sched = cfg.resolved_schedule()
        everyone = set(range(cfg.n))
        partial = {(ev.round, ev.subject) for ev in trace.events
                   if ev.kind == KIND_P2P_SEND and "from" not in ev.detail
                   and set(ev.detail["to"]) != everyone}
        dictated = {(r, p): [] for r in range(1, cfg.horizon + 1) for p in range(cfg.n)}
        for d in deliveries(trace):
            if d.sender not in sched.correct_set(d.round) and (d.round, d.sender) in partial:
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
        reads: list[tuple[int, int, object]] = []

        def recording_compute(state, tallies, *args, **kwargs):
            # A possessed process holds a state object of its own.
            p = next(p for p, held in enumerate(sim.states) if held is state)
            reads.append((sim.round, p, tallies))
            return compute(state, tallies, *args, **kwargs)

        compute = adversary.compute_phase
        observed = observations(monkeypatch)
        monkeypatch.setattr(adversary, "compute_phase", recording_compute)
        for cfg in generate_paired_histories(kind, {}):
            sim = Simulation(cfg)
            reads.clear()
            observed.clear()
            sim.run()
            reads[:] = [(r, p, tallies is observed[r - 1].tallies[p]) for r, p, tallies in reads]
            # EQUIVOCATE_HISTORY runs a faithful compute on every possessed
            # process (here only the source is possessed); WIPE_AND_RUN
            # through ``sim_until``.
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
        assert any(any(cured for _rc, cured, _since in states)
                   and len({rc for rc, _cured, _since in states}) > 1
                   and len(set(states)) >= 3 for states in by_inbox.values())
        text = previous_layout_jsonl(trace)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SHARED_INBOX_PINS[seed]


def spied_strategies(monkeypatch) -> Counter:
    """Patch the engine's strategies to assert, at each ``dictate_sends``
    and ``corrupt_state`` call, that no other process holds the possessed
    process's state object; returns the calls counted by name."""
    calls: Counter = Counter()
    build = engine.build_strategy

    def spied(config):
        strategy = build(config)
        for name in ("dictate_sends", "corrupt_state"):
            def check(p, r, obs, method=getattr(strategy, name), name=name):
                holders = [q for q, state in enumerate(obs.states) if state is obs.states[p]]
                assert holders == [p], (name, r, p, holders)
                calls[name] += 1
                return method(p, r, obs)
            setattr(strategy, name, check)
        return strategy

    monkeypatch.setattr(engine, "build_strategy", spied)
    return calls


class TestSharedStates:
    """Between rounds the processes of each class hold one state object.
    SEND runs once per group of holders; a holder the agent takes, one the
    oracle cures, or one that calls broadcast, gets a copy of its own, and
    no shared object is changed in place."""

    @pytest.mark.parametrize("config", [
        *[pytest.param(lambda path=path: ScenarioConfig.from_json(path.read_text()), id=path.stem)
          for path in BUNDLED],
        *[pytest.param(lambda kind=kind, side=side: paired_history(kind, side), id=f"{kind}-{side}")
          for kind in ("SOURCE_FLIP", "WIPE_FLIP") for side in (0, 1)],
        *[pytest.param(lambda variant=variant: attack_scenario(variant, 11, 2, 1, "alternating"),
                       id=f"alternating-{variant.value}") for variant in VariantTag],
        pytest.param(lambda: split_send_scenario([1, 2, 3]), id="split_send"),
        pytest.param(lambda: arbitrary_walk(11), id="arbitrary_walk"),
        pytest.param(lambda: cured_in_pairs("FFA_FULL", "FFA"), id="ffa_cured_in_pairs"),
    ])
    def test_no_possessed_process_shares_its_state_while_the_strategy_runs(self, config, monkeypatch):
        cfg = config()
        expected = run(cfg).to_jsonl()
        calls = spied_strategies(monkeypatch)
        sim = Simulation(cfg)
        assert len({id(state) for state in sim.states}) == 1
        assert sim.run().to_jsonl() == expected
        assert calls["corrupt_state"] > 0

    @pytest.mark.parametrize("config", [fanout_shaped, weak_redelivery_shaped,
                                        lambda: cured_in_pairs("BFA_WEAK", "BFA")],
                             ids=["fanout_shaped", "weak_redelivery_shaped", "bfa_cured_in_pairs"])
    def test_send_runs_once_per_group_of_holders(self, config, monkeypatch):
        """The holders of the states SEND reads partition the round's
        correct processes, and fewer states than processes are read."""
        cfg = config()
        sim = Simulation(cfg)
        holders: dict[int, list[list[int]]] = {}

        def sending(state):
            holders.setdefault(sim.round, []).append(
                [p for p, held in enumerate(sim.states) if held is state])
            return send_phase(state)

        monkeypatch.setattr(engine, "send_phase", sending)
        sim.run()
        for r in range(1, cfg.horizon + 1):
            held = sorted(p for group in holders[r] for p in group)
            assert held == sorted(sim.schedule.correct_set(r)), r
        assert sum(map(len, holders.values())) < sum(len(sim.schedule.correct_set(r))
                                                      for r in range(1, cfg.horizon + 1))

    def test_a_class_computes_in_place_when_it_is_its_whole_group(self):
        """With no agent and no broadcast every process stays in one class:
        all hold the first round's state object to the horizon, computed in
        place, and no copy is made."""
        sim = Simulation(zero_agent_scenario())
        first = sim.states[0]
        while sim.round < sim.config.horizon:
            sim.step()
            assert all(state is first for state in sim.states)
        assert first.rc == sim.config.horizon + 1

    def test_a_broadcast_caller_holds_a_state_of_its_own(self):
        """The caller's SEND goes to a copy of its class's outcome; the rest
        of the class share the outcome, whose queue holds no SEND."""
        sim = Simulation(zero_agent_scenario(broadcasts=[{"source": 1, "round": 2, "payload": "m"}]))
        sim.step()
        sim.step()
        caller, others = sim.states[1], [sim.states[p] for p in (0, 2, 3)]
        assert all(state is others[0] for state in others) and caller is not others[0]
        assert caller.to_send - others[0].to_send == {send_msg(1, 2, b"m")}
        sim.step()
        assert all(state is sim.states[0] for state in sim.states)


# The configs a simulation is forked on: the bundled ones, the shapes, both
# demos' two histories, and seeded ARBITRARY and forged-birth scripts. They
# run all seven strategy kinds.
FORK_POOL = [
    *[pytest.param(lambda path=path: ScenarioConfig.from_json(path.read_text()), id=path.stem)
      for path in BUNDLED],
    *[pytest.param(lambda name=name: shape_config(name), id=name) for name in SHAPES],
    *[pytest.param(lambda kind=kind, side=side: paired_history(kind, side), id=f"{kind}-{side}")
      for kind in ("SOURCE_FLIP", "WIPE_FLIP") for side in (0, 1)],
    *[pytest.param(lambda seed=seed: arbitrary_config(seed), id=f"arbitrary-{seed}")
      for seed in range(60)],
    *[pytest.param(lambda seed=seed: forged_birth_config(seed, 6, 1), id=f"forged_birth-{seed}")
      for seed in range(20)],
]


def forked(sim: Simulation) -> Simulation:
    """A fresh simulation of ``sim``'s config given only its round, its
    events so far and its states. The states are new objects, one per
    distinct value, so processes whose states are equal share one, last
    round's possessed processes included."""
    fork = Simulation(sim.config)
    fork.round = sim.round
    fork.trace.events = list(sim.trace.events)
    shared: dict[tuple, ProtocolState] = {}
    fork.states = [shared.setdefault(fields, ProtocolState(*fields)) for fields in
                   ((s.to_send, s.cured, s.cured_faulty_since, s.rc) for s in sim.states)]
    return fork


class TestFork:
    """A simulation's future is fixed by its config, its round and its
    states: a fork is the round, the prefix of events and the states, and
    however the states share their objects, it runs on to the trace of the
    uncut run."""

    @pytest.mark.parametrize("config", FORK_POOL)
    def test_a_fork_after_every_round_runs_on_to_the_same_trace(self, config):
        cfg = config()
        expected = run(cfg).to_jsonl()
        sim = Simulation(cfg)
        while sim.round < cfg.horizon:
            assert forked(sim).run().to_jsonl() == expected, sim.round
            sim.step()
        assert sim.trace.to_jsonl() == expected

    @pytest.mark.parametrize("config", FORK_POOL)
    def test_a_strategy_keeps_no_state_of_its_run(self, config):
        sim = Simulation(config())
        before = copy.deepcopy(vars(sim.strategy))
        sim.run()
        assert vars(sim.strategy) == before

    def test_the_pool_runs_every_strategy_kind(self):
        kinds = {param.values[0]().strategy.get("kind", "BENIGN") for param in FORK_POOL}
        assert kinds == set(adversary._STRATEGY_KEYS)


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
        that carry it; a fan-out's ``from`` and ``messages`` and a dictated
        send's ``to`` are each its own."""
        trace = run(config)
        sends = [e.detail for e in trace.events if e.kind == KIND_P2P_SEND]
        messages = [m for d in sends for m in d.get("messages", [d.get("message")])]
        ids_by_text: dict[str, set[int]] = {}
        for m in messages:
            ids_by_text.setdefault(encode_line(m), set()).add(id(m))
        assert (len(messages) > len(ids_by_text)) == repeated
        assert all(len(ids) == 1 for ids in ids_by_text.values())
        assert len({id(d) for d in sends}) == len(sends)
        lists = [x for d in sends for x in ((d["from"], d["messages"]) if d["to"] == TO_ALL
                                            else (d["to"],))]
        assert len({id(x) for x in lists}) == len(lists)
        assert sum(d["to"] != TO_ALL for d in sends) > 1

    @pytest.mark.parametrize("config", [fanout_shaped, weak_redelivery_shaped],
                             ids=["fanout_shaped", "weak_redelivery_shaped"])
    def test_each_message_is_sort_keyed_once_per_simulation(self, config, monkeypatch):
        """A simulation keeps each distinct message's ``sort_key`` beside its
        dict and JSON text: the round's fan-outs and every digested queue
        look it up there, so no message is keyed twice, however many rounds
        and queues carry it."""
        keyed: Counter = Counter()
        sort_key = ProtocolMessage.sort_key

        def counted(msg):
            keyed[msg] += 1
            return sort_key(msg)

        monkeypatch.setattr(ProtocolMessage, "sort_key", counted)
        trace = run(config())
        sent = {encode_line(m) for e in trace.events if e.kind == KIND_P2P_SEND
                for m in e.detail["messages"]}
        assert len(keyed) >= len(sent) > 10
        assert max(keyed.values()) == 1


class TestTraceIO:
    def test_jsonl_roundtrip(self):
        trace = run(golden_correct_source())
        back = Trace.from_jsonl(trace.to_jsonl())
        assert back.events == trace.events
        assert back.config == trace.config
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
