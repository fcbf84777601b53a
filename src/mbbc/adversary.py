"""Omniscient adversary strategies.

A strategy is consulted by the engine for every faulty process: once in the
send phase (``dictate_sends`` — the envelopes the possessed process emits,
with the sender stamp forced by the engine) and once in the compute phase
(``corrupt_state`` — the state the process is left with). Strategies are
deterministic functions of (process, round, observation); the observation is
an omniscient view of the engine's live state. No strategy draws
randomness, so the engine is deterministic: a config fixes its run.

The two history-forging strategies (``EQUIVOCATE_HISTORY``, ``WIPE_AND_RUN``)
make a possessed process *faithfully run the protocol* by replaying the real
state machine against the process's own state — that is how the paired
indistinguishable executions are produced: the possessed process's wire
behaviour is byte-for-byte what a correct process would have sent. They fold
nothing themselves: the compute phase reads the tallies the engine's receive
phase built for the possessed process, the fold a correct process with the
same inbox reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .messages import TO_ALL, ProtocolMessage, echo_msg, ready_msg, round_msg, send_msg
from .model import FailureSchedule, InvalidScenario, shown, spec_int, spec_ints, spec_list, spec_object
from .protocol import (
    DELIVERY_DELAY,
    ProtocolState,
    Tallies,
    compute_phase,
    init_state,
    on_cured,
    queue_broadcasts,
    send_phase,
)
from .scenario import Broadcast, ScenarioConfig


@dataclass
class Observation:
    """Omniscient view handed to strategies, one per round.

    ``states`` is the engine's live list of protocol states, not a copy,
    and the processes of a class hold one object: a strategy may change a
    possessed process's state in place, as no other process holds that
    object while the strategy runs, and must leave every other state
    alone. It returns the possessed process's own state or a new one.
    ``tallies[p]`` is the fold of everything process p received this round,
    read-only and shared with every process that received the same; the
    engine sets it after the receive phase, so the send phase sees none. A
    possessed process's entry is its own fold too, as a correct one's is.
    """

    schedule: FailureSchedule
    states: Sequence[ProtocolState]
    tallies: Sequence[Tallies] = ()


class Strategy:
    """The BENIGN strategy, and the default the others override: total
    silence, state untouched.

    A strategy holds no state of its run: every attribute is set in
    ``__init__``, and no call changes one. So a simulation's future is
    fixed by its config, its round, its states and last round's
    STATE_CORRUPTED details."""

    def dictate_sends(self, p: int, r: int, obs: Observation
                      ) -> list[tuple[int | str, ProtocolMessage]]:
        """The (receiver, message) pairs possessed process p sends in round
        r, a receiver repeated to send it a message twice. A ``TO_ALL``
        receiver stands for every process, p included, in one entry: a
        sender each of whose messages reaches every process is folded once
        into the round's common tallies, and only the others' receipts make
        an inbox. The trace lists the receivers in full either way."""
        return []

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        return obs.states[p]


class CrashSilent(Strategy):
    """Silent while possessed; the state is wiped to init when the agent departs."""

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        departing = r >= obs.schedule.horizon or not obs.schedule.is_faulty(p, r + 1)
        return init_state() if departing else obs.states[p]


class AlternatingSets(Strategy):
    """P1 hosts spout spurious traffic, P2 hosts are mute; together with the
    cure-silence of whoever was just freed this wastes 2f processes per round.

    Departing P1 hosts additionally leave a poisoned send queue and a trashed
    round counter behind. Under an oracle the cure wipe neutralises the queue;
    with no oracle the freed process flushes it, which is exactly the leak that
    forces the doubled fault bound of the no-oracle variant.
    """

    def __init__(self, p1: Sequence[int], p2: Sequence[int], n: int, f: int):
        if set(p1) & set(p2):
            raise InvalidScenario(["ALTERNATING_SETS requires disjoint sets"])
        if len(set(p1)) != f or len(set(p2)) != f:
            raise InvalidScenario([f"ALTERNATING_SETS requires two sets of exactly f={f} processes"])
        if any(not 0 <= p < n for p in [*p1, *p2]):
            raise InvalidScenario(["ALTERNATING_SETS set member outside process range"])
        self.p1 = frozenset(p1)
        self.p2 = frozenset(p2)
        self.n = n

    def _spurious(self, p: int, r: int) -> list[ProtocolMessage]:
        # A fabricated instance keyed to the sender: at most f votes ever
        # accumulate for it, so it can never clear any quorum.
        junk = b"\xee" + bytes([r % 251])
        return [echo_msg(p, r, junk), ready_msg(p, r, junk), round_msg(9000 + r)]

    def dictate_sends(self, p: int, r: int, obs: Observation) -> list[tuple[int | str, ProtocolMessage]]:
        if p in self.p1:
            return [(TO_ALL, m) for m in self._spurious(p, r)]
        return []

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        state = obs.states[p]
        if p in self.p1:
            state.to_send = frozenset(self._spurious(p, r + 1))
            state.rc = 9999
        else:
            state.to_send = frozenset()
        return state


class SplitSend(Strategy):
    """Faulty source performs the selective-send attack on its scheduled broadcast.

    The SEND goes only to ``targets`` in round r_b+1 and the source's own ECHO
    tops the same targets up in round r_b+2, so exactly the targets can reach
    the echo quorum. Everything else the possessed processes could say is
    suppressed (that silence is what swallows one ABORT when the agent hops
    onto an abort-generator for round r_b+3).
    """

    def __init__(self, targets: Sequence[int], broadcasts: Sequence[Broadcast], n: int):
        if any(not 0 <= t < n for t in targets):
            raise InvalidScenario(["SPLIT_SEND target outside process range"])
        self.targets = sorted(set(targets))
        self.broadcasts = tuple(broadcasts)
        self.n = n

    def dictate_sends(self, p: int, r: int, obs: Observation) -> list[tuple[int | str, ProtocolMessage]]:
        out: list[tuple[int, ProtocolMessage]] = []
        for b in self.broadcasts:
            if b.source != p:
                continue
            if r == b.round + 1:
                out.extend((q, send_msg(p, b.round, b.payload)) for q in self.targets)
            elif r == b.round + 2:
                out.extend((q, echo_msg(p, b.round, b.payload)) for q in self.targets)
        return out


def _faithful_sends(state: ProtocolState) -> list[tuple[str, ProtocolMessage]]:
    """The protocol's own send phase on the possessed state, sent to every process."""
    return [(TO_ALL, m) for m in send_phase(state)]


def _faithful_compute(config: ScenarioConfig, p: int, r: int, obs: Observation) -> ProtocolState:
    """The protocol's own compute phase on the possessed state, on the fold
    the receive phase gave p, with the broadcast calls ``config`` schedules
    for p in round r."""
    state = obs.states[p]
    payloads = [b.payload for b in config.broadcasts if b.source == p and b.round == r]
    compute_phase(state, obs.tallies[p], config.variant_spec(), config.n)
    queue_broadcasts(state, p, payloads)
    return state


class EquivocateHistory(Strategy):
    """Make every possessed process run the protocol faithfully: its own send
    phase, sent to every process, and its own compute phase on its fold.

    The demos' SOURCE_FLIP schedules possess only the source. Paired with
    the mirror schedule this realises two executions that differ only in
    *when* the source is faulty: the possessed half replays exactly
    what the correct half does, including the cure-silence round (``sim_cure``
    mirrors the oracle event the twin execution receives for real, applied
    before the send phase as the oracle's is) and the broadcast scheduled
    while faulty.
    """

    def __init__(self, config: ScenarioConfig, sim_cure: dict[int, tuple[int, int | None]]):
        self.config = config
        self.sim_cure = sim_cure

    def dictate_sends(self, p: int, r: int, obs: Observation) -> list[tuple[int | str, ProtocolMessage]]:
        cure = self.sim_cure.get(p)
        if cure is not None and cure[0] == r:
            on_cured(obs.states[p], cure[1])
        return _faithful_sends(obs.states[p])

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        return _faithful_compute(self.config, p, r, obs)


class WipeAndRun(Strategy):
    """Possession that optionally mimics correct behaviour, then goes dark and
    wipes the state to init at ``wipe_round`` (the last faulty round)."""

    def __init__(self, target: int, sim_until: int, wipe_round: int, config: ScenarioConfig):
        self.target = target
        self.sim_until = sim_until
        self.wipe_round = wipe_round
        self.config = config

    def dictate_sends(self, p: int, r: int, obs: Observation) -> list[tuple[int | str, ProtocolMessage]]:
        if p == self.target and r <= self.sim_until:
            return _faithful_sends(obs.states[p])
        return []

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        if p != self.target:
            return obs.states[p]
        if r <= self.sim_until:
            return _faithful_compute(self.config, p, r, obs)
        if r == self.wipe_round:
            return init_state()
        return obs.states[p]


class Arbitrary(Strategy):
    """Explicit per-round script, for golden tests and hand-built attacks.

    Script shape: ``{round: {process: {"sends": [[receiver, message], ...],
    "state": null | "init" | {"rc": int >= 0, "to_send": [message, ...],
    "cured": bool}}}}`` with rounds and process ids as strings (JSON object
    keys) or ints, and messages in their JSON form. The whole script is
    checked when the strategy is built.
    """

    def __init__(self, script: dict, n: int):
        self.sends: dict[tuple[int, int], list[tuple[int, ProtocolMessage]]] = {}
        self.states: dict[tuple[int, int], object] = {}
        for rnd, per_proc in spec_object(script, "ARBITRARY script").items():
            for p, actions in spec_object(per_proc, f"ARBITRARY round {rnd}").items():
                where = f"ARBITRARY round {rnd} process {p}"
                key = (_key_int(rnd, where), _key_int(p, where))
                actions = spec_object(actions, where, ("sends", "state"))
                self.sends[key] = [_scripted_send(send, n, where)
                                   for send in spec_list(actions.get("sends", []), f"{where} sends")]
                self.states[key] = _scripted_state(actions.get("state"), where)

    def dictate_sends(self, p: int, r: int, obs: Observation) -> list[tuple[int | str, ProtocolMessage]]:
        return self.sends.get((r, p), [])

    def corrupt_state(self, p: int, r: int, obs: Observation) -> ProtocolState:
        spec = self.states.get((r, p))
        if spec is None:
            return obs.states[p]
        if spec == "init":
            return init_state()
        state = obs.states[p]
        if "rc" in spec:
            state.rc = spec["rc"]
        if "to_send" in spec:
            state.to_send = frozenset(spec["to_send"])
        if "cured" in spec:
            state.cured = spec["cured"]
        return state


def _key_int(key, what: str) -> int:
    """A process or round given as an int or as the string of one (a JSON object key)."""
    if type(key) is int:
        return key
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            pass
    raise InvalidScenario([f"{what}: key {shown(key)} is not an int"])


def _message(data, what: str) -> ProtocolMessage:
    try:
        return ProtocolMessage.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario([f"{what}: bad message {shown(data)}: {exc!r}"]) from None


def _scripted_send(send, n: int, what: str) -> tuple[int, ProtocolMessage]:
    if not isinstance(send, (list, tuple)) or len(send) != 2:
        raise InvalidScenario([f"{what}: send {shown(send)} is not a [receiver, message] pair"])
    receiver, msg = send
    if type(receiver) is not int or not 0 <= receiver < n:
        raise InvalidScenario([f"{what}: scripted receiver {shown(receiver)} is not an int in 0..{n - 1}"])
    return receiver, _message(msg, what)


def _scripted_state(spec, what: str):
    """None, "init", or a dict of state overrides with its messages parsed."""
    if spec is None or spec == "init":
        return spec
    spec = dict(spec_object(spec, f"{what} state", ("rc", "to_send", "cured")))
    # The next compute votes ``rc + 1``, and a ROUND vote is at least 1.
    if "rc" in spec and spec_int(spec, "rc", f"{what}: state") < 0:
        raise InvalidScenario([f"{what}: state rc is {spec['rc']}, below 0"])
    if "cured" in spec and type(spec["cured"]) is not bool:
        raise InvalidScenario([f"{what}: state cured is {shown(spec['cured'])}, not a bool"])
    if "to_send" in spec:
        spec["to_send"] = [_message(m, what) for m in spec_list(spec["to_send"], f"{what} to_send")]
    return spec


def _sim_cure(spec: dict) -> dict[int, tuple[int, int | None]]:
    """EQUIVOCATE_HISTORY's ``{process: [cure round, faulty_since or null]}``."""
    out = {}
    for p, cure in spec_object(spec.get("sim_cure", {}), "EQUIVOCATE_HISTORY sim_cure").items():
        what = f"EQUIVOCATE_HISTORY sim_cure {p!r}"
        if (not isinstance(cure, (list, tuple)) or len(cure) != 2 or type(cure[0]) is not int
                or not (cure[1] is None or type(cure[1]) is int)):
            raise InvalidScenario([f"{what} is {shown(cure)}, not [round, faulty_since or null]"])
        out[_key_int(p, what)] = (cure[0], cure[1])
    return out


# Each strategy kind's spec keys; a spec that holds any other is refused.
_STRATEGY_KEYS = {"BENIGN": ("kind",), "CRASH_SILENT": ("kind",),
                  "ALTERNATING_SETS": ("kind", "p1", "p2"), "SPLIT_SEND": ("kind", "targets"),
                  "EQUIVOCATE_HISTORY": ("kind", "sim_cure"), "ARBITRARY": ("kind", "script"),
                  "WIPE_AND_RUN": ("kind", "target", "sim_until", "wipe_round")}


def build_strategy(config: ScenarioConfig) -> Strategy:
    """The strategy a config names; a spec that cannot be run, or that holds
    a key its kind does not take, raises InvalidScenario."""
    spec = spec_object(config.strategy, "strategy")
    kind = spec.get("kind", "BENIGN")
    if not (isinstance(kind, str) and kind in _STRATEGY_KEYS):
        raise InvalidScenario([f"unknown strategy kind: {shown(kind)}"])
    spec_object(spec, f"{kind} strategy", _STRATEGY_KEYS[kind])
    if kind == "BENIGN":
        return Strategy()
    if kind == "CRASH_SILENT":
        return CrashSilent()
    if kind == "ALTERNATING_SETS":
        return AlternatingSets(spec_ints(spec, "p1", kind), spec_ints(spec, "p2", kind), config.n, config.f)
    if kind == "SPLIT_SEND":
        return SplitSend(spec_ints(spec, "targets", kind), config.broadcasts, config.n)
    if kind == "EQUIVOCATE_HISTORY":
        return EquivocateHistory(config, _sim_cure(spec))
    if kind == "WIPE_AND_RUN":
        return WipeAndRun(spec_int(spec, "target", kind), spec_int(spec, "sim_until", kind, 0),
                          spec_int(spec, "wipe_round", kind), config)
    return Arbitrary(spec.get("script", {}), config.n)


def generate_paired_histories(kind: str, params: dict) -> tuple[ScenarioConfig, ScenarioConfig]:
    """Build the two indistinguishable scenario configs for an impossibility demo.

    ``SOURCE_FLIP`` (the reliable-broadcast impossibility): the source is
    correct then permanently faulty in one history and the exact mirror in the
    other, broadcasting one payload at round 1 and another at the switch; the
    possessed half simulates the correct half, so every permanently correct
    process observes identical bytes.

    ``WIPE_FLIP`` (the cure-ambiguity impossibility, basic-awareness oracle):
    a destination is correct, delivers, then is possessed and wiped in one
    history; in the other it was possessed from the start, mimicked correct
    behaviour, and is wiped at the same round. Its local state and cure event
    at the switch are identical in both. The target must stay correct through
    the round its delivery falls due, ``1 + DELIVERY_DELAY``, so ``delta_1``
    must be at least that.

    The sizes, rounds, process indices and the seed in ``params`` must be
    ints and the payloads strings; anything else, or a key the kind does not
    take, is an ``InvalidScenario`` naming the key.
    """
    if kind in ("THEOREM_3", "SOURCE_FLIP"):
        spec_object(params, f"{kind} params",
                    ("n", "delta_b", "delta_1", "source", "horizon", "seed", "m1", "m2"))
        n = spec_int(params, "n", "params", 6)
        delta_b = spec_int(params, "delta_b", "params", 2)
        delta_1 = spec_int(params, "delta_1", "params", 1)
        source = spec_int(params, "source", "params", 0)
        m1 = _payload(params, "m1", "m-first")
        m2 = _payload(params, "m2", "m-second")
        if m1 == m2:
            raise InvalidScenario(["paired histories need two distinct payloads"])
        switch = delta_b + delta_1 + 1
        horizon = spec_int(params, "horizon", "params", switch + 6)
        base = {
            "n": n, "f": 1, "delta_s": 1, "delta_b": delta_b, "delta_c": 1,
            "horizon": horizon, "seed": spec_int(params, "seed", "params", 0),
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "broadcasts": [
                Broadcast(source, 1, m1).to_dict(),
                Broadcast(source, switch, m2).to_dict(),
            ],
        }
        h_correct_first = dict(base)
        h_correct_first["schedule"] = {"trajectories": [
            {"agent_id": 0, "segments": [{"host": source, "first_round": switch, "last_round": None}]}]}
        h_correct_first["strategy"] = {
            "kind": "EQUIVOCATE_HISTORY", "sim_cure": {str(source): [switch, 1]}}
        h_faulty_first = dict(base)
        h_faulty_first["schedule"] = {"trajectories": [
            {"agent_id": 0, "segments": [{"host": source, "first_round": 1, "last_round": switch - 1}]}]}
        h_faulty_first["strategy"] = {"kind": "EQUIVOCATE_HISTORY", "sim_cure": {}}
        return ScenarioConfig.from_dict(h_correct_first), ScenarioConfig.from_dict(h_faulty_first)

    if kind in ("THEOREM_4", "WIPE_FLIP"):
        spec_object(params, f"{kind} params",
                    ("n", "delta_1", "delta_2", "source", "target", "horizon", "seed", "m"))
        n = spec_int(params, "n", "params", 6)
        delta_1 = spec_int(params, "delta_1", "params", 4)
        if delta_1 < 1 + DELIVERY_DELAY:
            raise InvalidScenario([
                f"WIPE_FLIP needs delta_1 >= {1 + DELIVERY_DELAY}: the target, possessed from round "
                f"delta_1 + 1, must be correct in round {1 + DELIVERY_DELAY}, when it delivers the "
                f"round-1 broadcast; got {delta_1}"])
        delta_2 = spec_int(params, "delta_2", "params", 2)
        source = spec_int(params, "source", "params", 0)
        target = spec_int(params, "target", "params", 1)
        if source == target:
            raise InvalidScenario(["paired histories need distinct source and target"])
        m = _payload(params, "m", "m-wipe")
        wipe_round = delta_1 + delta_2
        switch = wipe_round + 1
        horizon = spec_int(params, "horizon", "params", switch + 3)
        base = {
            "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1,
            "horizon": horizon, "seed": spec_int(params, "seed", "params", 0),
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "BFA"},
            "variant": "BFA_WEAK",
            "broadcasts": [Broadcast(source, 1, m).to_dict()],
        }
        h_deliver_first = dict(base)
        h_deliver_first["schedule"] = {"trajectories": [
            {"agent_id": 0, "segments": [
                {"host": target, "first_round": delta_1 + 1, "last_round": wipe_round}]}]}
        h_deliver_first["strategy"] = {
            "kind": "WIPE_AND_RUN", "target": target, "sim_until": 0, "wipe_round": wipe_round}
        h_faulty_first = dict(base)
        h_faulty_first["schedule"] = {"trajectories": [
            {"agent_id": 0, "segments": [
                {"host": target, "first_round": 1, "last_round": wipe_round}]}]}
        h_faulty_first["strategy"] = {
            "kind": "WIPE_AND_RUN", "target": target, "sim_until": delta_1, "wipe_round": wipe_round}
        return ScenarioConfig.from_dict(h_deliver_first), ScenarioConfig.from_dict(h_faulty_first)

    raise InvalidScenario([f"unknown paired-history kind: {shown(kind)}"])


def _payload(params: dict, key: str, default: str) -> bytes:
    value = params.get(key, default)
    if not isinstance(value, str):
        raise InvalidScenario([f"params {key} is {shown(value)}, not a string"])
    return value.encode("utf-8")
