import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbbc.messages import MessageKind, abort_msg, echo_msg, ready_msg, round_msg, send_msg
from mbbc.protocol import (
    ProtocolState,
    Tallies,
    Variant,
    VariantTag,
    compute_phase,
    get_majority,
    init_state,
    on_cured,
    on_p2p_deliver,
    receive,
    send_phase,
    state_fingerprint,
)

FFA6 = Variant.for_tag(VariantTag.FFA_FULL, 1)  # n=6, f=1 unless a test says otherwise
BFA6 = Variant.for_tag(VariantTag.BFA_WEAK, 1)
NFA6 = Variant.for_tag(VariantTag.NFA_WEAK, 1)


def fresh(rc: int = 1) -> ProtocolState:
    state = init_state()
    state.rc = rc
    return state


def vote(kind_map, key, voters):
    for v in voters:
        kind_map.setdefault(key, set()).add(v)


class TestVariant:
    def test_effective_f_doubles_only_without_oracle(self):
        assert Variant.for_tag(VariantTag.FFA_FULL, 2).effective_f == 2
        assert Variant.for_tag(VariantTag.BFA_WEAK, 2).effective_f == 2
        assert Variant.for_tag(VariantTag.NFA_WEAK, 2).effective_f == 4


class TestInit:
    def test_counter_starts_at_one(self):
        assert init_state().rc == 1

    def test_not_cured(self):
        assert init_state().cured is False

    def test_two_inits_equal(self):
        assert init_state() == init_state()

    def test_state_holds_only_what_survives_a_round(self):
        assert [f.name for f in dataclasses.fields(ProtocolState)] == [
            "to_send", "cured", "cured_faulty_since", "rc", "delivered"]


class TestBroadcast:
    """A broadcast call is a payload handed to ``compute_phase``."""

    def sends(self, state: ProtocolState) -> set:
        return {m for m in state.to_send if m.kind is MessageKind.SEND}

    def test_enqueues_send_with_current_round(self):
        state = fresh(rc=999)
        tallies = Tallies(rc_votes={p: 4 for p in range(4)})
        compute_phase(state, tallies, 2, FFA6, n=6, broadcasts=[b"a"])
        assert self.sends(state) == {send_msg(2, 4, b"a")}  # the repaired rc

    def test_distinct_payloads_distinct_entries(self):
        state = fresh()
        compute_phase(state, Tallies(), 0, FFA6, n=6, broadcasts=[b"a", b"b"])
        assert self.sends(state) == {send_msg(0, 1, b"a"), send_msg(0, 1, b"b")}

    def test_same_payload_twice_is_one_entry(self):
        state = fresh()
        compute_phase(state, Tallies(), 0, FFA6, n=6, broadcasts=[b"a", b"a"])
        assert self.sends(state) == {send_msg(0, 1, b"a")}


class TestOnCured:
    def test_sets_flag(self):
        state = fresh()
        on_cured(state)
        assert state.cured is True

    def test_idempotent(self):
        state = fresh()
        on_cured(state, 2)
        snapshot = copy.deepcopy(state)
        on_cured(state, 2)
        assert state == snapshot

    def test_faulty_since_kept_for_compute(self):
        state = fresh()
        on_cured(state, faulty_since=2)
        assert state.cured_faulty_since == 2


class TestSendPhase:
    def test_cured_wipes_and_sends_nothing(self):
        state = fresh()
        state.to_send = frozenset({send_msg(0, 1, b"a")})
        on_cured(state)
        assert send_phase(state) == frozenset()
        assert state.to_send == frozenset()

    def test_queued_messages_all_go_out_once(self):
        """In no particular order: the engine orders a round's sends
        (``test_engine.py::TestSendOrder``)."""
        state = fresh()
        queued = {round_msg(2), send_msg(0, 1, b"a")}
        state.to_send = set(queued)
        msgs = send_phase(state)
        assert len(msgs) == 2 and set(msgs) == queued

    def test_empty_queue_sends_nothing(self):
        assert send_phase(fresh()) == frozenset()


class TestReceive:
    def test_send_from_non_source_ignored(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (3,), send_msg(0, 1, b"a"))
        assert tallies.sends == set()

    def test_send_from_source_recorded(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (0,), send_msg(0, 1, b"a"))
        assert (0, 1, b"a") in tallies.sends

    def test_double_echo_single_vote(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (4,), echo_msg(0, 1, b"a"))
        on_p2p_deliver(tallies, (4,), echo_msg(0, 1, b"a"))
        assert tallies.echos[(0, 1, b"a")] == {4}

    def test_ready_vote_recorded(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (4,), ready_msg(0, 1, b"m"))
        assert tallies.readys[(0, 1, b"m")] == {4}

    def test_round_vote_last_write_wins(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (2,), round_msg(5))
        on_p2p_deliver(tallies, (2,), round_msg(7))
        assert tallies.rc_votes == {2: 7}

    def test_send_counts_when_its_source_is_one_of_its_senders(self):
        tallies = Tallies()
        on_p2p_deliver(tallies, (1, 3), send_msg(0, 1, b"a"))
        assert tallies.sends == set()
        on_p2p_deliver(tallies, (0, 3), send_msg(0, 1, b"a"))
        assert tallies.sends == {(0, 1, b"a")}

    @pytest.mark.parametrize("msg", [send_msg(2, 1, b"a"), echo_msg(0, 1, b"a"), ready_msg(0, 1, b"a"),
                                     abort_msg(0, 1, b"a"), round_msg(4)])
    def test_many_senders_fold_as_one_sender_at_a_time(self, msg):
        grouped, one_by_one = Tallies(), Tallies()
        on_p2p_deliver(grouped, (0, 2, 5), msg)
        for sender in (0, 2, 5):
            on_p2p_deliver(one_by_one, (sender,), msg)
        assert grouped == one_by_one != Tallies()

    def test_no_receipts_give_common_itself(self):
        common = Tallies()
        on_p2p_deliver(common, (1,), echo_msg(0, 1, b"a"))
        assert receive(common, []) is common

    def test_receipts_leave_common_unchanged(self):
        common = Tallies()
        for sender in (1, 2):
            on_p2p_deliver(common, (sender,), echo_msg(0, 1, b"a"))
            on_p2p_deliver(common, (sender,), ready_msg(0, 1, b"a"))
            on_p2p_deliver(common, (sender,), round_msg(3))
        before = copy.deepcopy(common)
        tallies = receive(common, [(4, echo_msg(0, 1, b"a")), (4, round_msg(5)),
                                   (4, send_msg(4, 2, b"b"))])
        assert common == before
        assert tallies.echos == {(0, 1, b"a"): {1, 2, 4}}
        assert tallies.readys == {(0, 1, b"a"): {1, 2}}
        assert tallies.rc_votes == {1: 3, 2: 3, 4: 5} and tallies.sends == {(4, 2, b"b")}
        tallies.readys[(0, 1, b"a")].add(9)
        assert common == before


class TestGetMajority:
    def test_strict_majority(self):
        assert get_majority([5, 5, 5, 5, 9], current=1) == 5

    def test_empty_keeps_current(self):
        assert get_majority([], current=3) == 3

    def test_honest_votes_dominate_adversarial(self):
        # n=6, f=1: four honest identical votes against two forged ones.
        votes = [7, 7, 7, 7, 99, 99]
        # Independent check by exhaustive count.
        counts = {v: votes.count(v) for v in set(votes)}
        assert max(counts.values()) == counts[7]
        assert get_majority(votes, current=1) == 7

    def test_tie_breaks_to_larger(self):
        assert get_majority([3, 3, 8, 8], current=1) == 8

    # ``current=None`` with ``min_backing=F`` is the engine's class-key repair:
    # None unless the top value has more than F votes.
    def test_no_current_and_no_votes_is_none(self):
        assert get_majority([], None, min_backing=1) is None

    @pytest.mark.parametrize("votes", [[4], [4, 6], [4, 4, 6, 6], [9, 4, 4, 6]])
    def test_no_current_and_top_value_at_most_f_votes_is_none(self, votes):
        assert get_majority(votes, None, min_backing=2) is None

    @pytest.mark.parametrize("votes, top", [([4, 4, 4, 6], 4), ([4, 4, 4, 6, 6, 6], 6),
                                            ([9, 6, 6, 6, 4, 4, 4], 6), ([5, 5, 5], 5)])
    def test_no_current_and_top_value_above_f_votes_is_it(self, votes, top):
        assert get_majority(votes, None, min_backing=2) == top


class TestComputePhase:
    def test_echo_quorum_queues_ready(self):
        # n=6, F=1, 4 echo votes: 2*4 = 8 > 7, strictly above (n+F)/2.
        assert 2 * 4 > 6 + 1
        state = fresh(rc=3)
        tallies = Tallies()
        vote(tallies.echos, (0, 1, b"m"), [1, 2, 3, 4])
        compute_phase(state, tallies, 5, FFA6, n=6)
        assert ready_msg(0, 1, b"m") in state.to_send

    def test_echo_below_quorum_queues_abort(self):
        state = fresh(rc=3)
        tallies = Tallies()
        vote(tallies.echos, (0, 1, b"m"), [1, 2])  # 2*2 = 4 <= 7, 2 > F=1
        compute_phase(state, tallies, 5, FFA6, n=6)
        assert any(m.kind is MessageKind.ABORT for m in state.to_send)

    def test_single_echo_queues_nothing(self):
        state = fresh(rc=3)
        tallies = Tallies()
        vote(tallies.echos, (0, 1, b"m"), [1])  # 1 is not > F
        compute_phase(state, tallies, 5, FFA6, n=6)
        assert all(m.kind is MessageKind.ROUND for m in state.to_send)

    def test_ready_quorum_delivers_at_due_round(self):
        state = fresh(rc=4)
        tallies = Tallies()
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])  # 3 > 2F = 2
        deliveries = compute_phase(state, tallies, 5, FFA6, n=6)
        assert deliveries == [(0, b"m")]

    def test_abort_majority_voids_the_ready_quorum(self):
        state = fresh(rc=4)
        tallies = Tallies()
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3, 4, 5])
        vote(tallies.aborts, (0, 1, b"m"), [1, 2])  # 2 > F = 1
        deliveries = compute_phase(state, tallies, 5, FFA6, n=6)
        assert deliveries == []

    def test_ffa_cured_late_delivery_with_early_faulty_at(self):
        state = fresh(rc=6)
        tallies = Tallies()
        on_cured(state, faulty_since=3)  # <= birth+3 = 4
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        assert compute_phase(state, tallies, 5, FFA6, n=6) == [(0, b"m")]

    def test_ffa_cured_late_delivery_blocked_by_late_faulty_at(self):
        state = fresh(rc=6)
        tallies = Tallies()
        on_cured(state, faulty_since=5)  # > birth+3
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        assert compute_phase(state, tallies, 5, FFA6, n=6) == []

    def test_bfa_cured_branch_needs_no_faulty_at(self):
        state = fresh(rc=6)
        tallies = Tallies()
        on_cured(state)
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        assert compute_phase(state, tallies, 5, BFA6, n=6) == [(0, b"m")]

    def test_nfa_delivers_every_round_with_quorum(self):
        variant = Variant.for_tag(VariantTag.NFA_WEAK, 1)  # F = 2
        for rc in (4, 5, 9):
            state = fresh(rc=rc)
            tallies = Tallies()
            vote(tallies.readys, (0, 1, b"m"), [1, 2, 3, 4, 5])  # 5 > 2F = 4
            assert compute_phase(state, tallies, 6, variant, n=7) == [(0, b"m")], rc

    def test_minimal_birth_round_wins(self):
        # Without the rule both keys would fire here: birth=2 via rc=due,
        # birth=1 via the cured branch. Only the smaller birth may deliver.
        state = fresh(rc=5)
        tallies = Tallies()
        on_cured(state)
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        vote(tallies.readys, (0, 2, b"m"), [1, 2, 3])
        deliveries = compute_phase(state, tallies, 5, BFA6, n=6)
        assert deliveries == [(0, b"m")]

    def test_deliveries_in_source_payload_order_not_birth_order(self):
        state = fresh(rc=5)
        tallies = Tallies()
        vote(tallies.readys, (0, 2, b"a"), [1, 2, 3, 4, 5])  # 5 > 2F = 4
        vote(tallies.readys, (0, 1, b"b"), [1, 2, 3, 4, 5])
        assert compute_phase(state, tallies, 6, NFA6, n=7) == [(0, b"a"), (0, b"b")]

    def test_relay_persists_for_quorum_keys(self):
        state = fresh(rc=9)
        tallies = Tallies()
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        compute_phase(state, tallies, 5, FFA6, n=6)
        assert ready_msg(0, 1, b"m") in state.to_send  # no delivery, still relayed

    def test_echo_generated_only_in_birth_plus_one(self):
        for rc, expect in ((2, True), (3, False)):
            state = fresh(rc=rc)
            tallies = Tallies()
            tallies.sends.add((0, 1, b"m"))
            compute_phase(state, tallies, 5, FFA6, n=6)
            assert (echo_msg(0, 1, b"m") in state.to_send) is expect

    def test_broadcast_injection_lands_after_wipe(self):
        state = fresh(rc=2)
        tallies = Tallies()
        state.to_send = {ready_msg(0, 1, b"stale")}
        compute_phase(state, tallies, 3, FFA6, n=6, broadcasts=[b"new"])
        assert send_msg(3, 2, b"new") in state.to_send
        assert ready_msg(0, 1, b"stale") not in state.to_send

    def test_counter_increments_and_votes(self):
        state = fresh(rc=4)
        tallies = Tallies()
        compute_phase(state, tallies, 5, FFA6, n=6)
        assert state.rc == 5
        assert round_msg(5) in state.to_send

    def test_majority_repairs_counter_before_gates(self):
        state = fresh(rc=999)
        tallies = Tallies()
        for p, v in ((0, 4), (1, 4), (2, 4), (3, 4)):
            tallies.rc_votes[p] = v
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        deliveries = compute_phase(state, tallies, 5, FFA6, n=6)
        assert deliveries == [(0, b"m")]  # repaired rc = 4 = birth+3
        assert state.rc == 5

    def test_ffa_no_duplicate_within_one_compute(self):
        state = fresh(rc=4)
        tallies = Tallies()
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        first = compute_phase(state, tallies, 5, FFA6, n=6)
        # Quorum appears again next round; gate must not re-fire at rc=5.
        tallies = Tallies(rc_votes={p: 5 for p in range(4)})
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        second = compute_phase(state, tallies, 5, FFA6, n=6)
        assert first == [(0, b"m")] and second == []

    def test_purity_same_inputs_same_outputs(self):
        tallies = Tallies()
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3])
        vote(tallies.echos, (0, 2, b"x"), [1, 2, 3, 4])
        a, b = fresh(rc=4), fresh(rc=4)
        out_a = compute_phase(a, tallies, 5, FFA6, n=6)
        out_b = compute_phase(b, tallies, 5, FFA6, n=6)
        assert out_a == out_b and a == b

    def test_tallies_are_only_read(self):
        # A READY quorum that more than F ABORT votes void, beside one that
        # stands: the phase decides both without writing to the tallies.
        tallies = Tallies(rc_votes={p: 4 for p in range(4)})
        tallies.sends.add((0, 3, b"s"))
        vote(tallies.echos, (0, 2, b"e"), [1, 2])
        vote(tallies.readys, (0, 1, b"m"), [1, 2, 3, 4, 5])
        vote(tallies.aborts, (0, 1, b"m"), [1, 2])  # 2 > F = 1
        vote(tallies.readys, (1, 1, b"k"), [1, 2, 3])
        before = copy.deepcopy(tallies)
        deliveries = compute_phase(fresh(rc=4), tallies, 5, FFA6, n=6)
        assert deliveries == [(1, b"k")]
        assert tallies == before


class TestStateFingerprint:
    @staticmethod
    def build() -> ProtocolState:
        state = fresh(rc=5)
        state.to_send = {round_msg(5), ready_msg(0, 1, b"m")}
        on_cured(state, faulty_since=2)
        state.delivered = {(0, b"m")}
        return state

    def test_equal_fields_equal_digests(self):
        a, b = self.build(), self.build()
        b.to_send = set(reversed(sorted(b.to_send, key=lambda m: m.sort_key())))
        assert a is not b and state_fingerprint(a) == state_fingerprint(b)
        assert state_fingerprint(init_state()) == state_fingerprint(init_state())

    @pytest.mark.parametrize("change", [
        lambda s: s.to_send.add(echo_msg(0, 1, b"m")),
        lambda s: s.to_send.clear(),
        lambda s: setattr(s, "rc", 6),
        lambda s: setattr(s, "cured", False),
        lambda s: setattr(s, "cured_faulty_since", 3),
        lambda s: setattr(s, "cured_faulty_since", None),
        lambda s: s.delivered.add((1, b"m")),
        lambda s: s.delivered.clear(),
    ], ids=["to_send+", "to_send-", "rc", "cured", "cured_faulty_since", "cured_faulty_since_none",
            "delivered+", "delivered-"])
    def test_each_field_moves_the_digest(self, change):
        state = self.build()
        change(state)
        assert state_fingerprint(state) != state_fingerprint(self.build())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 12), f=st.integers(1, 3), votes=st.integers(0, 12))
def test_ready_and_abort_mutually_exclusive(n, f, votes):
    """A key can trigger READY or ABORT, never both, per the strict thresholds."""
    ready = 2 * votes > n + f
    abort = not ready and votes > f
    assert not (ready and abort)
    state = fresh(rc=3)
    tallies = Tallies()
    vote(tallies.echos, (0, 1, b"m"), list(range(votes)))
    compute_phase(state, tallies, 0, Variant(VariantTag.FFA_FULL, f), n=n)
    kinds = {m.kind for m in state.to_send}
    assert (MessageKind.READY in kinds) == ready
    assert (MessageKind.ABORT in kinds) == abort
