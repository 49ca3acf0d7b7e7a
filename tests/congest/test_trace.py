"""Tests for round-ledger accounting."""

from repro.congest.trace import PhaseRecord, RoundLedger


def test_charge_accumulates():
    ledger = RoundLedger()
    ledger.charge("a", 10, 5)
    ledger.charge("b", 20, 7)
    assert ledger.total_rounds == 30
    assert ledger.total_messages == 12


def test_charge_phase_adds_barrier():
    ledger = RoundLedger(barrier_depth=4)
    ledger.charge_phase("a", 10)
    assert ledger.total_rounds == 10 + 2 * 4 + 1
    assert ledger.simulated_rounds == 10


def test_barrier_depth_zero_costs_one_round():
    ledger = RoundLedger()
    ledger.charge_phase("a", 5)
    assert ledger.total_rounds == 6


def test_merge_prefixes_names():
    inner = RoundLedger()
    inner.charge("x", 3)
    outer = RoundLedger()
    outer.merge(inner, prefix="sub/")
    assert outer.records[0].name == "sub/x"
    assert outer.total_rounds == 3


def test_summary_contains_totals():
    ledger = RoundLedger(barrier_depth=2)
    ledger.charge_phase("phase-one", 7, 13)
    text = ledger.summary()
    assert "phase-one" in text
    assert "TOTAL" in text
    assert "13" in text


def test_phase_record_is_frozen():
    record = PhaseRecord("a", 1, 2, 3)
    try:
        record.rounds = 9
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_running_total_matches_a_fresh_sum():
    """``total_rounds`` adds only the records new since its last read;
    interleaved charges, merges and direct appends, and a replaced
    records list, all read back as a fresh sum.  The running total is
    no part of equality or repr."""

    def fresh(ledger):
        return sum(r.rounds + r.barrier_rounds for r in ledger.records)

    ledger = RoundLedger(barrier_depth=3)
    inner = RoundLedger()
    inner.charge("x", 4, 1)
    inner.charge_phase("y", 2)
    steps = [
        lambda: ledger.charge("a", 5, 2),
        lambda: ledger.charge_phase("b", 7),
        lambda: ledger.merge(inner, prefix="in/"),
        lambda: ledger.records.append(PhaseRecord("direct", 11, 0, 2)),
        lambda: None,
        lambda: ledger.charge("c", 0),
    ]
    for step in steps * 2:
        step()
        assert ledger.total_rounds == fresh(ledger)
    assert ledger == RoundLedger(barrier_depth=3, records=list(ledger.records))
    assert "_total" not in repr(ledger)
    ledger.records = ledger.records[:3]
    assert ledger.total_rounds == fresh(ledger)
    ledger.records.append(PhaseRecord("after", 1, 0, 0))
    assert ledger.total_rounds == fresh(ledger)
