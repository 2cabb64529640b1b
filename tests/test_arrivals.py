import numpy as np
import pytest

from dronefleet.arrivals import ArrivalProcess

from oracles import markov_arrivals


def bernoulli(p, mean=55, half_width=15):
    return ArrivalProcess(truck_interval=30, batch_mean=mean, batch_half_width=half_width, p_high=p)


def mmb(p_high_to_low, p_low_to_high, per_slot_phase=True):
    return ArrivalProcess(
        truck_interval=30,
        batch_mean=55,
        batch_half_width=15,
        p_high=0.9,
        p_low=0.1,
        rule="markov",
        p_high_to_low=p_high_to_low,
        p_low_to_high=p_low_to_high,
        per_slot_phase=per_slot_phase,
    )


def test_opportunity_slots():
    # a sure truck comes on every opportunity slot and on no other
    proc, rng = bernoulli(1.0), np.random.default_rng(0)
    hits = [t for t in range(100) if proc.draw_batch(t, rng)]
    assert hits == [0, 30, 60, 90]
    with pytest.raises(ValueError):
        ArrivalProcess(truck_interval=0, batch_mean=1, batch_half_width=0, p_high=1.0)


def test_batch_support_is_closed_interval():
    proc = bernoulli(1.0, 55, 15)
    rng = np.random.default_rng(0)
    draws = {proc.draw_batch(0, rng) for _ in range(5000)}
    assert min(draws) == 40
    assert max(draws) == 70
    with pytest.raises(ValueError):
        bernoulli(1.0, mean=10, half_width=11)


def test_degenerate_batch():
    proc = bernoulli(1.0, mean=7, half_width=0)
    rng = np.random.default_rng(0)
    assert all(proc.draw_batch(0, rng) == 7 for _ in range(10))


def test_no_randomness_consumed_off_opportunity():
    # the same holds under every rate rule, the chain's own step aside
    square = ArrivalProcess(30, 55, 15, p_high=0.5, p_low=0.5, rule="square", period=300)
    for proc in (bernoulli(0.5), square, mmb(0.5, 0.5)):
        rng = np.random.default_rng(123)
        for t in range(1, 30):
            assert proc.draw_batch(t, rng) == 0
        # the stream is untouched, so a fresh generator agrees at t=30
        a = proc.draw_batch(30, rng)
        b = proc.draw_batch(30, np.random.default_rng(123))
        assert a == b


def test_bernoulli_rate_and_validation():
    proc = bernoulli(0.3)
    assert proc.rate_at(0) == 0.3
    assert proc.rate_at(12345) == 0.3
    with pytest.raises(ValueError):
        bernoulli(1.2)
    with pytest.raises(ValueError):
        ArrivalProcess(30, 55, 15, p_high=0.3, rule="poisson")


def test_bernoulli_truck_frequency():
    proc = bernoulli(0.25)
    rng = np.random.default_rng(7)
    n = 20_000
    trucks = sum(proc.draw_batch(30 * k, rng) > 0 for k in range(n))
    assert abs(trucks / n - 0.25) < 0.01


def test_tvb_square_wave():
    proc = ArrivalProcess(30, 55, 15, p_high=0.9, p_low=0.1, rule="square", period=300)
    for t in range(0, 1800):
        expected = 0.9 if (t // 300) % 2 == 0 else 0.1
        assert proc.rate_at(t) == expected
    # phase boundaries are sharp
    assert proc.rate_at(299) == 0.9
    assert proc.rate_at(300) == 0.1
    assert proc.rate_at(599) == 0.1
    assert proc.rate_at(600) == 0.9
    with pytest.raises(ValueError):
        ArrivalProcess(30, 55, 15, p_high=0.9, p_low=0.1, rule="square", period=0)


def test_mmb_phase_step_probabilities():
    proc = mmb(0.15, 0.15)
    rng = np.random.default_rng(5)
    stays_high = 0
    for _ in range(20_000):
        proc.is_high = True
        proc.advance_slot(0, rng)
        stays_high += proc.is_high
    assert abs(stays_high / 20_000 - 0.85) < 0.01
    leaves_low = 0
    for _ in range(20_000):
        proc.is_high = False
        proc.advance_slot(0, rng)
        leaves_low += proc.is_high
    assert abs(leaves_low / 20_000 - 0.15) < 0.01


def test_mmb_starts_high_and_steps_after_draws():
    proc = mmb(1.0, 1.0)
    rng = np.random.default_rng(0)
    # deterministic flip every slot: rate at slot t reflects the phase
    # before that slot's advance
    assert proc.rate_at(0) == 0.9
    proc.advance_slot(0, rng)
    assert proc.rate_at(1) == 0.1
    proc.advance_slot(1, rng)
    assert proc.rate_at(2) == 0.9


def test_mmb_per_opportunity_phase_only_steps_on_opportunities():
    proc = mmb(1.0, 1.0, per_slot_phase=False)
    rng = np.random.default_rng(0)
    for t in range(1, 30):
        proc.advance_slot(t, rng)
        assert proc.is_high  # untouched between opportunities
    proc.advance_slot(30, rng)
    assert not proc.is_high


def test_mmb_symmetric_occupancy():
    proc = mmb(0.15, 0.15)
    rng = np.random.default_rng(11)
    high = 0
    n = 50_000
    for t in range(n):
        high += proc.is_high
        proc.advance_slot(t, rng)
    assert abs(high / n - 0.5) < 0.02


@pytest.mark.parametrize("per_slot_phase", [True, False], ids=["per-slot", "per-opportunity"])
def test_mmb_matches_a_scalar_chain_in_simulator_order(per_slot_phase):
    # the simulator's order: the opportunity's draws, then the phase step
    proc = mmb(0.15, 0.15, per_slot_phase)
    rng = np.random.default_rng(21)
    batches, phases = [], []
    for t in range(20_000):
        batches.append(proc.draw_batch(t, rng) if t % proc.truck_interval == 0 else 0)
        proc.advance_slot(t, rng)
        phases.append(proc.is_high)
    want_batches, want_phases = markov_arrivals(
        mmb(0.15, 0.15, per_slot_phase), np.random.default_rng(21), 20_000
    )
    assert batches == want_batches
    assert phases == want_phases
    assert 0 < sum(phases) < len(phases) and sum(b > 0 for b in batches) > 100


@pytest.mark.parametrize("per_slot_phase", [True, False], ids=["per-slot", "per-opportunity"])
def test_mmb_stepped_once_per_interval_matches_a_scalar_chain(per_slot_phase):
    # the simulator's order: an opportunity's draws, then one chain call up
    # to the next opportunity
    proc = mmb(0.15, 0.15, per_slot_phase)
    rng = np.random.default_rng(21)
    interval, slots = proc.truck_interval, 18_000
    batches, phases = [], []
    for t in range(0, slots, interval):
        batches.append(proc.draw_batch(t, rng))
        proc.advance_slot(t, rng, interval)
        phases.append(proc.is_high)
    oracle_rng = np.random.default_rng(21)
    want_batches, want_phases = markov_arrivals(
        mmb(0.15, 0.15, per_slot_phase), oracle_rng, slots
    )
    assert batches == want_batches[::interval]
    assert phases == want_phases[interval - 1 :: interval]
    assert rng.random() == oracle_rng.random()  # the same uniforms taken
    assert 0 < sum(phases) < len(phases) and sum(b > 0 for b in batches) > 100


@pytest.mark.parametrize("per_slot_phase", [True, False], ids=["per-slot", "per-opportunity"])
def test_mmb_span_step_matches_single_slot_steps(per_slot_phase):
    # spans that start and end anywhere, opportunities or not
    spans = np.random.default_rng(3).integers(0, 75, size=300).tolist()
    proc, twin = mmb(0.3, 0.3, per_slot_phase), mmb(0.3, 0.3, per_slot_phase)
    rng, twin_rng = np.random.default_rng(8), np.random.default_rng(8)
    t = 0
    for span in spans:
        proc.advance_slot(t, rng, span)
        for slot in range(t, t + span):
            twin.advance_slot(slot, twin_rng)
        t += span
        assert proc.is_high == twin.is_high, t
    assert rng.random() == twin_rng.random()
