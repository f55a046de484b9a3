package congest

// The fault injector's contract tests: a disabled plan is bit-identical to
// an unarmed network, equal seeds give equal schedules, recovered faults
// surcharge accounting without touching delivery, unrecovered faults fail
// phases with typed errors and deterministic crash windows, and MaxFaults
// caps the outage.

import (
	"errors"
	"math"
	"testing"
)

// chatter runs a fixed little protocol over nw and returns node 1's inbox
// payloads flattened, so tests can compare delivery across networks.
func chatter(t *testing.T, nw *Network) []Word {
	t.Helper()
	msgs := []Message{
		{Src: 0, Dst: 1, Data: []Word{10, 11, 12}},
		{Src: 2, Dst: 1, Data: []Word{20}},
		{Src: 3, Dst: 0, Data: []Word{30, 31}},
	}
	inboxes, err := nw.ExchangeBalanced("t/balanced", msgs)
	if err != nil {
		t.Fatal(err)
	}
	var got []Word
	for _, m := range inboxes[1] {
		got = append(got, m.Data...)
	}
	if err := nw.Broadcast("t/bcast", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := nw.BroadcastAll("t/gossip", 3); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{DropRate: -0.1},
		{DupRate: 1.5},
		{CorruptRate: 2},
		{CrashRate: -1},
		{DropRate: 0.5, DupRate: 0.4, DelayRate: 0.3}, // sum > 1
		{DelayRate: 0.1, MaxDelayRounds: -1},
		{DelayRate: 0.1, MaxDelayRounds: maxDelayRoundsCap + 1},
		{DelayRate: 1, MaxDelayRounds: math.MaxInt}, // wrapped the round counter negative
		{CrashRate: 0.1, CrashDownPhases: -2},
		{CorruptRate: 0.1, MaxFaults: -1},
		{DropRate: math.NaN()},
		{DupRate: math.NaN()},
		{DelayRate: math.NaN()},
		{CorruptRate: math.NaN()},
		{CrashRate: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v): Validate accepted a malformed plan", i, p)
		}
		if _, err := NewNetwork(4, WithFaults(p)); err == nil && p.Enabled() {
			t.Errorf("plan %d (%+v): NewNetwork accepted a malformed plan", i, p)
		}
	}
	if err := (FaultPlan{Seed: 7, DropRate: 0.3, DupRate: 0.3, DelayRate: 0.4, MaxDelayRounds: 2}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (FaultPlan{DelayRate: 1, MaxDelayRounds: maxDelayRoundsCap}).Validate(); err != nil {
		t.Errorf("plan at the delay cap rejected: %v", err)
	}
	if (FaultPlan{}).Enabled() {
		t.Error("zero plan reports Enabled")
	}
}

func TestZeroPlanIsBitIdentical(t *testing.T) {
	plain, _ := NewNetwork(4)
	armed, err := NewNetwork(4, WithFaults(FaultPlan{Seed: 99}))
	if err != nil {
		t.Fatal(err)
	}
	got := chatter(t, armed)
	want := chatter(t, plain)
	if len(got) != len(want) {
		t.Fatalf("delivery differs: %v vs %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery differs at %d: %v vs %v", i, got, want)
		}
	}
	if armed.Metrics() != plain.Metrics() {
		t.Errorf("metrics differ:\narmed %+v\nplain %+v", armed.Metrics(), plain.Metrics())
	}
	if f := armed.Metrics().Faults; f != (FaultCounters{}) {
		t.Errorf("zero plan injected faults: %+v", f)
	}
}

func TestFaultScheduleDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, DropRate: 0.2, DupRate: 0.2, DelayRate: 0.2, MaxDelayRounds: 3}
	a, err := NewNetwork(4, WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewNetwork(4, WithFaults(plan))
	ga, gb := chatter(t, a), chatter(t, b)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("delivery differs between identical runs")
		}
	}
	if a.Metrics() != b.Metrics() {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a.Metrics(), b.Metrics())
	}
	c, _ := NewNetwork(4, WithFaults(FaultPlan{Seed: 43, DropRate: 0.2, DupRate: 0.2, DelayRate: 0.2, MaxDelayRounds: 3}))
	chatter(t, c)
	if c.Metrics().Faults == a.Metrics().Faults && c.Metrics().Rounds == a.Metrics().Rounds {
		t.Log("warning: different seeds produced identical schedules (possible but unlikely)")
	}
}

func TestRecoveredFaultsKeepDeliveryIdentical(t *testing.T) {
	plain, _ := NewNetwork(4)
	want := chatter(t, plain)
	base := plain.Metrics()

	cases := []struct {
		name  string
		plan  FaultPlan
		check func(t *testing.T, m Metrics)
	}{
		{"drop", FaultPlan{Seed: 1, DropRate: 1}, func(t *testing.T, m Metrics) {
			if m.Faults.Dropped == 0 || m.Faults.RetransmitRounds == 0 {
				t.Errorf("drop counters not advanced: %+v", m.Faults)
			}
			if m.Rounds <= base.Rounds {
				t.Errorf("rounds %d not surcharged over fault-free %d", m.Rounds, base.Rounds)
			}
			if m.Words != base.Words {
				t.Errorf("drop changed words: %d vs %d", m.Words, base.Words)
			}
		}},
		{"dup", FaultPlan{Seed: 1, DupRate: 1}, func(t *testing.T, m Metrics) {
			if m.Faults.Duplicated == 0 {
				t.Errorf("dup counter not advanced: %+v", m.Faults)
			}
			if m.Words <= base.Words {
				t.Errorf("words %d not surcharged over fault-free %d", m.Words, base.Words)
			}
			if m.Rounds != base.Rounds {
				t.Errorf("dup changed rounds: %d vs %d", m.Rounds, base.Rounds)
			}
		}},
		{"delay", FaultPlan{Seed: 1, DelayRate: 1, MaxDelayRounds: 3}, func(t *testing.T, m Metrics) {
			if m.Faults.Delayed == 0 || m.Faults.DelayRounds == 0 {
				t.Errorf("delay counters not advanced: %+v", m.Faults)
			}
			if m.Rounds <= base.Rounds {
				t.Errorf("rounds %d not surcharged over fault-free %d", m.Rounds, base.Rounds)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := NewNetwork(4, WithFaults(tc.plan))
			if err != nil {
				t.Fatal(err)
			}
			got := chatter(t, nw)
			if len(got) != len(want) {
				t.Fatalf("delivery differs under %s: %v vs %v", tc.name, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("delivery differs under %s at %d", tc.name, i)
				}
			}
			m := nw.Metrics()
			tc.check(t, m)
			if m.Faults.FailedPhases != 0 {
				t.Errorf("recovered-only plan failed phases: %+v", m.Faults)
			}
		})
	}
}

func TestCorruptionFailsPhaseAfterCharging(t *testing.T) {
	nw, err := NewNetwork(4, WithFaults(FaultPlan{Seed: 5, CorruptRate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	_, xerr := nw.ExchangeBalanced("t/x", []Message{{Src: 0, Dst: 1, Data: []Word{1, 2}}})
	var fe *FaultError
	if !errors.As(xerr, &fe) || fe.Kind != FaultCorrupt {
		t.Fatalf("want FaultCorrupt, got %v", xerr)
	}
	if fe.Node != -1 {
		t.Errorf("corruption has a victim node: %d", fe.Node)
	}
	m := nw.Metrics()
	if m.Rounds == 0 || m.Words == 0 {
		t.Errorf("corrupted phase cost not charged: %+v", m)
	}
	if m.Faults.Corrupted != 1 || m.Faults.FailedPhases != 1 {
		t.Errorf("corruption counters: %+v", m.Faults)
	}
	// Bulk phases fail the same way.
	if gerr := nw.Broadcast("t/g", 0, 2); gerr == nil || !errors.As(gerr, &fe) {
		t.Errorf("Broadcast under corruption: %v", gerr)
	}
	if berr := nw.BroadcastAll("t/b", 1); berr == nil || !errors.As(berr, &fe) {
		t.Errorf("BroadcastAll under corruption: %v", berr)
	}
}

func TestCrashWindowClearsDeterministically(t *testing.T) {
	nw, err := NewNetwork(4, WithFaults(FaultPlan{Seed: 5, CrashRate: 1, CrashDownPhases: 2, MaxFaults: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var fe *FaultError
	// Attempt 1: the crash itself. No traffic flows, nothing is charged.
	if _, xerr := nw.ExchangeBalanced("t/x", []Message{{Src: 0, Dst: 1, Data: []Word{1}}}); !errors.As(xerr, &fe) || fe.Kind != FaultCrash {
		t.Fatalf("want FaultCrash, got %v", xerr)
	}
	if fe.Node < 0 || int(fe.Node) >= nw.N() {
		t.Errorf("crash victim %d out of range", fe.Node)
	}
	if m := nw.Metrics(); m.Rounds != 0 || m.Words != 0 {
		t.Errorf("crashed phase charged traffic: %+v", m)
	}
	// Attempts 2 and 3: still down.
	for i := 0; i < 2; i++ {
		if _, xerr := nw.ExchangeBalanced("t/x", []Message{{Src: 0, Dst: 1, Data: []Word{1}}}); !errors.As(xerr, &fe) {
			t.Fatalf("attempt %d during down window: %v", i+2, xerr)
		}
	}
	m := nw.Metrics()
	if m.Faults.Crashes != 1 || m.Faults.Restarts != 1 || m.Faults.FailedPhases != 3 {
		t.Errorf("crash counters after window: %+v", m.Faults)
	}
	// Attempt 4: restarted, budget spent — the phase succeeds.
	if _, xerr := nw.ExchangeBalanced("t/x", []Message{{Src: 0, Dst: 1, Data: []Word{1}}}); xerr != nil {
		t.Fatalf("phase after restart: %v", xerr)
	}
	if nw.Rounds() == 0 {
		t.Error("post-restart phase not charged")
	}
}

func TestMaxFaultsCapsUnrecoveredFaults(t *testing.T) {
	nw, err := NewNetwork(4, WithFaults(FaultPlan{Seed: 5, CorruptRate: 1, MaxFaults: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if berr := nw.Broadcast("t/b", 0, 1); berr == nil {
			t.Fatalf("fault %d not injected", i+1)
		}
	}
	for i := 0; i < 3; i++ {
		if berr := nw.Broadcast("t/b", 0, 1); berr != nil {
			t.Fatalf("budget-exhausted phase %d failed: %v", i+1, berr)
		}
	}
	if got := nw.Metrics().Faults.Corrupted; got != 2 {
		t.Errorf("Corrupted = %d, want 2", got)
	}
}

func TestFaultCountersFlowThroughDeltaAndAdd(t *testing.T) {
	nw, err := NewNetwork(4, WithFaults(FaultPlan{Seed: 1, DupRate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	before := nw.Metrics()
	if _, xerr := nw.ExchangeBalanced("t/x", []Message{{Src: 0, Dst: 1, Data: []Word{1, 2, 3}}}); xerr != nil {
		t.Fatal(xerr)
	}
	d := nw.DeltaSince(before)
	if d.Faults.Duplicated != 1 {
		t.Errorf("delta Duplicated = %d, want 1", d.Faults.Duplicated)
	}
	var agg FaultCounters
	agg.Add(d.Faults)
	agg.Add(d.Faults)
	if agg.Duplicated != 2 {
		t.Errorf("Add did not merge fault counters: %+v", agg)
	}
	if (FaultCounters{Dropped: 1, Corrupted: 2}).Injected() != 3 {
		t.Error("Injected miscounts")
	}
}

func TestFaultErrorStrings(t *testing.T) {
	crash := (&FaultError{Kind: FaultCrash, Node: 3, Label: "p"}).Error()
	corrupt := (&FaultError{Kind: FaultCorrupt, Node: -1, Label: "p"}).Error()
	if crash == corrupt || crash == "" {
		t.Errorf("degenerate error strings: %q / %q", crash, corrupt)
	}
	if FaultCrash.String() != "crash" || FaultCorrupt.String() != "corrupt" {
		t.Error("FaultKind strings")
	}
}

// FuzzFaultPlan checks the two properties a plan needs as a cache key and
// as a network option: every plan Validate accepts equals itself (a NaN
// rate would not, so it would never hit or leave a cache), and it arms a
// network whose balanced exchanges and broadcasts fail, if at all, only
// with a typed FaultError.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(7), 0.1, 0.1, 0.1, 2, 0.05, 0.02, 1, 1)
	f.Add(uint64(1), 1.0, 0.0, 0.0, 0, 1.0, 0.0, 0, 0)
	f.Add(uint64(0), math.NaN(), 0.0, 0.0, 0, 0.0, 0.0, 0, 0)
	f.Add(uint64(3), 0.0, 0.0, 1.0, math.MaxInt, 0.0, 0.0, 0, 0)
	f.Add(uint64(3), 0.0, 0.0, 1.0, maxDelayRoundsCap, 0.0, 0.0, 0, 0)
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, delay float64, maxDelay int,
		corrupt, crash float64, down, maxFaults int) {
		p := FaultPlan{
			Seed: seed, DropRate: drop, DupRate: dup, DelayRate: delay, MaxDelayRounds: maxDelay,
			CorruptRate: corrupt, CrashRate: crash, CrashDownPhases: down, MaxFaults: maxFaults,
		}
		if p.Validate() != nil {
			return
		}
		if key := map[FaultPlan]bool{p: true}; !key[p] {
			t.Fatalf("accepted plan %+v does not equal itself", p)
		}
		nw, err := NewNetwork(4, WithFaults(p))
		if err != nil {
			t.Fatalf("accepted plan %+v rejected by NewNetwork: %v", p, err)
		}
		var fe *FaultError
		rounds := nw.Metrics().Rounds
		for i := 0; i < 3; i++ {
			_, xerr := nw.ExchangeBalanced("fuzz/x", []Message{
				{Src: 0, Dst: 1, Data: []Word{1, 2}}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1},
			})
			xrounds := nw.Metrics().Rounds
			berr := nw.Broadcast("fuzz/b", 2, 3)
			brounds := nw.Metrics().Rounds
			for _, err := range []error{xerr, berr} {
				if err != nil && !errors.As(err, &fe) {
					t.Fatalf("plan %+v: untyped phase failure: %v", p, err)
				}
			}
			if xrounds < rounds || brounds < xrounds {
				t.Fatalf("plan %+v: rounds went %d → %d → %d", p, rounds, xrounds, brounds)
			}
			rounds = brounds
		}
	})
}
