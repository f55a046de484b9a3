package congest

import (
	"testing"

	"qclique/internal/xrand"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0); err == nil {
		t.Error("0-node network should fail")
	}
	nw, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 4 {
		t.Errorf("N = %d", nw.N())
	}
}

func TestExchangeDirectRoundsAreMaxLinkLoad(t *testing.T) {
	nw, err := NewNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Src: 0, Dst: 1, Data: []Word{1, 2, 3}}, // 3 words on (0,1)
		{Src: 0, Dst: 2, Data: []Word{1}},
		{Src: 3, Dst: 1, Data: []Word{1, 2}},
		{Src: 0, Dst: 1, Data: []Word{9}}, // (0,1) now 4 words
	}
	inboxes, err := nw.ExchangeBalanced("t", msgs)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sinks 6 words: Lemma 1 charges 2·⌈6/4⌉ = 4 rounds, which here
	// equals the hottest link's 4 words that direct sending would cost.
	if nw.Rounds() != 4 {
		t.Errorf("rounds = %d, want 4", nw.Rounds())
	}
	if len(inboxes[1]) != 3 {
		t.Errorf("node 1 inbox = %d messages, want 3", len(inboxes[1]))
	}
	if len(inboxes[0]) != 0 || len(inboxes[3]) != 0 {
		t.Error("unexpected inbox content")
	}
	// Delivery order is stable.
	if inboxes[1][0].Data[0] != 1 || inboxes[1][2].Data[0] != 9 {
		t.Error("inbox order not stable")
	}
	m := nw.Metrics()
	if m.Words != 7 || m.MaxLinkLoad != 4 || m.Phases != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestExchangeRejectsBadEndpoints(t *testing.T) {
	nw, _ := NewNetwork(3)
	if _, err := nw.ExchangeBalanced("t", []Message{{Src: 0, Dst: 3}}); err == nil {
		t.Error("out-of-range destination should fail")
	}
	if _, err := nw.ExchangeBalanced("t", []Message{{Src: -1, Dst: 1}}); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := nw.ExchangeBalanced("t", []Message{{Src: 1, Dst: 1}}); err == nil {
		t.Error("self-message should fail")
	}
}

func TestLemma1TwoRounds(t *testing.T) {
	// Lemma 1: <= n words per source and per destination delivers in two
	// rounds, with an explicitly verified schedule.
	const n = 8
	nw, err := NewNetwork(n, WithScheduleValidation())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	var msgs []Message
	srcLoad := make([]int, n)
	dstLoad := make([]int, n)
	for i := 0; i < 200; i++ {
		s := NodeID(rng.IntN(n))
		d := NodeID(rng.IntN(n))
		if s == d || srcLoad[s] >= n || dstLoad[d] >= n {
			continue
		}
		srcLoad[s]++
		dstLoad[d]++
		msgs = append(msgs, Message{Src: s, Dst: d, Data: []Word{Word(i)}})
	}
	if _, err := nw.ExchangeBalanced("lemma1", msgs); err != nil {
		t.Fatal(err)
	}
	if nw.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2 (Lemma 1)", nw.Rounds())
	}
}

func TestBalancedRoundsScaling(t *testing.T) {
	// k*n words per source/destination should cost 2k rounds.
	const n = 4
	for _, k := range []int64{1, 2, 5} {
		nw, err := NewNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []Message
		// Every node sends k*n words spread over all other nodes: k*n per
		// source; each destination receives from n-1 sources with k*n/(n-1)
		// each... simpler: node 0 sends k*n single words to node 1..n-1
		// round-robin, all nodes do the same shifted.
		for s := 0; s < n; s++ {
			for i := int64(0); i < k*int64(n); i++ {
				d := (s + 1 + int(i)%(n-1)) % n
				msgs = append(msgs, Message{Src: NodeID(s), Dst: NodeID(d)})
			}
		}
		if _, err := nw.ExchangeBalanced("scale", msgs); err != nil {
			t.Fatal(err)
		}
		if nw.Rounds() != 2*k {
			t.Errorf("k=%d: rounds = %d, want %d", k, nw.Rounds(), 2*k)
		}
	}
}

func TestExchangeBalancedEmpty(t *testing.T) {
	nw, _ := NewNetwork(3)
	inboxes, err := nw.ExchangeBalanced("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Rounds() != 0 {
		t.Errorf("empty exchange cost %d rounds", nw.Rounds())
	}
	for _, ib := range inboxes {
		if len(ib) != 0 {
			t.Error("empty exchange delivered messages")
		}
	}
}

func TestChargeModesMatchPayloadModes(t *testing.T) {
	// ChargeBalanced must produce the same accounting as the
	// payload-carrying ExchangeBalanced.
	const n = 6
	rng := xrand.New(9)
	var msgs []Message
	var loads []Load
	for i := 0; i < 120; i++ {
		s := NodeID(rng.IntN(n))
		d := NodeID(rng.IntN(n))
		if s == d {
			continue
		}
		words := 1 + rng.IntN(5)
		msgs = append(msgs, Message{Src: s, Dst: d, Data: make([]Word, words)})
		loads = append(loads, Load{Src: s, Dst: d, Words: int64(words)})
	}
	c, _ := NewNetwork(n)
	d, _ := NewNetwork(n)
	if _, err := c.ExchangeBalanced("x", msgs); err != nil {
		t.Fatal(err)
	}
	if err := d.ChargeBalanced("x", loads); err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != d.Rounds() {
		t.Errorf("balanced: payload %d rounds, charge %d rounds", c.Rounds(), d.Rounds())
	}
	if cm, dm := c.Metrics(), d.Metrics(); cm != dm {
		t.Errorf("charge metrics %+v differ from payload metrics %+v", dm, cm)
	}
}

func TestChargeValidation(t *testing.T) {
	nw, _ := NewNetwork(3)
	if err := nw.ChargeBalanced("t", []Load{{Src: 0, Dst: 1, Words: -1}}); err == nil {
		t.Error("negative load should fail")
	}
	if err := nw.ChargeBalanced("t", []Load{{Src: 0, Dst: 0, Words: 1}}); err == nil {
		t.Error("self-load should fail")
	}
}

func TestBroadcastCosts(t *testing.T) {
	nw, _ := NewNetwork(5)
	if err := nw.Broadcast("b", 2, 7); err != nil {
		t.Fatal(err)
	}
	if nw.Rounds() != 7 {
		t.Errorf("broadcast rounds = %d, want 7", nw.Rounds())
	}
	if nw.Metrics().Words != 7*4 {
		t.Errorf("broadcast words = %d, want 28", nw.Metrics().Words)
	}
	nw, _ = NewNetwork(5)
	if err := nw.BroadcastAll("g", 3); err != nil {
		t.Fatal(err)
	}
	if nw.Rounds() != 3 {
		t.Errorf("gossip rounds = %d, want 3", nw.Rounds())
	}
	if err := nw.Broadcast("bad", 9, 1); err == nil {
		t.Error("out-of-range broadcaster should fail")
	}
	if err := nw.Broadcast("bad", 1, -1); err == nil {
		t.Error("negative broadcast should fail")
	}
	if err := nw.BroadcastAll("bad", -1); err == nil {
		t.Error("negative gossip should fail")
	}
}

func TestMetricsAccumulationAndReset(t *testing.T) {
	nw, _ := NewNetwork(3)
	if _, err := nw.ExchangeBalanced("p1", []Message{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.ExchangeBalanced("p2", []Message{{Src: 1, Dst: 2, Data: []Word{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	want := Metrics{Rounds: 4, Phases: 2, Words: 3, MaxLinkLoad: 2}
	if m := nw.Metrics(); m != want {
		t.Errorf("metrics = %+v, want %+v", m, want)
	}
}

func TestMessageWords(t *testing.T) {
	if (Message{}).Words() != 1 {
		t.Error("empty message still occupies one slot")
	}
	if (Message{Data: []Word{1, 2, 3}}).Words() != 3 {
		t.Error("word count wrong")
	}
}
