package congest

import "testing"

// TestAcquirePayloadBorrowContract exercises the two-generation payload
// arena: payloads written before an Exchange must stay readable through the
// inboxes of that exchange, and the second-next Exchange must recycle the
// generation's storage instead of growing it.
func TestAcquirePayloadBorrowContract(t *testing.T) {
	nw, err := NewNetwork(3)
	if err != nil {
		t.Fatal(err)
	}

	send := func(tag Word) [][]Message {
		p := nw.AcquirePayload(2)
		p = append(p, tag, tag+1)
		inboxes, err := nw.ExchangeBalanced("payload", []Message{{Src: 0, Dst: 1, Data: p}})
		if err != nil {
			t.Fatal(err)
		}
		return inboxes
	}

	inboxes := send(10)
	got := inboxes[1][0].Data
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("first exchange delivered %v", got)
	}
	// The next exchange's payload lives in the other generation, so the
	// previously delivered data must still be intact while the new inboxes
	// are live.
	inboxes2 := send(20)
	if got[0] != 10 || got[1] != 11 {
		t.Fatalf("payload of the previous exchange was clobbered early: %v", got)
	}
	if d := inboxes2[1][0].Data; d[0] != 20 || d[1] != 21 {
		t.Fatalf("second exchange delivered %v", d)
	}

	// Steady state: the arena must recycle rather than grow. Run many more
	// exchanges and check the block count stays put.
	for i := 0; i < 50; i++ {
		send(Word(100 + i))
	}
	for gen, a := range nw.payloads {
		if len(a.blocks) != 1 {
			t.Fatalf("generation %d grew to %d blocks; steady state should recycle one", gen, len(a.blocks))
		}
	}
}

// TestAcquirePayloadLargeBlocks checks that acquisitions beyond the minimum
// block size get a dedicated block and stay contiguous.
func TestAcquirePayloadLargeBlocks(t *testing.T) {
	nw, err := NewNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	n := payloadBlockWords * 3
	p := nw.AcquirePayload(n)
	if cap(p) < n {
		t.Fatalf("capacity %d < requested %d", cap(p), n)
	}
	for i := 0; i < n; i++ {
		p = append(p, Word(i))
	}
	if p[0] != 0 || p[n-1] != Word(n-1) {
		t.Fatal("large payload not contiguous")
	}
}
