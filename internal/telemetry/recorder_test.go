package telemetry

import (
	"sync"
	"testing"
)

func TestRingWraparoundAccounting(t *testing.T) {
	r := NewRing(64) // rounds to 64
	if r.Cap() != 64 {
		t.Fatalf("cap = %d", r.Cap())
	}
	const writes = 1000
	for i := 0; i < writes; i++ {
		r.Publish(Event{Kind: EvVerdict, Value: uint64(i)})
	}
	if got := r.Writes(); got != writes {
		t.Fatalf("writes = %d", got)
	}
	if got := r.Retained(); got != 64 {
		t.Fatalf("retained = %d, want capacity", got)
	}
	// The invariant the issue pins: dropped == writes − retained.
	if got := r.Dropped(); got != writes-64 {
		t.Fatalf("dropped = %d, want %d", got, writes-64)
	}
	// The survivors must be exactly the newest 64, in sequence order.
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(writes - 64 + i); ev.Seq != want || ev.Value != want {
			t.Fatalf("snap[%d] = seq %d value %d, want %d", i, ev.Seq, ev.Value, want)
		}
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.Publish(Event{Kind: EvInstall})
	}
	if r.Retained() != 3 || r.Dropped() != 0 {
		t.Fatalf("retained=%d dropped=%d", r.Retained(), r.Dropped())
	}
}

// TestRingConcurrentPublish drives many producers through one ring under
// -race: publishes must never block, corrupt, or lose accounting.
func TestRingConcurrentPublish(t *testing.T) {
	r := NewRing(128)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Publish(Event{Kind: EvVerdict, Node: id})
			}
		}(uint32(w))
	}
	wg.Wait()
	if got := r.Writes(); got != workers*per {
		t.Fatalf("writes = %d", got)
	}
	if got := r.Retained(); got > r.Cap() {
		t.Fatalf("retained %d exceeds capacity %d", got, r.Cap())
	}
	seen := make(map[uint64]bool)
	for _, ev := range r.Snapshot() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestRecorderDisabledIsNoop(t *testing.T) {
	rec := NewRecorder([]uint32{1, 2}, 64, false)
	rec.Publish(Event{Kind: EvVerdict, Node: 1})
	if s := rec.Stats(); s.Writes != 0 || s.Enabled {
		t.Fatalf("disabled recorder recorded: %+v", s)
	}
	rec.SetEnabled(true)
	rec.Publish(Event{Kind: EvVerdict, Node: 1})
	rec.Publish(Event{Kind: EvVerdict, Node: 9}) // unknown node
	s := rec.Stats()
	if s.Writes != 1 || s.Retained != 1 || s.Unknown != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRecorderFilter(t *testing.T) {
	rec := NewRecorder([]uint32{0, 1}, 64, true)
	fl := Tuple(0x0a000001, 0x0a000002, 1000, 80, 6)
	other := Tuple(0x0a000003, 0x0a000004, 2000, 443, 6)
	rec.Publish(Event{Kind: EvRedirect, Node: 0, Peer: 1, Flow: fl, TS: 10})
	rec.Publish(Event{Kind: EvAuthority, Node: 1, Peer: 0, Flow: fl, TS: 20})
	rec.Publish(Event{Kind: EvVerdict, Node: 1, Verdict: VDelivered, Flow: other, TS: 30})

	if got := len(rec.Events(Filter{})); got != 3 {
		t.Fatalf("unfiltered = %d", got)
	}
	if got := rec.Events(Filter{Flow: fl.Hash}); len(got) != 2 ||
		got[0].Kind != EvRedirect || got[1].Kind != EvAuthority {
		t.Fatalf("flow filter: %+v", got)
	}
	node := uint32(1)
	if got := rec.Events(Filter{Node: &node}); len(got) != 2 {
		t.Fatalf("node filter: %+v", got)
	}
	if got := rec.Events(Filter{Kinds: []EventKind{EvVerdict}}); len(got) != 1 ||
		got[0].Verdict != VDelivered {
		t.Fatalf("kind filter: %+v", got)
	}
	if got := rec.Events(Filter{SinceTS: 10}); len(got) != 2 {
		t.Fatalf("since filter: %+v", got)
	}
	if got := rec.Events(Filter{Limit: 1}); len(got) != 1 || got[0].TS != 30 {
		t.Fatalf("limit must keep the newest: %+v", got)
	}
	if got := rec.Events(Filter{IPDst: 0x0a000002}); len(got) != 2 {
		t.Fatalf("ipdst filter: %+v", got)
	}
	if got := rec.Events(Filter{TPDst: 443}); len(got) != 1 {
		t.Fatalf("tpdst filter: %+v", got)
	}
}

func TestHashFlowStable(t *testing.T) {
	a := HashFlow(1, 2, 3, 4, 5)
	b := HashFlow(1, 2, 3, 4, 5)
	c := HashFlow(1, 2, 3, 4, 6)
	if a != b || a == c || a == 0 {
		t.Fatalf("hash: a=%d b=%d c=%d", a, b, c)
	}
	if HashFlow(0, 0, 0, 0, 0) == 0 {
		t.Fatal("zero tuple must not hash to the 0 sentinel")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	ev := Event{
		Seq: 7, TS: 1234, Kind: EvRedirect, Node: 3, Peer: 5,
		Table: TablePartition, RuleID: 42,
		Flow: Tuple(0x0a000001, 0x0b000002, 1000, 80, 6),
	}
	j := ev.JSON()
	if j.Kind != "redirect" || j.Table != "partition" ||
		j.Src != "10.0.0.1:1000" || j.Dst != "11.0.0.2:80" {
		t.Fatalf("json shape: %+v", j)
	}
	if k, ok := KindFromString(j.Kind); !ok || k != EvRedirect {
		t.Fatalf("kind round trip: %v %v", k, ok)
	}
	if ip, ok := ParseIP("10.0.0.1"); !ok || ip != 0x0a000001 {
		t.Fatalf("ParseIP: %x %v", ip, ok)
	}
	if _, ok := ParseIP("10.0.0"); ok {
		t.Fatal("short IP must fail")
	}
}
