package tcam

import (
	"math/rand"
	"testing"

	"difane/internal/flowspace"
)

func rule(id uint64, prio int32, port uint64) flowspace.Rule {
	m := flowspace.MatchAll()
	if port != 0 {
		m = m.WithExact(flowspace.FTPDst, port)
	}
	return flowspace.Rule{
		ID: id, Priority: prio, Match: m,
		Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(id)},
	}
}

func keyPort(p uint64) flowspace.Key {
	var k flowspace.Key
	k[flowspace.FTPDst] = p
	return k
}

func TestInsertLookupPriority(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 10, 80))
	mustInsert(t, tb, 0, rule(2, 5, 0)) // catch-all, lower priority
	got, ok := tb.Lookup(1, keyPort(80), 100)
	if !ok || got.ID != 1 {
		t.Fatalf("port-80 lookup: got %v ok=%v", got, ok)
	}
	got, ok = tb.Lookup(1, keyPort(443), 100)
	if !ok || got.ID != 2 {
		t.Fatalf("fallthrough lookup: got %v ok=%v", got, ok)
	}
	if tb.Hits.Load() != 2 || tb.Misses.Load() != 0 {
		t.Fatalf("hits=%d misses=%d", tb.Hits.Load(), tb.Misses.Load())
	}
}

func mustInsert(t *testing.T, tb *Table, now float64, r flowspace.Rule) {
	t.Helper()
	if err := tb.Insert(now, r, 0, 0); err != nil {
		t.Fatalf("insert %v: %v", r, err)
	}
}

func TestLookupMissCounts(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 10, 80))
	if _, ok := tb.Lookup(0, keyPort(22), 64); ok {
		t.Fatal("lookup must miss")
	}
	if tb.Misses.Load() != 1 {
		t.Fatalf("misses = %d", tb.Misses.Load())
	}
}

func TestCountersAccumulate(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 10, 80))
	tb.Lookup(1, keyPort(80), 100)
	tb.Lookup(2, keyPort(80), 150)
	pkts, bytes, ok := tb.Counters(1)
	if !ok || pkts != 2 || bytes != 250 {
		t.Fatalf("counters = %d/%d ok=%v", pkts, bytes, ok)
	}
	if _, _, ok := tb.Counters(99); ok {
		t.Fatal("counters for unknown rule must report !ok")
	}
}

func TestReplaceResetsCounters(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 10, 80))
	tb.Lookup(1, keyPort(80), 100)
	mustInsert(t, tb, 2, rule(1, 20, 80)) // same ID, re-installed
	pkts, _, _ := tb.Counters(1)
	if pkts != 0 {
		t.Fatalf("replacement must reset counters, got %d", pkts)
	}
	if tb.Len() != 1 {
		t.Fatalf("replacement must not grow the table: %d", tb.Len())
	}
}

func TestDelete(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 10, 80))
	if !tb.Delete(1) {
		t.Fatal("delete must report existing rule")
	}
	if tb.Delete(1) {
		t.Fatal("second delete must report missing rule")
	}
	if tb.Len() != 0 {
		t.Fatal("table must be empty after delete")
	}
}

func TestDeleteWhere(t *testing.T) {
	tb := New("test", 0, EvictNone)
	for i := uint64(1); i <= 10; i++ {
		mustInsert(t, tb, 0, rule(i, int32(i), uint64(i)))
	}
	n := tb.DeleteWhere(func(e Entry) bool { return e.Rule.ID%2 == 0 })
	if n != 5 || tb.Len() != 5 {
		t.Fatalf("removed %d, remaining %d", n, tb.Len())
	}
}

func TestCapacityEvictNone(t *testing.T) {
	tb := New("test", 2, EvictNone)
	mustInsert(t, tb, 0, rule(1, 1, 1))
	mustInsert(t, tb, 0, rule(2, 2, 2))
	if err := tb.Insert(0, rule(3, 3, 3), 0, 0); err != ErrFull {
		t.Fatalf("insert into full EvictNone table: err=%v", err)
	}
	// Replacing an existing ID must still work at capacity.
	if err := tb.Insert(1, rule(2, 9, 2), 0, 0); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
}

func TestCapacityEvictLRU(t *testing.T) {
	tb := New("test", 2, EvictLRU)
	mustInsert(t, tb, 0, rule(1, 1, 1))
	mustInsert(t, tb, 1, rule(2, 2, 2))
	tb.Lookup(5, keyPort(1), 64) // rule 1 recently used
	mustInsert(t, tb, 6, rule(3, 3, 3))
	if _, _, ok := tb.Counters(2); ok {
		t.Fatal("LRU must evict rule 2 (least recently hit)")
	}
	if _, _, ok := tb.Counters(1); !ok {
		t.Fatal("rule 1 must survive")
	}
	if tb.Evictions.Load() != 1 {
		t.Fatalf("evictions = %d", tb.Evictions.Load())
	}
}

func TestCapacityEvictLFU(t *testing.T) {
	tb := New("test", 2, EvictLFU)
	mustInsert(t, tb, 0, rule(1, 1, 1))
	mustInsert(t, tb, 0, rule(2, 2, 2))
	tb.Lookup(1, keyPort(2), 64)
	tb.Lookup(2, keyPort(2), 64)
	tb.Lookup(3, keyPort(1), 64)
	mustInsert(t, tb, 4, rule(3, 3, 3))
	if _, _, ok := tb.Counters(1); ok {
		t.Fatal("LFU must evict rule 1 (fewest packets)")
	}
}

func TestIdleTimeout(t *testing.T) {
	tb := New("test", 0, EvictNone)
	var expired []uint64
	tb.OnExpire = func(e Entry) { expired = append(expired, e.Rule.ID) }
	if err := tb.Insert(0, rule(1, 1, 80), 10, 0); err != nil {
		t.Fatal(err)
	}
	tb.Lookup(5, keyPort(80), 64) // refresh idle clock
	tb.Advance(14)
	if tb.Len() != 1 {
		t.Fatal("entry must survive while idle < timeout")
	}
	tb.Advance(15.1)
	if tb.Len() != 0 || len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("entry must idle-expire at lastHit+idle: len=%d expired=%v", tb.Len(), expired)
	}
}

// A hit stamped earlier than the one before it — wire mode stamps a burst
// with its oldest frame's inject time, so a later burst can carry an
// earlier stamp — must not move the last-hit time back: that would fire
// the idle timeout early and hand LRU the wrong victim.
func TestLastHitNeverMovesBack(t *testing.T) {
	tb := New("test", 0, EvictNone)
	if err := tb.Insert(0, rule(1, 1, 80), 10, 0); err != nil {
		t.Fatal(err)
	}
	tb.Lookup(5, keyPort(80), 64)
	tb.Lookup(3, keyPort(80), 64)
	if got := tb.Entries()[0].LastHit(); got != 5 {
		t.Fatalf("LastHit() = %g after hits at 5 then 3, want 5", got)
	}
	tb.Advance(14)
	if tb.Len() != 1 {
		t.Fatal("entry idle-expired before lastHit+idle")
	}
	tb.Advance(15) // last hit 5 + idle 10
	if tb.Len() != 0 {
		t.Fatal("entry must idle-expire at lastHit+idle")
	}
}

func TestHardTimeout(t *testing.T) {
	tb := New("test", 0, EvictNone)
	if err := tb.Insert(0, rule(1, 1, 80), 0, 10); err != nil {
		t.Fatal(err)
	}
	// Constant traffic must not save it from the hard timeout.
	for now := 1.0; now < 10; now++ {
		tb.Lookup(now, keyPort(80), 64)
	}
	tb.Advance(10.5)
	if tb.Len() != 0 {
		t.Fatal("entry must hard-expire despite traffic")
	}
}

// The next expiry is the earliest armed timeout, idle or hard; an entry
// with neither never expires.
func TestNextExpiry(t *testing.T) {
	tb := New("test", 0, EvictNone)
	tb.Insert(0, rule(1, 1, 1), 0, 0)
	tb.Insert(0, rule(2, 2, 2), 0, 7)
	tb.Insert(0, rule(3, 3, 3), 3, 0)
	for _, step := range []struct {
		now  float64
		left int
	}{{2.9, 3}, {3, 2}, {6.9, 2}, {7, 1}, {1e9, 1}} {
		tb.Advance(step.now)
		if tb.Len() != step.left {
			t.Fatalf("at %g: %d entries left, want %d", step.now, tb.Len(), step.left)
		}
	}
}

func TestPeekDoesNotTouchCounters(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 1, 80))
	if _, ok := tb.Peek(keyPort(80)); !ok {
		t.Fatal("peek must find the rule")
	}
	pkts, _, _ := tb.Counters(1)
	if pkts != 0 || tb.Hits.Load() != 0 {
		t.Fatal("peek must not update counters")
	}
}

// Property: table lookup always agrees with the reference evaluator over
// the installed rule set.
func TestLookupAgreesWithEvalTable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tb := New("prop", 0, EvictNone)
	var rules []flowspace.Rule
	for i := 0; i < 60; i++ {
		m := flowspace.MatchAll().
			WithPrefix(flowspace.FIPSrc, rng.Uint64(), uint(rng.Intn(9))).
			WithPrefix(flowspace.FIPDst, rng.Uint64(), uint(rng.Intn(9)))
		r := flowspace.Rule{
			ID: uint64(i + 1), Priority: int32(rng.Intn(8)),
			Match:  m,
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(i)},
		}
		rules = append(rules, r)
		mustInsert(t, tb, 0, r)
	}
	for i := 0; i < 3000; i++ {
		var k flowspace.Key
		k[flowspace.FIPSrc] = rng.Uint64() & 0xFFFFFFFF
		k[flowspace.FIPDst] = rng.Uint64() & 0xFFFFFFFF
		want, wantOK := flowspace.EvalTable(rules, k)
		got, gotOK := tb.Peek(k)
		if wantOK != gotOK || (gotOK && got.ID != want.ID) {
			t.Fatalf("lookup mismatch for %v: got %v/%v want %v/%v", k, got, gotOK, want, wantOK)
		}
	}
}

func TestEntriesAndRulesSnapshotsInTCAMOrder(t *testing.T) {
	tb := New("test", 0, EvictNone)
	mustInsert(t, tb, 0, rule(1, 5, 1))
	mustInsert(t, tb, 0, rule(2, 50, 2))
	mustInsert(t, tb, 0, rule(3, 20, 3))
	rs := tb.Rules()
	if rs[0].ID != 2 || rs[1].ID != 3 || rs[2].ID != 1 {
		t.Fatalf("rules not in TCAM order: %v", rs)
	}
	es := tb.Entries()
	if len(es) != 3 || es[0].Rule.ID != 2 {
		t.Fatalf("entries snapshot wrong: %v", es)
	}
	if tb.String() == "" {
		t.Fatal("String must render")
	}
}
