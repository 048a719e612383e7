package tcam

import (
	"testing"

	"difane/internal/flowspace"
)

// TestMemoForgetsOnEveryWrite: a memo that answered a key answers it again
// without a walk until the table changes, and after each kind of write —
// the ones that take its entry out, replace it, or shadow it — answers
// what the index answers, the same entry, not one the write dropped. With
// no write but a lookup under another band, it answers what LookupBand
// answers for that band.
func TestMemoForgetsOnEveryWrite(t *testing.T) {
	for _, tc := range []struct {
		name       string
		capacity   int
		write      func(tb *Table)
		mask, band uint64 // the band of the lookup after the write
	}{
		{"delete", 0, func(tb *Table) { tb.Delete(1) }, 0, 0},
		{"evicting insert", 3, func(tb *Table) { mustInsert(t, tb, 3, rule(4, 10, 443)) }, 0, 0},
		{"replace in place", 0, func(tb *Table) { mustInsert(t, tb, 3, rule(1, 10, 80)) }, 0, 0},
		{"shadowing insert", 0, func(tb *Table) { mustInsert(t, tb, 3, rule(4, 20, 80)) }, 0, 0},
		{"delete where", 0, func(tb *Table) { tb.DeleteWhere(func(e Entry) bool { return e.Rule.ID == 1 }) }, 0, 0},
		{"expiry", 0, func(tb *Table) { tb.Advance(20) }, 0, 0},
		{"capacity shrink", 0, func(tb *Table) { tb.SetCapacity(3, 2) }, 0, 0},
		{"band switch", 0, func(*Table) {}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New("memo", tc.capacity, EvictLRU)
			if err := tb.Insert(0, rule(1, 10, 80), 0, 10); err != nil {
				t.Fatal(err)
			}
			mustInsert(t, tb, 0, rule(2, 1, 0))
			mustInsert(t, tb, 0, rule(3, 10, 22))
			var m Memo
			k := keyPort(80)
			lookup := func(now float64, mask, band uint64) (memo, tree *flowspace.Rule) {
				v := tb.AcquireView()
				defer v.Release()
				return v.LookupMemo(now, &k, 64, mask, band, &m), v.LookupBand(now, &k, 64, mask, band)
			}
			lookup(1, 0, 0)
			walks := m.Walks()
			if got, _ := lookup(1, 0, 0); got == nil || got.ID != 1 || m.Walks() != walks {
				t.Fatalf("memo answered %v with %d walks, want rule 1 without one", got, m.Walks()-walks)
			}
			// Rule 1 is now the least recently used.
			tb.Lookup(2, keyPort(22), 64)
			tb.Lookup(2, keyPort(443), 64)
			tc.write(tb)
			if got, want := lookup(4, tc.mask, tc.band); got != want {
				t.Fatalf("after the write the memo answers %v, the index %v", got, want)
			}
		})
	}
}

// TestMemoHoldsNoDroppedEntry: once a write has evicted entries, the next
// lookup leaves no memo slot pointing at an entry the table no longer
// holds, so the memo keeps nothing alive for the collector.
func TestMemoHoldsNoDroppedEntry(t *testing.T) {
	const n = 16
	tb := New("memo", n, EvictLRU)
	var m Memo
	lookup := func(now float64, port uint64) {
		k := keyPort(port)
		v := tb.AcquireView()
		v.LookupMemo(now, &k, 64, 0, 0, &m)
		v.Release()
	}
	for p := uint64(1); p <= n; p++ {
		mustInsert(t, tb, 0, rule(p, 10, p))
		lookup(float64(p), p)
	}
	mustInsert(t, tb, n+1, rule(n+1, 10, n+1))
	lookup(n+2, n)
	held := 0
	for _, s := range m.slots {
		if s.e == nil {
			continue
		}
		held++
		if tb.byID[s.e.rule.ID] != s.e {
			t.Fatalf("memo slot holds rule %d, which the table dropped", s.e.rule.ID)
		}
	}
	if held != 1 {
		t.Fatalf("memo holds %d entries after one lookup since the write, want 1", held)
	}
}
