package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"difane/internal/flowspace"
)

// TestInsertBatchMatchesReferenceModel drives InsertBatch on full tables,
// each batch of rules under IDs never seen before, so every insert evicts
// and writes its rule into the victim's entry, with hits in between that
// reorder the victims. After every batch the table must read as the
// brute-force model inserting the same rules one by one: OnEvict hears
// the victims' old IDs, in the model's order, and OnInstall the new ones;
// every lookup, through a View and through a Memo filled before the batch
// (whose entries the batch may have reused under other rules), answers
// what the model's scan does; the ID map leads each resident ID to an
// entry holding that rule; Entries holds the model's rules, timeouts and
// counters, a reused entry's counters reset; and the index and the
// eviction heap keep their invariants. A disjoint table takes only covers
// none of its resident rules holds, so its lookups have one answer.
func TestInsertBatchMatchesReferenceModel(t *testing.T) {
	for _, pool := range rulePools() {
		for _, policy := range []EvictionPolicy{EvictLRU, EvictLFU} {
			rng := rand.New(rand.NewSource(61 + int64(policy)))
			newTable := New
			if pool.disjoint {
				newTable = NewDisjoint
			}
			tb := newTable("batch", pool.capacity, policy)
			ref := &refModel{capacity: pool.capacity, policy: policy}
			var evicted, installed []uint64
			tb.OnEvict = func(id uint64) { evicted = append(evicted, id) }
			tb.OnInstall = func(id uint64) { installed = append(installed, id) }
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("%s %v step %d: %s", pool.name, policy, step, fmt.Sprintf(format, args...))
			}
			// Rules under fresh IDs; a disjoint pool's over a cover (its
			// action's argument) that no resident rule holds.
			nextID := uint64(1000)
			fresh := func() flowspace.Rule {
				r := pool.rule(rng)
				for pool.disjoint && slices.ContainsFunc(ref.entries, func(e refEntry) bool { return e.rule.Action == r.Action }) {
					r = pool.rule(rng)
				}
				nextID++
				r.ID = nextID
				return r
			}
			now := 0.0
			for len(ref.entries) < pool.capacity {
				r := fresh()
				ref.insert(now, r, 0, 0)
				mustInsert(t, tb, now, r)
			}
			evicted, installed, ref.evicted = nil, nil, nil
			var memo Memo
			for step := 0; step < 250; step++ {
				now += 0.25
				// A burst of hits, through the memo: they reorder the
				// victims and leave the memo holding entries to reuse.
				keys := make([]flowspace.Key, 8)
				v := tb.AcquireView()
				for i := range keys {
					keys[i] = pool.key(rng)
					at := now - rng.Float64()*0.2
					got := v.LookupMemo(at, &keys[i], 64, 0, 0, &memo)
					want, ok := ref.lookup(at, keys[i], 0, 0)
					if (got != nil) != ok || ok && got.ID != want.ID {
						fail(step, "memo lookup %v, want %v/%v", got, want, ok)
					}
				}
				v.Release()

				batch := make([]flowspace.Rule, 1+rng.Intn(6))
				idle := make([]float64, len(batch))
				for i := range batch {
					batch[i], idle[i] = fresh(), float64(rng.Intn(3))*10
					ref.insert(now, batch[i], idle[i], 0)
				}
				err := tb.InsertBatch(now, len(batch), func(i int) (*flowspace.Rule, float64) {
					return &batch[i], idle[i]
				})
				if err != nil {
					fail(step, "InsertBatch: %v", err)
				}
				if len(ref.evicted) != len(batch) || !slices.Equal(evicted, ref.evicted) {
					fail(step, "evicted %v, the model evicts %v for a batch of %d", evicted, ref.evicted, len(batch))
				}
				for i := range batch {
					if installed[i] != batch[i].ID {
						fail(step, "installed %v, want the batch's IDs in order", installed)
					}
				}
				evicted, installed, ref.evicted = evicted[:0], installed[:0], ref.evicted[:0]

				// The memo filled before the batch, and fresh keys.
				v = tb.AcquireView()
				for i := range keys {
					k := keys[i]
					if i%2 == 1 {
						k = pool.key(rng)
					}
					got := v.LookupMemo(now, &k, 64, 0, 0, &memo)
					want, ok := ref.lookup(now, k, 0, 0)
					if (got != nil) != ok || ok && (got.ID != want.ID || !got.Match.Holds(&k)) {
						fail(step, "memo lookup after the batch %v, want %v/%v", got, want, ok)
					}
				}
				v.Release()

				if err := sameAsModel(tb, ref); err != nil {
					fail(step, "%v", err)
				}
				if err := checkIndex(tb); err != nil {
					fail(step, "index: %v", err)
				}
			}
		}
	}
}

// sameAsModel holds the table's ID map and Entries to the model's resident
// entries: rule, idle timeout, install and last-hit times and packet count
// alike.
func sameAsModel(tb *Table, ref *refModel) error {
	want := make(map[uint64]refEntry, len(ref.entries))
	for _, e := range ref.entries {
		want[e.rule.ID] = e
	}
	tb.mu.RLock()
	for id, e := range tb.byID {
		if e.rule.ID != id {
			tb.mu.RUnlock()
			return fmt.Errorf("ID map leads %d to an entry holding rule %d", id, e.rule.ID)
		}
	}
	n := len(tb.byID)
	tb.mu.RUnlock()
	es := tb.Entries()
	if n != len(want) || len(es) != len(want) {
		return fmt.Errorf("%d IDs mapped, %d entries, the model holds %d", n, len(es), len(want))
	}
	for _, e := range es {
		w, ok := want[e.Rule.ID]
		switch {
		case !ok:
			return fmt.Errorf("entry %d is not resident in the model", e.Rule.ID)
		case e.Rule != w.rule || e.IdleTimeout != w.idle || e.Installed() != w.installed ||
			e.LastHit() != w.lastHit || e.Packets != w.packets:
			return fmt.Errorf("entry %+v, the model holds %+v", e, w)
		}
	}
	return nil
}

// TestInsertBatchBesideInsert runs the batch path as a switch's data
// goroutine does — a burst of lookups through a View and a Memo, the rules
// they return read before the View is released, then a batch — while a
// second goroutine inserts through Table.Insert and reads Entries, all on
// one full table, so both evict from it. Under -race it shows that the
// entries the batch writes over are never read outside the lock; every
// lookup must answer a rule that holds its key.
func TestInsertBatchBesideInsert(t *testing.T) {
	const capacity, rounds = 32, 400
	tb := NewDisjoint("race", capacity, EvictLRU)
	var evicts atomic.Int64
	tb.OnEvict = func(uint64) { evicts.Add(1) }
	port := func(id uint64) uint64 { return id % 64 }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the other goroutine: allocating inserts and snapshots
		defer wg.Done()
		for i := uint64(0); i < rounds; i++ {
			if err := tb.Insert(float64(i), rule(1<<20+i, 1, port(i)), 0, 0); err != nil {
				t.Error(err)
				return
			}
			if i%16 == 0 {
				for _, e := range tb.Entries() {
					if e.Rule.Match.Fields[flowspace.FTPDst].Value != port(e.Rule.ID) {
						t.Errorf("entry %d matches port %d", e.Rule.ID, e.Rule.Match.Fields[flowspace.FTPDst].Value)
					}
				}
			}
		}
	}()
	var memo Memo
	batch := make([]flowspace.Rule, 4)
	for i := uint64(0); i < rounds; i++ {
		v := tb.AcquireView()
		for p := uint64(0); p < 8; p++ {
			k := keyPort((i + p) % 64)
			if r := v.LookupMemo(float64(i), &k, 64, 0, 0, &memo); r != nil && !r.Match.Holds(&k) {
				t.Errorf("round %d: rule %d does not hold port %d", i, r.ID, k[flowspace.FTPDst])
			}
		}
		v.Release()
		for j := range batch {
			id := 1<<30 + 4*i + uint64(j)
			batch[j] = rule(id, 1, port(id))
		}
		if err := tb.InsertBatch(float64(i), len(batch), func(j int) (*flowspace.Rule, float64) {
			return &batch[j], 0
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := tb.Len(); n != capacity || evicts.Load() < 4*rounds {
		t.Fatalf("%d entries, %d evictions; want %d entries and an eviction for every batched insert", n, evicts.Load(), capacity)
	}
	if err := checkIndex(tb); err != nil {
		t.Fatal(err)
	}
}
