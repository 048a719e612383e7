package tcam

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"difane/internal/flowspace"
)

// refModel is a brute-force reference for eviction/timeout behaviour:
// a plain slice of entries with the same bookkeeping, no ordering tricks.
type refModel struct {
	capacity int
	policy   EvictionPolicy
	entries  []refEntry
	evicted  []uint64 // capacity victims, in the order they went
}

type refEntry struct {
	rule       flowspace.Rule
	packets    uint64
	lastHit    float64
	installed  float64
	idle, hard float64
}

// evict removes the entry the policy's total order puts first, reporting
// false when the model is empty.
func (m *refModel) evict() bool {
	victim := -1
	better := func(a, b refEntry) bool {
		switch m.policy {
		case EvictLRU:
			if a.lastHit != b.lastHit {
				return a.lastHit < b.lastHit
			}
			if a.packets != b.packets {
				return a.packets < b.packets
			}
		case EvictLFU:
			if a.packets != b.packets {
				return a.packets < b.packets
			}
			if a.lastHit != b.lastHit {
				return a.lastHit < b.lastHit
			}
		}
		return a.rule.ID < b.rule.ID
	}
	for i := range m.entries {
		if victim < 0 || better(m.entries[i], m.entries[victim]) {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	m.evicted = append(m.evicted, m.entries[victim].rule.ID)
	m.entries = append(m.entries[:victim], m.entries[victim+1:]...)
	return true
}

func (m *refModel) insert(now float64, r flowspace.Rule, idle, hard float64) bool {
	m.deleteWhere(func(o flowspace.Rule) bool { return o.ID == r.ID })
	if m.capacity > 0 && len(m.entries) >= m.capacity {
		if m.policy == EvictNone || !m.evict() {
			return false
		}
	}
	m.entries = append(m.entries, refEntry{
		rule: r, lastHit: now, installed: now, idle: idle, hard: hard,
	})
	return true
}

// setCapacity evicts down to the new limit, as Table.SetCapacity does.
func (m *refModel) setCapacity(capacity int) {
	m.capacity = capacity
	for capacity > 0 && len(m.entries) > capacity && m.evict() {
	}
}

func (m *refModel) deleteWhere(pred func(flowspace.Rule) bool) {
	kept := m.entries[:0]
	for _, e := range m.entries {
		if !pred(e.rule) {
			kept = append(kept, e)
		}
	}
	m.entries = kept
}

// lookup scans for the best match among the entries whose ID reads band
// under mask and updates its counters as a Lookup does.
func (m *refModel) lookup(now float64, k flowspace.Key, mask, band uint64) (flowspace.Rule, bool) {
	best := -1
	for i := range m.entries {
		if m.entries[i].rule.ID&mask != band || !m.entries[i].rule.Match.Matches(k) {
			continue
		}
		if best < 0 || m.entries[i].rule.Before(m.entries[best].rule) {
			best = i
		}
	}
	if best < 0 {
		return flowspace.Rule{}, false
	}
	m.entries[best].packets++
	m.entries[best].lastHit = max(now, m.entries[best].lastHit)
	return m.entries[best].rule, true
}

func (m *refModel) advance(now float64) {
	kept := m.entries[:0]
	for _, e := range m.entries {
		expired := false
		if e.idle > 0 && e.lastHit+e.idle <= now {
			expired = true
		}
		if e.hard > 0 && e.installed+e.hard <= now {
			expired = true
		}
		if !expired {
			kept = append(kept, e)
		}
	}
	m.entries = kept
}

func (m *refModel) ids() map[uint64]bool {
	out := map[uint64]bool{}
	for _, e := range m.entries {
		out[e.rule.ID] = true
	}
	return out
}

// rulePool is one source of rules and keys for the property test; a
// disjoint pool's rules never overlap, and it drives a NewDisjoint table.
type rulePool struct {
	name     string
	capacity int
	disjoint bool
	rule     func(rng *rand.Rand) flowspace.Rule
	key      func(rng *rand.Rand) flowspace.Key
}

// disjointCovers returns n pairwise-disjoint matches tiling the key space,
// the leaves of a random decision tree over the low bytes of three fields:
// arbitrary (non-prefix) masks, as an authority's carved covers have.
func disjointCovers(rng *rand.Rand, n int) []flowspace.Match {
	fields := []flowspace.FieldID{flowspace.FIPSrc, flowspace.FIPDst, flowspace.FTPDst}
	covers := []flowspace.Match{flowspace.MatchAll()}
	for len(covers) < n {
		i, f, b := rng.Intn(len(covers)), fields[rng.Intn(len(fields))], uint64(1)<<rng.Intn(8)
		fd := covers[i].Fields[f]
		if fd.Mask&b != 0 {
			continue
		}
		m := covers[i]
		covers[i] = m.With(f, flowspace.Field{Value: fd.Value, Mask: fd.Mask | b})
		covers = append(covers, m.With(f, flowspace.Field{Value: fd.Value | b, Mask: fd.Mask | b}))
	}
	return covers
}

func rulePools() []rulePool {
	// Ternary matches in the style of scencheck's generator, over a key
	// space small enough that rules overlap and keys collide: arbitrary
	// (non-prefix) masks, priority ties, value bits outside the mask.
	ternaryFields := []flowspace.FieldID{flowspace.FIPSrc, flowspace.FIPDst, flowspace.FTPDst}
	ternary := func(rng *rand.Rand) flowspace.Rule {
		m := flowspace.MatchAll()
		for _, f := range ternaryFields {
			m = m.With(f, flowspace.Field{Value: uint64(rng.Intn(16)), Mask: uint64(rng.Intn(16) & rng.Intn(16))})
		}
		id := uint64(1 + rng.Intn(60))
		return flowspace.Rule{ID: id, Priority: int32(rng.Intn(5)), Match: m,
			Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(id)}}
	}
	acl := classBenchPolicy(400)
	covers := disjointCovers(rand.New(rand.NewSource(7)), 60)
	return []rulePool{
		{"ports", 8, false,
			func(rng *rand.Rand) flowspace.Rule {
				return rule(uint64(1+rng.Intn(20)), int32(rng.Intn(5)), uint64(rng.Intn(8)))
			},
			func(rng *rand.Rand) flowspace.Key { return keyPort(uint64(rng.Intn(8))) }},
		{"ternary", 24, false, ternary,
			func(rng *rand.Rand) flowspace.Key {
				var k flowspace.Key
				for _, f := range ternaryFields {
					k[f] = uint64(rng.Intn(16))
				}
				return k
			}},
		{"classbench", 150, false,
			func(rng *rand.Rand) flowspace.Rule { return acl[rng.Intn(len(acl))] },
			func(rng *rand.Rand) flowspace.Key { return keyIn(rng, acl[rng.Intn(len(acl))].Match) }},
		// An ingress cache's covers: rule i is always cover i, so any set
		// of them resident at once is disjoint.
		{"covers", 12, true,
			func(rng *rand.Rand) flowspace.Rule {
				id := uint64(1 + rng.Intn(len(covers)))
				return flowspace.Rule{ID: id, Priority: int32(rng.Intn(5)), Match: covers[id-1],
					Action: flowspace.Action{Kind: flowspace.ActForward, Arg: uint32(id)}}
			},
			func(rng *rand.Rand) flowspace.Key { return keyIn(rng, covers[rng.Intn(len(covers))]) }},
	}
}

// keyIn draws a random key inside m.
func keyIn(rng *rand.Rand, m flowspace.Match) flowspace.Key {
	var fill [flowspace.NumFields]uint64
	for i := range fill {
		fill[i] = rng.Uint64()
	}
	return m.RandomKeyIn(fill)
}

// TestTableMatchesReferenceModel drives random operation sequences —
// insert, replace, evicting insert, delete, DeleteWhere, SetCapacity and
// Advance, with hits in between stamped now or (as a wire-mode burst
// stamps them) a little before it — through the table and
// the brute-force model and requires identical observable behaviour: every
// Lookup, View.LookupBand (under the whole table, and under a band drawn as
// the memo's are) and View.LookupMemo (on keys mostly drawn again from
// the last few looked up, so the memo answers some, and each burst of them
// under a band drawn from the whole table and either half of the rule IDs)
// returns what the model's scan of that band returns and
// what flowspace.EvalTable (the scan internal/oracle runs) returns over
// the band's Rules(), every capacity eviction and SetCapacity shrink takes the
// victims the model's scan of the policy's total order takes, in its
// order, the resident sets agree, and the structural invariants of the
// index and the eviction heap hold after every step. The "covers" pool
// runs it on a NewDisjoint table, whose unordered leaves must read the same.
func TestTableMatchesReferenceModel(t *testing.T) {
	memoBands := [][2]uint64{{0, 0}, {1, 0}, {1, 1}} // mask, band
	for _, pool := range rulePools() {
		for _, policy := range []EvictionPolicy{EvictNone, EvictLRU, EvictLFU} {
			rng := rand.New(rand.NewSource(149 + int64(policy)))
			newTable := New
			if pool.disjoint {
				newTable = NewDisjoint
			}
			tb := newTable("prop", pool.capacity, policy)
			ref := &refModel{capacity: pool.capacity, policy: policy}
			var evicted []uint64
			tb.OnEvict = func(id uint64) { evicted = append(evicted, id) }
			var memo Memo
			var recent []flowspace.Key
			memoLookups := uint64(0)
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("%s %v step %d: %s", pool.name, policy, step, fmt.Sprintf(format, args...))
			}
			now := 0.0
			for step := 0; step < 3000; step++ {
				now += rng.Float64() * 0.5
				switch op := rng.Intn(12); op {
				case 0, 1, 2, 3: // insert, replace or evicting insert
					r := pool.rule(rng)
					idle := 0.0
					if rng.Intn(3) == 0 {
						idle = 1 + rng.Float64()*3
					}
					hard := 0.0
					if rng.Intn(4) == 0 {
						hard = 2 + rng.Float64()*5
					}
					tb.Advance(now)
					ref.advance(now)
					gotErr := tb.Insert(now, r, idle, hard) != nil
					wantErr := !ref.insert(now, r, idle, hard)
					if gotErr != wantErr {
						fail(step, "insert err=%v want %v", gotErr, wantErr)
					}
				case 4, 5, 6, 7: // lookup, by each of the read calls, the memo's in a burst
					reps := 1
					var mask, band uint64
					if op == 4 || op == 7 {
						b := memoBands[rng.Intn(len(memoBands))]
						mask, band = b[0], b[1]
					}
					if op == 7 {
						reps = 4
					}
					for range reps {
						k := pool.key(rng)
						if op == 7 {
							if len(recent) > 0 && rng.Intn(4) != 0 {
								k = recent[rng.Intn(len(recent))]
							}
							if recent = append(recent, k); len(recent) > 6 {
								recent = recent[1:]
							}
						}
						tb.Advance(now)
						ref.advance(now)
						at := now
						if rng.Intn(3) == 0 {
							at -= rng.Float64() * 0.4
						}
						inBand := slices.DeleteFunc(tb.Rules(), func(r flowspace.Rule) bool { return r.ID&mask != band })
						scan, scanOK := flowspace.EvalTable(inBand, k)
						var got flowspace.Rule
						var gotOK bool
						switch op {
						case 4, 5:
							v := tb.AcquireView()
							if r := v.LookupBand(at, &k, 64, mask, band); r != nil {
								got, gotOK = *r, true
							}
							v.Release()
						case 6:
							got, gotOK = tb.Lookup(at, k, 64)
						case 7:
							v := tb.AcquireView()
							if r := v.LookupMemo(at, &k, 64, mask, band, &memo); r != nil {
								got, gotOK = *r, true
							}
							v.Release()
							memoLookups++
						}
						want, wantOK := ref.lookup(at, k, mask, band)
						if gotOK != wantOK || (gotOK && got.ID != want.ID) {
							fail(step, "lookup %v/%v want %v/%v", got, gotOK, want, wantOK)
						}
						if gotOK != scanOK || (gotOK && got.ID != scan.ID) {
							fail(step, "lookup %v/%v, scan of Rules() %v/%v", got, gotOK, scan, scanOK)
						}
					}
				case 8: // delete
					id := pool.rule(rng).ID
					tb.Delete(id)
					ref.deleteWhere(func(r flowspace.Rule) bool { return r.ID == id })
				case 9: // several entries at once
					doomed := func(r flowspace.Rule) bool { return r.ID%4 == uint64(step%4) }
					tb.DeleteWhere(func(e Entry) bool { return doomed(e.Rule) })
					ref.deleteWhere(doomed)
				case 10: // shrink, then restore, the capacity
					if policy == EvictNone || pool.capacity == 0 {
						continue
					}
					tb.SetCapacity(now, pool.capacity/2)
					ref.setCapacity(pool.capacity / 2)
					tb.SetCapacity(now, pool.capacity)
					ref.setCapacity(pool.capacity)
				case 11: // expiry sweep
					tb.Advance(now)
					ref.advance(now)
				}
				if !slices.Equal(evicted, ref.evicted) {
					fail(step, "evicted %v, the policy's order takes %v", evicted, ref.evicted)
				}
				evicted, ref.evicted = evicted[:0], ref.evicted[:0]
				gotIDs := map[uint64]bool{}
				for _, r := range tb.Rules() {
					gotIDs[r.ID] = true
				}
				wantIDs := ref.ids()
				if len(gotIDs) != len(wantIDs) {
					fail(step, "resident %v want %v", gotIDs, wantIDs)
				}
				for id := range wantIDs {
					if !gotIDs[id] {
						fail(step, "missing rule %d", id)
					}
				}
				if err := checkIndex(tb); err != nil {
					fail(step, "index: %v", err)
				}
			}
			if memo.Walks() == memoLookups {
				t.Fatalf("%s %v: the memo answered none of %d lookups", pool.name, policy, memoLookups)
			}
		}
	}
}
