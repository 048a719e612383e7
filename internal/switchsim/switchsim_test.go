package switchsim

import (
	"sync/atomic"
	"testing"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

func mkRule(id uint64, prio int32, port uint64, kind flowspace.ActionKind) flowspace.Rule {
	m := flowspace.MatchAll()
	if port != 0 {
		m = m.WithExact(flowspace.FTPDst, port)
	}
	return flowspace.Rule{ID: id, Priority: prio, Match: m, Action: flowspace.Action{Kind: kind}}
}

func keyPort(p uint64) flowspace.Key {
	var k flowspace.Key
	k[flowspace.FTPDst] = p
	return k
}

func add(t *testing.T, s *Switch, table proto.Table, r flowspace.Rule) {
	t.Helper()
	err := s.ApplyFlowMod(0, &proto.FlowMod{Table: table, Op: proto.OpAdd, Rule: r})
	if err != nil {
		t.Fatal(err)
	}
}

// classify is ClassifyBurst for one packet, as the simulator and the
// baseline classify.
func classify(s *Switch, now float64, k flowspace.Key, size int) Result {
	var out [1]Result
	s.ClassifyBurst(now, []flowspace.Key{k}, []int{size}, out[:])
	return out[0]
}

func TestPipelineOrder(t *testing.T) {
	s := New(1, Config{})
	add(t, s, proto.TablePartition, mkRule(1, 0, 0, flowspace.ActRedirect))
	add(t, s, proto.TableAuthority, mkRule(2, 0, 80, flowspace.ActForward))
	add(t, s, proto.TableCache, mkRule(3, 0, 80, flowspace.ActDrop))

	// Port 80 hits the cache first even though authority also matches.
	res := classify(s, 0, keyPort(80), 100)
	if !res.OK || res.Table != proto.TableCache || res.Rule.ID != 3 {
		t.Fatalf("res = %+v", res)
	}
	// Port 22 falls through cache and authority to the partition rule.
	res = classify(s, 0, keyPort(22), 100)
	if !res.OK || res.Table != proto.TablePartition || res.Rule.ID != 1 {
		t.Fatalf("res = %+v", res)
	}
	if c, p := s.Table(proto.TableCache).Hits.Load(), s.Table(proto.TablePartition).Hits.Load(); c != 1 || p != 1 {
		t.Fatalf("cache hits = %d, partition hits = %d, want 1 and 1", c, p)
	}
}

func TestClassifyMiss(t *testing.T) {
	s := New(1, Config{})
	res := classify(s, 0, keyPort(80), 100)
	if res.OK {
		t.Fatal("empty switch must miss")
	}
	if m := s.Table(proto.TablePartition).Misses.Load(); m != 1 {
		t.Fatalf("partition misses = %d, want 1", m)
	}
}

func TestFlowModDelete(t *testing.T) {
	s := New(1, Config{})
	add(t, s, proto.TableCache, mkRule(1, 0, 80, flowspace.ActForward))
	err := s.ApplyFlowMod(1, &proto.FlowMod{
		Table: proto.TableCache, Op: proto.OpDelete, Rule: flowspace.Rule{ID: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if classify(s, 1, keyPort(80), 64).OK {
		t.Fatal("deleted rule must not match")
	}
}

func TestFlowModErrors(t *testing.T) {
	s := New(1, Config{})
	err := s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.Table(9), Op: proto.OpAdd})
	if err == nil {
		t.Fatal("unknown table must error")
	}
	err = s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.TableCache, Op: proto.FlowModOp(9)})
	if err == nil {
		t.Fatal("unknown op must error")
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	s := New(1, Config{CacheCapacity: 2, CacheEviction: tcam.EvictLRU})
	add(t, s, proto.TableCache, mkRule(1, 0, 1, flowspace.ActForward))
	add(t, s, proto.TableCache, mkRule(2, 0, 2, flowspace.ActForward))
	classify(s, 1, keyPort(1), 64) // rule 1 is now more recent
	add(t, s, proto.TableCache, mkRule(3, 0, 3, flowspace.ActForward))
	if s.Table(proto.TableCache).Len() != 2 {
		t.Fatal("cache must stay at capacity")
	}
	if classify(s, 2, keyPort(2), 64).OK {
		t.Fatal("LRU victim (rule 2) must be gone")
	}
}

func TestAdvanceExpiresCaches(t *testing.T) {
	s := New(1, Config{})
	err := s.ApplyFlowMod(0, &proto.FlowMod{
		Table: proto.TableCache, Op: proto.OpAdd,
		Rule: mkRule(1, 0, 80, flowspace.ActForward), Idle: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(4)
	if s.Table(proto.TableCache).Len() != 1 {
		t.Fatal("entry must survive before timeout")
	}
	s.Advance(6)
	if s.Table(proto.TableCache).Len() != 0 {
		t.Fatal("entry must idle-expire")
	}
}

func TestClearCache(t *testing.T) {
	s := New(1, Config{})
	add(t, s, proto.TableCache, mkRule(1, 0, 1, flowspace.ActForward))
	add(t, s, proto.TableCache, mkRule(2, 0, 2, flowspace.ActForward))
	add(t, s, proto.TableAuthority, mkRule(3, 0, 3, flowspace.ActForward))
	if n := s.ClearCache(); n != 2 {
		t.Fatalf("cleared %d", n)
	}
	if !classify(s, 0, keyPort(3), 64).OK {
		t.Fatal("authority table must survive a cache clear")
	}
}

func TestStringRenders(t *testing.T) {
	s := New(1, Config{})
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

// reference is the pipeline as a cascade of Table.Lookup calls, one packet
// at a time and with no memo, for a switch with no authority band set.
func reference(s *Switch, now float64, k flowspace.Key, size int) (flowspace.Rule, proto.Table, bool) {
	for _, table := range []proto.Table{proto.TableCache, proto.TableAuthority, proto.TablePartition} {
		if r, ok := s.Table(table).Lookup(now, k, size); ok {
			return r, table, true
		}
	}
	return flowspace.Rule{}, 0, false
}

// TestClassifyBurstMatchesClassify cross-checks the burst cascade against
// the reference on a mixed workload: cache hits, authority hits, partition
// hits, and misses. The keys are classified twice on each side, so the
// second burst is answered from both memos, and the memo path must keep
// the counters the reference keeps: each table's hits and misses, which
// must also be the tally of the reference's outcomes (a table is looked up
// by every packet that the tables before it missed), and every rule's
// packets and bytes.
func TestClassifyBurstMatchesClassify(t *testing.T) {
	mk := func() *Switch {
		s := New(1, Config{})
		add(t, s, proto.TableCache, mkRule(1, 0, 80, flowspace.ActDrop))
		add(t, s, proto.TableAuthority, mkRule(2, 0, 443, flowspace.ActForward))
		add(t, s, proto.TablePartition, mkRule(3, 0, 22, flowspace.ActRedirect))
		return s
	}
	ports := []uint64{80, 443, 22, 9999, 80, 22, 443, 9999}
	keys := make([]flowspace.Key, len(ports))
	sizes := make([]int, len(ports))
	for i, p := range ports {
		keys[i] = keyPort(p)
		sizes[i] = 100 + i
	}

	tables := []proto.Table{proto.TableCache, proto.TableAuthority, proto.TablePartition}
	var hits, misses [3]uint64 // the reference's outcomes, by position in tables
	scalar, burst := mk(), mk()
	for pass := 0; pass < 2; pass++ {
		got := make([]Result, len(ports))
		burst.ClassifyBurst(float64(pass), keys, sizes, got)
		for i, g := range got {
			r, table, ok := reference(scalar, float64(pass), keys[i], sizes[i])
			if ok != g.OK || table != g.Table || (ok && r != *g.Rule) {
				t.Fatalf("pass %d packet %d: reference %v in table %d (ok=%v) != burst %+v", pass, i, r, table, ok, g)
			}
			for j, tt := range tables {
				if ok && tt == table {
					hits[j]++
					break
				}
				misses[j]++
			}
		}
	}
	for j, table := range tables {
		st, bt := scalar.Table(table), burst.Table(table)
		if bt.Hits.Load() != hits[j] || bt.Misses.Load() != misses[j] {
			t.Fatalf("%s: burst %d hits %d misses, the reference's outcomes %d and %d",
				bt.Name(), bt.Hits.Load(), bt.Misses.Load(), hits[j], misses[j])
		}
		if st.Hits.Load() != bt.Hits.Load() || st.Misses.Load() != bt.Misses.Load() {
			t.Fatalf("%s: reference %d hits %d misses, burst %d hits %d misses",
				st.Name(), st.Hits.Load(), st.Misses.Load(), bt.Hits.Load(), bt.Misses.Load())
		}
		se, be := st.Entries(), bt.Entries()
		if len(se) != len(be) {
			t.Fatalf("%s: reference %d entries, burst %d", st.Name(), len(se), len(be))
		}
		for i, e := range se {
			if b := be[i]; e.Rule.ID != b.Rule.ID || e.Packets != b.Packets || e.Bytes != b.Bytes {
				t.Fatalf("rule %d: reference %d packets %d bytes, burst rule %d %d packets %d bytes",
					e.Rule.ID, e.Packets, e.Bytes, b.Rule.ID, b.Packets, b.Bytes)
			}
		}
	}
}

// TestResultPointsAtInstalledRule: every classification of a packet hitting
// one entry — in a burst, or as a burst of one — answers with that entry's
// own rule, not a copy, and allocates nothing; the rule stays readable after
// the entry is deleted.
func TestResultPointsAtInstalledRule(t *testing.T) {
	s := New(1, Config{})
	add(t, s, proto.TableCache, mkRule(7, 0, 80, flowspace.ActDrop))
	keys := []flowspace.Key{keyPort(80), keyPort(80)}
	out := make([]Result, len(keys))
	s.ClassifyBurst(0, keys, []int{64, 64}, out)
	one := classify(s, 0, keys[0], 64)
	if !one.OK || out[0].Rule != one.Rule || out[1].Rule != one.Rule {
		t.Fatalf("one entry answered with different rules: %p %p %p", out[0].Rule, out[1].Rule, one.Rule)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ClassifyBurst(0, keys, []int{64, 64}, out) }); allocs != 0 {
		t.Fatalf("ClassifyBurst allocates %.1f per burst", allocs)
	}
	if err := s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.TableCache, Op: proto.OpDelete, Rule: flowspace.Rule{ID: 7}}); err != nil {
		t.Fatal(err)
	}
	if one.Rule.ID != 7 || one.Rule.Action.Kind != flowspace.ActDrop {
		t.Fatalf("rule changed under its deleted entry: %+v", *one.Rule)
	}
}

// TestClassifyBurstDuringInstall hammers ClassifyBurst from one goroutine
// while another continuously installs and deletes cache rules. Under -race
// this exercises the snapshot handoff in tcam: every burst must see each
// install either fully applied or not at all, and results must always be
// one of the two legal outcomes (cache hit on the churning rule, or the
// stable partition fallback), and a cache hit never names a rule whose
// delete had returned before the burst began.
func TestClassifyBurstDuringInstall(t *testing.T) {
	s := New(1, Config{})
	add(t, s, proto.TablePartition, mkRule(1, 0, 0, flowspace.ActRedirect))

	const bursts = 2000
	var deleted atomic.Uint64 // the last rule ID whose delete has returned
	stop := make(chan struct{})
	installerDone := make(chan struct{})
	go func() {
		defer close(installerDone)
		id := uint64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := mkRule(id, 1, 80, flowspace.ActDrop)
			if err := s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.TableCache, Op: proto.OpAdd, Rule: r}); err != nil {
				t.Error(err)
				return
			}
			err := s.ApplyFlowMod(0, &proto.FlowMod{Table: proto.TableCache, Op: proto.OpDelete, Rule: flowspace.Rule{ID: id}})
			if err != nil {
				t.Error(err)
				return
			}
			deleted.Store(id)
			id++
		}
	}()

	keys := []flowspace.Key{keyPort(80), keyPort(80), keyPort(22)}
	sizes := []int{64, 64, 64}
	out := make([]Result, len(keys))
	for b := 0; b < bursts; b++ {
		gone := deleted.Load()
		s.ClassifyBurst(float64(b), keys, sizes, out)
		// The two port-80 packets share one cache view, so within a burst
		// they must agree on whether the churning rule was visible.
		if out[0].Table != out[1].Table {
			t.Fatalf("burst %d: split verdict within one view: %+v vs %+v", b, out[0], out[1])
		}
		for i, r := range out[:2] {
			if !r.OK {
				t.Fatalf("burst %d packet %d: port 80 must match cache or partition: %+v", b, i, r)
			}
			if r.Table == proto.TableCache && r.Rule.Action.Kind != flowspace.ActDrop {
				t.Fatalf("burst %d packet %d: torn cache rule: %+v", b, i, r)
			}
			if r.Table == proto.TableCache && r.Rule.ID <= gone {
				t.Fatalf("burst %d packet %d: hit on rule %d, deleted before the burst", b, i, r.Rule.ID)
			}
			if r.Table == proto.TablePartition && r.Rule.ID != 1 {
				t.Fatalf("burst %d packet %d: wrong fallback: %+v", b, i, r)
			}
		}
		if !out[2].OK || out[2].Table != proto.TablePartition || out[2].Rule.ID != 1 {
			t.Fatalf("burst %d: port 22 must hit the partition rule: %+v", b, out[2])
		}
	}
	close(stop)
	<-installerDone
}

// TestRepeatedBurstWalksNoIndex: a burst of cache and authority hits
// classified again with no write in between is answered from the switch's
// memos and answers the same rules: a cache hit walks no index, and an
// authority hit walks only the cache's, where it misses (a miss is not
// remembered), not the authority table's. After SetAuthorityBand to a band
// holding other rules, the next burst answers that band's rules.
func TestRepeatedBurstWalksNoIndex(t *testing.T) {
	s := New(1, Config{})
	for p := uint64(80); p <= 82; p++ {
		add(t, s, proto.TableCache, mkRule(p, 0, p, flowspace.ActForward))
	}
	// Authority rules in two bands of the ID's low bit, matching the same
	// ports: 92 and 90 (ports 443, 444) under band 0, 93 and 91 under band 1.
	for id := uint64(90); id <= 93; id++ {
		add(t, s, proto.TableAuthority, mkRule(id, 0, 443+id/2%2, flowspace.ActForward))
	}
	s.SetAuthorityBand(1, 0)
	keys := []flowspace.Key{keyPort(80), keyPort(443), keyPort(81), keyPort(82), keyPort(444), keyPort(80)}
	sizes := []int{64, 64, 64, 64, 64, 64}
	first, second := make([]Result, len(keys)), make([]Result, len(keys))
	s.ClassifyBurst(0, keys, sizes, first)
	walks, authWalks := s.memo.Walks(), s.authMemo.Walks()
	if walks == 0 || authWalks == 0 {
		t.Fatalf("the first burst walked %d cache and %d authority indexes: its lookups did not go through the memos", walks, authWalks)
	}
	s.ClassifyBurst(1, keys, sizes, second)
	if w, a := s.memo.Walks()-walks, s.authMemo.Walks()-authWalks; w != 2 || a != 0 {
		t.Fatalf("second burst walked the cache index %d and the authority index %d times, want 2 (its cache misses) and 0", w, a)
	}
	for i := range first {
		if !second[i].OK || second[i].Rule != first[i].Rule {
			t.Fatalf("packet %d: first burst %+v, second %+v", i, first[i], second[i])
		}
	}
	if hits, auth := s.Table(proto.TableCache).Hits.Load(), s.Table(proto.TableAuthority).Hits.Load(); hits != 2*4 || auth != 2*2 {
		t.Fatalf("cache hits = %d, authority hits = %d, want 8 and 4", hits, auth)
	}
	s.SetAuthorityBand(1, 1)
	s.ClassifyBurst(2, keys, sizes, second)
	for i, want := range map[int][2]uint64{1: {92, 93}, 4: {90, 91}} {
		for band, out := range [][]Result{first, second} {
			if r := out[i]; !r.OK || r.Table != proto.TableAuthority || r.Rule.ID != want[band] {
				t.Fatalf("packet %d under band %d: %+v, want authority rule %d", i, band, r, want[band])
			}
		}
	}
}
