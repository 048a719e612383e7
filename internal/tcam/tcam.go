// Package tcam models a switch rule table with TCAM semantics: prioritized
// ternary rules, highest-priority-first lookup, per-rule packet/byte
// counters, idle and hard timeouts, and a capacity limit.
//
// Time is explicit (float64 seconds) rather than wall clock so the table is
// deterministic under the discrete-event simulator; the wire-mode prototype
// feeds it monotonic time converted to seconds.
//
// Lookup is indexed, not scanned: the entries hang off a ternary bit-tree
// (index.go) whose inner nodes each test one header bit, so a lookup reads
// a few short leaves whatever the table holds, and the tree is updated in
// place — an insert or a removal touches one root-to-leaf path, and a
// subtree that removals shrink to a leaf's worth folds back into a leaf on
// that path. A capacity eviction is as local: the entries sit in a min-heap
// in the eviction policy's order, so no write walks the table. A NewDisjoint
// table's leaves keep no order: an insert appends, a lookup takes any match.
//
// Concurrency: the table is safe for concurrent use behind one
// sync.RWMutex. Reads (Lookup, Len, Entries, Rules, and a View for a
// whole packet burst) take the read lock and update per-entry counters with
// atomics, so data planes read side by side; mutations (Insert,
// InsertBatch, Delete, DeleteWhere, SetCapacity, Advance) take the write
// lock, so a lookup observes a mutation either fully applied or not at all,
// and a writer waits for at most one burst. Hooks fire outside the lock.
package tcam

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"difane/internal/flowspace"
)

// ErrFull is returned by Insert when the table is at capacity and no
// eviction candidate exists.
var ErrFull = errors.New("tcam: table full")

// Entry is a point-in-time view of one installed rule plus its runtime
// state, as returned by Entries and passed to DeleteWhere predicates.
type Entry struct {
	Rule flowspace.Rule

	// Counters.
	Packets uint64
	Bytes   uint64

	// Timeouts, in seconds; zero disables. IdleTimeout expires the entry
	// when no packet has matched for that long; HardTimeout expires it that
	// long after installation regardless of traffic.
	IdleTimeout float64
	HardTimeout float64

	installed float64
	lastHit   float64
}

// Installed returns the entry's install time in table seconds.
func (e Entry) Installed() float64 { return e.installed }

// LastHit returns the entry's last-hit time (the install time when the
// entry has never matched a packet).
func (e Entry) LastHit() float64 { return e.lastHit }

// entry is the live representation: immutable rule and timeouts, atomic
// counters so lookups sharing the read lock can update them concurrently.
type entry struct {
	rule flowspace.Rule

	idleTimeout float64
	hardTimeout float64
	installed   float64

	packets     atomic.Uint64
	bytes       atomic.Uint64
	lastHitBits atomic.Uint64 // math.Float64bits of the last-hit time

	// pos is the entry's index in Table.entries and leaf its index in its
	// leaf (current in a disjoint table only), written under the write
	// lock; int32s keep the entry in the 240-byte size class.
	pos, leaf int32
}

func (e *entry) lastHit() float64 { return math.Float64frombits(e.lastHitBits.Load()) }

// setLastHit moves the last-hit time forward to at, never back: a caller
// whose clock runs a little behind another's (a wire-mode burst is stamped
// with its oldest frame's inject time) must not make the entry look idle
// for longer than it was, and the eviction heap relies on keys that only
// rise.
func (e *entry) setLastHit(at float64) {
	for {
		old := e.lastHitBits.Load()
		if at <= math.Float64frombits(old) || e.lastHitBits.CompareAndSwap(old, math.Float64bits(at)) {
			return
		}
	}
}

// snapshot converts the live entry to its exported point-in-time view.
func (e *entry) snapshot() Entry {
	return Entry{
		Rule:        e.rule,
		Packets:     e.packets.Load(),
		Bytes:       e.bytes.Load(),
		IdleTimeout: e.idleTimeout,
		HardTimeout: e.hardTimeout,
		installed:   e.installed,
		lastHit:     e.lastHit(),
	}
}

// never is the expiry time of an entry with no timeout armed.
const never = 1e30

// expiresAt returns the earliest time the entry can expire, or never.
func (e *entry) expiresAt() float64 {
	t := never
	if e.idleTimeout > 0 && e.lastHit()+e.idleTimeout < t {
		t = e.lastHit() + e.idleTimeout
	}
	if e.hardTimeout > 0 && e.installed+e.hardTimeout < t {
		t = e.installed + e.hardTimeout
	}
	return t
}

// EvictionPolicy selects a victim when the table is full.
type EvictionPolicy int

const (
	// EvictNone rejects inserts into a full table with ErrFull.
	EvictNone EvictionPolicy = iota
	// EvictLRU removes the entry with the oldest last-hit time.
	EvictLRU
	// EvictLFU removes the entry with the fewest matched packets.
	EvictLFU
)

// VictimCandidate is one eviction candidate handed to a VictimFunc: the
// installed rule (the entry's own, not a copy: read it, do not keep it)
// plus the runtime state a cost model scores with.
type VictimCandidate struct {
	ID        uint64
	Rule      *flowspace.Rule
	Packets   uint64
	LastHit   float64
	Installed float64
}

// VictimFunc picks which candidate to evict when the table is over
// capacity, returning an index into cands or a negative value to decline
// (the table then falls back to its built-in policy ordering). The
// candidates come in no particular order, in a slice the table reuses for
// the next eviction. It is called with the table mutex held, so
// implementations must not call back into the table.
type VictimFunc func(now float64, cands []VictimCandidate) int

// ranked is one entry in the eviction heap, beside the key it was last
// ranked by. Hits move an entry's real key without the heap knowing, but
// only ever upwards, so a ranked key is a lower bound on the real one and
// the heap's minimum, once its own key is current, is the true minimum.
type ranked struct {
	lastHit float64
	packets uint64
	e       *entry
}

// Table is a TCAM-semantics rule table with an indexed lookup path (see
// the package comment for the model).
type Table struct {
	name     string
	capacity int // 0 = unlimited
	policy   EvictionPolicy
	disjoint bool // see NewDisjoint

	// mu guards everything below it up to the hooks. entries holds every
	// installed entry as a min-heap in eviction order (pickVictimLocked),
	// and root indexes exactly those; ver moves on every change to root,
	// so a Memo knows when what it remembers may be wrong. examined counts
	// the comparisons of heap keys, for the test that holds eviction
	// sub-linear; cands is pickVictimLocked's scratch, and fired
	// InsertBatch's (its caller's alone: it is used after mu is released).
	mu       sync.RWMutex
	entries  []ranked
	byID     map[uint64]*entry
	root     *node
	ver      uint64
	examined uint64
	cands    []VictimCandidate
	fired    []hooks

	// expiryBound (math.Float64bits) is a lower bound on the earliest
	// expiry of any entry, so Advance returns without the lock until
	// something can have expired: set by Advance's scan, lowered by an
	// Insert that arms a timeout, and left alone by hits, which only push
	// an entry's real expiry later. Written under mu, read without it.
	expiryBound atomic.Uint64

	// victimFn, when set, overrides the policy's victim ordering.
	victimFn VictimFunc

	// OnExpire, if non-nil, is invoked with the rule ID of each entry
	// removed by Advance. Set it before the table is shared across
	// goroutines.
	OnExpire func(id uint64)

	// OnInstall, if non-nil, is invoked with the rule ID after Insert
	// commits a rule (including replace-in-place). OnEvict is invoked with
	// the rule ID of each entry a capacity eviction removes. Both run
	// outside the table's mutex, after the mutation is visible, so they may
	// call back into the table; like OnExpire they must be set before the
	// table is shared across goroutines.
	OnInstall func(id uint64)
	OnEvict   func(id uint64)

	// Misses counts lookups that matched no entry.
	Misses atomic.Uint64
	// Hits counts lookups that matched an entry.
	Hits atomic.Uint64
	// Evictions counts capacity evictions.
	Evictions atomic.Uint64
}

// New returns an empty table. capacity 0 means unlimited.
func New(name string, capacity int, policy EvictionPolicy) *Table {
	t := &Table{
		name:     name,
		capacity: capacity,
		policy:   policy,
		byID:     make(map[uint64]*entry),
		root:     &node{limit: leafLimit},
		ver:      1,
	}
	t.expiryBound.Store(math.Float64bits(never))
	return t
}

// NewDisjoint is New for entries whose overlaps always agree (any two that
// hold for one key carry one action and priority, as an ingress cache's
// covers do), so any match may answer: its leaves keep no order, an insert
// appends and a lookup returns the first entry it finds that holds the key.
func NewDisjoint(name string, capacity int, policy EvictionPolicy) *Table {
	t := New(name, capacity, policy)
	t.disjoint = true
	return t
}

// Name returns the table's diagnostic name.
func (t *Table) Name() string { return t.name }

// SetVictimFn installs a custom eviction picker consulted before the
// built-in policy ordering (cost-aware caching). Set it before the table
// is shared across goroutines.
func (t *Table) SetVictimFn(fn VictimFunc) {
	t.mu.Lock()
	t.victimFn = fn
	t.mu.Unlock()
}

// SetCapacity changes the entry limit at time now and evicts down to the
// new limit via the eviction ordering (OnEvict fires for each victim,
// outside the mutex). Capacity 0 is unlimited; a negative capacity
// admits nothing — the TCAM-budget enforcement uses it when mandatory
// rules consume the whole budget. Returns the number of entries evicted.
func (t *Table) SetCapacity(now float64, capacity int) int {
	t.mu.Lock()
	t.capacity = capacity
	var evicted []*entry
	for capacity != 0 && len(t.entries) > max(capacity, 0) {
		victim := t.pickVictimLocked(now)
		t.removeLocked(victim)
		t.Evictions.Add(1)
		evicted = append(evicted, victim)
	}
	t.mu.Unlock()
	if t.OnEvict != nil {
		for _, e := range evicted {
			t.OnEvict(e.rule.ID)
		}
	}
	return len(evicted)
}

// atLimitLocked reports whether an insert would exceed the entry limit.
func (t *Table) atLimitLocked() bool {
	return t.capacity != 0 && len(t.entries) >= max(t.capacity, 0)
}

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Capacity returns the entry limit (0 = unlimited, negative = admits
// nothing; see SetCapacity).
func (t *Table) Capacity() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.capacity
}

// Insert installs a rule at time now. If a rule with the same ID exists it
// is replaced in place (counters reset, as an OpenFlow flow-mod would). If
// the table is full the eviction policy picks a victim; with EvictNone the
// insert fails with ErrFull.
func (t *Table) Insert(now float64, r flowspace.Rule, idle, hard float64) error {
	t.mu.Lock()
	h, err := t.insertLocked(now, &r, idle, hard, false)
	t.mu.Unlock()
	if err == nil {
		t.fire(h) // outside mu, after the mutation is visible, like OnExpire
	}
	return err
}

// InsertBatch is Insert for n rules, rule(i) giving the i-th and its idle
// timeout (a batch arms no hard timeout), under one write lock, the hooks fired after it; ErrFull
// if any did not fit. An entry an insert evicts or replaces takes the new
// rule in place, so a rule pointer a lookup returned before it may read the
// new rule: only a switch's data goroutine calls it, between bursts, when
// neither it nor any other goroutine holds such a pointer.
func (t *Table) InsertBatch(now float64, n int, rule func(i int) (*flowspace.Rule, float64)) error {
	var err error
	t.fired = t.fired[:0]
	t.mu.Lock()
	for i := 0; i < n; i++ {
		r, idle := rule(i)
		h, e := t.insertLocked(now, r, idle, 0, true)
		if e != nil {
			err = e
			continue
		}
		t.fired = append(t.fired, h)
	}
	t.mu.Unlock()
	for _, h := range t.fired {
		t.fire(h)
	}
	return err
}

// hooks is what one insert tells the hooks: the rule it installed and the
// one it evicted, if it did.
type hooks struct {
	id, victim uint64
	evicted    bool
}

// insertLocked is Insert's mutation. With reuse, an evicted or replaced
// entry takes the rule in place (see InsertBatch).
func (t *Table) insertLocked(now float64, r *flowspace.Rule, idle, hard float64, reuse bool) (hooks, error) {
	h := hooks{id: r.ID}
	e, ok := t.byID[r.ID]
	if ok {
		t.removeLocked(e)
	} else if t.atLimitLocked() {
		if t.policy != EvictNone {
			e = t.pickVictimLocked(now)
		}
		if e == nil {
			return h, ErrFull
		}
		h.victim, h.evicted = e.rule.ID, true // before the rule is written over
		t.removeLocked(e)
		t.Evictions.Add(1)
	}
	if e == nil || !reuse {
		e = new(entry)
	}
	*e = entry{rule: *r, idleTimeout: idle, hardTimeout: hard, installed: now}
	e.lastHitBits.Store(math.Float64bits(now))
	t.rankLocked(e)
	t.byID[r.ID] = e
	t.root.insert(e, t.disjoint)
	t.ver++
	if at := e.expiresAt(); at < math.Float64frombits(t.expiryBound.Load()) {
		t.expiryBound.Store(math.Float64bits(at))
	}
	return h, nil
}

// fire runs one insert's hooks.
func (t *Table) fire(h hooks) {
	if h.evicted && t.OnEvict != nil {
		t.OnEvict(h.victim)
	}
	if t.OnInstall != nil {
		t.OnInstall(h.id)
	}
}

// Delete removes the rule with the given ID, reporting whether it existed.
func (t *Table) Delete(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if ok {
		t.removeLocked(e)
	}
	return ok
}

// DeleteWhere removes all entries for which pred returns true and returns
// how many were removed.
func (t *Table) DeleteWhere(pred func(Entry) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.dropLocked(func(e *entry) bool { return pred(e.snapshot()) }))
}

// removeLocked takes one entry out of the table.
func (t *Table) removeLocked(e *entry) {
	delete(t.byID, e.rule.ID)
	t.root.remove(e, t.disjoint)
	t.ver++
	t.unrankLocked(e)
}

// rankLocked adds e to the eviction heap under its current key, and
// unrankLocked takes it out.
func (t *Table) rankLocked(e *entry) {
	t.entries = append(t.entries, ranked{lastHit: e.lastHit(), packets: e.packets.Load(), e: e})
	t.siftUp(len(t.entries) - 1)
}

func (t *Table) unrankLocked(e *entry) {
	last := len(t.entries) - 1
	moved := t.entries[last]
	t.entries[last] = ranked{}
	t.entries = t.entries[:last]
	if moved.e != e {
		t.entries[e.pos] = moved
		t.siftDown(int(e.pos))
		t.siftUp(int(moved.e.pos))
	}
}

// dropLocked takes every entry doomed picks out of the table in one pass,
// and returns them in TCAM order.
func (t *Table) dropLocked(doomed func(*entry) bool) []*entry {
	var gone []*entry
	kept := t.entries[:0]
	for _, r := range t.entries {
		if doomed(r.e) {
			delete(t.byID, r.e.rule.ID)
			gone = append(gone, r.e)
		} else {
			r.e.pos = int32(len(kept))
			kept = append(kept, r)
		}
	}
	if len(gone) == 0 {
		return nil
	}
	t.ver++
	clear(t.entries[len(kept):])
	t.entries = kept
	if len(kept) == 0 {
		t.root = &node{limit: leafLimit} // cleared: no index to take them out of one by one
	} else {
		for _, e := range gone {
			t.root.remove(e, t.disjoint)
		}
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
	slices.SortFunc(gone, tcamOrder)
	return gone
}

// tcamOrder sorts entries highest priority first.
func tcamOrder(a, b *entry) int {
	if a.rule.Precedes(&b.rule) {
		return -1
	}
	return 1
}

// sortedLocked returns the entries in TCAM order; the heap keeps them in
// eviction order, so the few calls that show the table sort when asked.
func (t *Table) sortedLocked() []*entry {
	out := make([]*entry, len(t.entries))
	for i := range t.entries {
		out[i] = t.entries[i].e
	}
	slices.SortFunc(out, tcamOrder)
	return out
}

// evictsBefore is the eviction policy's total order over ranked keys, so
// eviction is deterministic: LRU orders by (lastHit, packets, ID)
// ascending, LFU by (packets, lastHit, ID) ascending.
func (t *Table) evictsBefore(a, b *ranked) bool {
	t.examined++
	switch t.policy {
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
	return a.e.rule.ID < b.e.rule.ID
}

// siftUp and siftDown restore the heap order around entries[i] after its
// key fell or rose, keeping every moved entry's pos.
func (t *Table) siftUp(i int) {
	h, r := t.entries, t.entries[i]
	for i > 0 {
		up := (i - 1) / 2
		if !t.evictsBefore(&r, &h[up]) {
			break
		}
		h[i] = h[up]
		h[i].e.pos = int32(i)
		i = up
	}
	h[i] = r
	r.e.pos = int32(i)
}

func (t *Table) siftDown(i int) {
	h, r := t.entries, t.entries[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if kid+1 < len(h) && t.evictsBefore(&h[kid+1], &h[kid]) {
			kid++
		}
		if !t.evictsBefore(&h[kid], &r) {
			break
		}
		h[i] = h[kid]
		h[i].e.pos = int32(i)
		i = kid
	}
	h[i] = r
	r.e.pos = int32(i)
}

// pickVictimLocked returns the entry to evict, nil only when the table is
// empty: the first entry in evictsBefore's order over the entries' current
// keys. The heap's top is re-ranked until the key it sits by is its
// current one; nothing below it can then be earlier. When a VictimFunc is
// set it is consulted first over every entry, whose scores follow no order
// the table knows; the heap is the fallback when it declines.
func (t *Table) pickVictimLocked(now float64) *entry {
	if len(t.entries) == 0 {
		return nil
	}
	if t.victimFn != nil {
		t.cands = t.cands[:0]
		for i := range t.entries {
			e := t.entries[i].e
			t.cands = append(t.cands, VictimCandidate{
				ID:        e.rule.ID,
				Rule:      &e.rule,
				Packets:   e.packets.Load(),
				LastHit:   e.lastHit(),
				Installed: e.installed,
			})
		}
		if i := t.victimFn(now, t.cands); i >= 0 && i < len(t.cands) {
			return t.byID[t.cands[i].ID]
		}
	}
	for {
		top := &t.entries[0]
		h, p := top.e.lastHit(), top.e.packets.Load()
		if h == top.lastHit && p == top.packets {
			return top.e
		}
		top.lastHit, top.packets = h, p
		t.siftDown(0)
	}
}

// Lookup returns the highest-priority entry matching k, updating counters
// with the packet's size, and false on a miss.
func (t *Table) Lookup(now float64, k flowspace.Key, size int) (flowspace.Rule, bool) {
	v := t.AcquireView()
	defer v.Release()
	if r := v.LookupBand(now, &k, size, 0, 0); r != nil {
		return *r, true
	}
	return flowspace.Rule{}, false
}

// View is a per-burst hold of the table's read lock: one acquisition
// serves every lookup of a packet burst against one consistent table
// state, and the table-level hit/miss counters are folded in with one
// atomic add each at Release instead of one per packet. Installs wait at
// most one burst. A View must be Released on the goroutine that acquired
// it and must not outlive the burst; until then that goroutine must not
// call anything else on the same table, another View included — a second
// read-lock queues behind a waiting writer, which is waiting for the
// first.
type View struct {
	t      *Table
	hits   uint64
	misses uint64
}

// AcquireView starts a burst of lookups against a consistent table state.
func (t *Table) AcquireView() View {
	t.mu.RLock()
	return View{t: t}
}

// LookupBand is Lookup among the entries whose rule ID reads band under
// mask — rule sets that share one table and are told apart by a band of
// their IDs, each looked up as if it were alone; a zero mask takes every
// entry. It returns the entry's own rule, nil on a miss: read-only, and
// good until the caller's next InsertBatch on the table (Insert never
// writes over an entry), so it may outlive the view but not the burst.
func (v *View) LookupBand(now float64, k *flowspace.Key, size int, mask, band uint64) *flowspace.Rule {
	p := k.Pack()
	e := v.t.root.search(k, &p, nil, mask, band, v.t.disjoint)
	if e == nil {
		v.misses++
		return nil
	}
	return v.hit(now, e, size)
}

// hit counts a packet of size bytes matching e at now.
func (v *View) hit(now float64, e *entry, size int) *flowspace.Rule {
	e.packets.Add(1)
	e.bytes.Add(uint64(size))
	e.setLastHit(now)
	v.hits++
	return &e.rule
}

// Release ends the burst: accumulated hit/miss counts land on the table
// and the read lock is released.
func (v *View) Release() {
	v.t.mu.RUnlock()
	if v.hits > 0 {
		v.t.Hits.Add(v.hits)
		v.hits = 0
	}
	if v.misses > 0 {
		v.t.Misses.Add(v.misses)
		v.misses = 0
	}
}

// memoBits sizes a Memo at 256 slots (~10 KB). Size buys little: what a
// memo leaves unanswered is mostly misses, which it never remembers, not
// collisions. On hit-large the cache memos answer 68% of lookups, and 27%
// miss, in an authority switch's empty cache; the authority memos answer
// 93% of those.
const memoBits = 8

// Memo remembers, per exact key, which entry of one table answered it, so
// a key looked up again costs a hash and a compare instead of a walk of the
// index. What it holds is valid for one version of the table and one band:
// the first lookup after any write, or under another mask or band, forgets
// every slot it filled, so it never answers with, or keeps alive, an entry
// the table has since dropped or the band does not take. A Memo serves one
// table and one goroutine at a time; its zero value is ready.
type Memo struct {
	ver        uint64
	mask, band uint64
	slots      [1 << memoBits]struct {
		k flowspace.Packed
		e *entry
	}
	filled [1 << memoBits]uint8 // the slots in use, filled[:n]
	n      int
	walks  uint64
}

// Walks returns how many lookups through m walked the index: those it
// could not answer itself.
func (m *Memo) Walks() uint64 { return m.walks }

// memoSlotOf picks p's slot from the top bits of its words' product mix.
func memoSlotOf(p *flowspace.Packed) uint8 {
	h := (p[0] ^ p[1]*0x9e3779b97f4a7c15 ^ p[2]*0xc2b2ae3d27d4eb4f ^ p[3]*0x165667b19e3779f9) * 0xff51afd7ed558ccd
	return uint8(h >> (64 - memoBits))
}

// LookupMemo is LookupBand(now, k, size, mask, band) answered through m: the
// same rule and the same counters, and when m holds k no walk of the index.
// A hit is remembered under k; a miss is not.
func (v *View) LookupMemo(now float64, k *flowspace.Key, size int, mask, band uint64, m *Memo) *flowspace.Rule {
	if m.ver != v.t.ver || m.mask != mask || m.band != band {
		for _, i := range m.filled[:m.n] {
			m.slots[i].e = nil
		}
		m.ver, m.mask, m.band, m.n = v.t.ver, mask, band, 0
	}
	p := k.Pack()
	i := memoSlotOf(&p)
	s := &m.slots[i]
	e := s.e
	if e == nil || s.k != p {
		m.walks++
		if e = v.t.root.search(k, &p, nil, mask, band, v.t.disjoint); e == nil {
			v.misses++
			return nil
		}
		if s.e == nil {
			m.filled[m.n] = i
			m.n++
		}
		s.k, s.e = p, e
	}
	return v.hit(now, e, size)
}

// Advance expires entries whose idle or hard timeout has passed by time
// now, invoking OnExpire for each. Until now reaches expiryBound it
// returns without taking the lock.
func (t *Table) Advance(now float64) {
	if now < math.Float64frombits(t.expiryBound.Load()) {
		return
	}
	t.mu.Lock()
	bound := never
	expired := t.dropLocked(func(e *entry) bool {
		at := e.expiresAt()
		if at > now && at < bound {
			bound = at
		}
		return at <= now
	})
	t.expiryBound.Store(math.Float64bits(bound))
	t.mu.Unlock()
	if t.OnExpire != nil {
		for _, e := range expired {
			t.OnExpire(e.rule.ID)
		}
	}
}

// Entries returns a snapshot of the entries in no order (Rules keeps TCAM
// order): a caller that shows the order sorts its copy.
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Entry, len(t.entries))
	for i := range t.entries {
		out[i] = t.entries[i].e.snapshot()
	}
	return out
}

// Rules returns the installed rules in TCAM order.
func (t *Table) Rules() []flowspace.Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]flowspace.Rule, len(t.entries))
	for i, e := range t.sortedLocked() {
		out[i] = e.rule
	}
	return out
}

// String renders a small diagnostic dump.
func (t *Table) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "table %s (%d/%d entries, %d hits, %d misses)\n",
		t.name, len(t.entries), t.capacity, t.Hits.Load(), t.Misses.Load())
	for _, e := range t.sortedLocked() {
		fmt.Fprintf(&b, "  %v pkts=%d\n", e.rule, e.packets.Load())
	}
	return b.String()
}
