// Package switchsim models a DIFANE-capable switch's data-plane pipeline:
// three TCAM-semantics tables consulted in order — cache rules, authority
// rules, partition rules — exactly the rule hierarchy of the paper. The
// forwarding decisions themselves (where a redirect goes, what cache rule
// to generate) belong to the control logic in internal/core; this package
// owns classification and table management via FlowMods. There is one
// classifier, ClassifyBurst, which the simulator, the baseline and wire
// mode all run, and one set of counters, the tables' own: a switch keeps
// none beside them, as an OpenFlow switch's flow and table stats are its
// tables'.
package switchsim

import (
	"fmt"

	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/tcam"
)

// Switch is one switch's rule state.
type Switch struct {
	ID uint32

	cache     *tcam.Table
	authority *tcam.Table
	partition *tcam.Table

	// tcamBudget / cacheCap back the shared-TCAM budget enforcement (see
	// Config.TCAMBudget); immutable after New.
	tcamBudget int
	cacheCap   int

	// authMask / authBand restrict the switch's own pass over its authority
	// table (ClassifyBurst) to the entries whose rule ID
	// reads authBand under authMask; the zero mask takes every entry. See
	// SetAuthorityBand.
	authMask, authBand uint64

	// ClassifyBurst's memos: for the cache table, and for the authority
	// table's band, which answers a packet entering at an authority switch.
	memo, authMemo tcam.Memo
}

// Config sizes a switch's tables.
type Config struct {
	// CacheCapacity bounds the ingress cache (0 = unlimited).
	CacheCapacity int
	// CacheEviction picks victims when the cache is full.
	CacheEviction tcam.EvictionPolicy
	// CacheVictim, when non-nil, overrides the eviction policy's victim
	// ordering with a custom picker (cost-aware caching). Like the tcam
	// hooks, set it before the switch is shared across goroutines.
	CacheVictim tcam.VictimFunc
	// TCAMBudget, when >0, bounds the switch's *total* TCAM occupancy: one
	// physical table holds cache, authority, and partition rules, so the
	// cache's capacity is continuously derived as budget minus the
	// mandatory authority and partition entries (mandatory installs squeeze
	// the cache, evicting via CacheEviction/CacheVictim). CacheCapacity
	// still applies as an additional cap when set.
	TCAMBudget int
	// DisjointCache builds the cache with tcam.NewDisjoint, whose lookups
	// return any entry that holds the key: for a deployment whose
	// overlapping cache rules always agree on action and priority (DIFANE's
	// covers and exact entries, the baseline's microflows), not for one
	// that caches overlapping rules (core.StrategyDependent).
	DisjointCache bool
}

// New creates a switch with the given table sizing.
func New(id uint32, cfg Config) *Switch {
	newCache := tcam.New
	if cfg.DisjointCache {
		newCache = tcam.NewDisjoint
	}
	s := &Switch{
		ID:         id,
		cache:      newCache(fmt.Sprintf("sw%d/cache", id), cfg.CacheCapacity, cfg.CacheEviction),
		authority:  tcam.New(fmt.Sprintf("sw%d/authority", id), 0, tcam.EvictNone),
		partition:  tcam.New(fmt.Sprintf("sw%d/partition", id), 0, tcam.EvictNone),
		tcamBudget: cfg.TCAMBudget,
		cacheCap:   cfg.CacheCapacity,
	}
	if cfg.CacheVictim != nil {
		s.cache.SetVictimFn(cfg.CacheVictim)
	}
	s.EnforceBudget(0)
	return s
}

// SetAuthorityBand makes the switch classify against one band of its
// authority table: a deployment that keeps several rule generations in the
// table side by side (a consistent policy update stages the next one before
// the commit and collects the last one after it) names the running one, so
// a packet that enters here is answered by the same rules as one redirected
// here. Not synchronized: call it from the goroutine that classifies, or
// before the switch is shared.
func (s *Switch) SetAuthorityBand(mask, band uint64) { s.authMask, s.authBand = mask, band }

// TCAMBudget returns the switch's shared-TCAM budget (0 = unbounded).
func (s *Switch) TCAMBudget() int { return s.tcamBudget }

// EnforceBudget recomputes the cache table's capacity from the TCAM
// budget and the current mandatory-rule footprint, evicting cache entries
// when the budget shrank. Called automatically after FlowMods and timeout
// expiry on the mandatory tables; exported so control logic that writes
// those tables directly (wholesale withdrawals) can resquare the budget.
// Returns the number of cache entries evicted.
func (s *Switch) EnforceBudget(now float64) int {
	if s.tcamBudget <= 0 {
		return 0
	}
	avail := s.tcamBudget - s.authority.Len() - s.partition.Len()
	if s.cacheCap > 0 && s.cacheCap < avail {
		avail = s.cacheCap
	}
	if avail <= 0 {
		avail = -1 // tcam: negative capacity admits nothing (0 = unlimited)
	}
	if s.cache.Capacity() == avail {
		return 0
	}
	return s.cache.SetCapacity(now, avail)
}

// Table returns the named table (for inspection and installs).
func (s *Switch) Table(t proto.Table) *tcam.Table {
	switch t {
	case proto.TableCache:
		return s.cache
	case proto.TableAuthority:
		return s.authority
	case proto.TablePartition:
		return s.partition
	default:
		return nil
	}
}

// Result is the outcome of classifying one packet. Rule is the matched
// entry's own rule (nil on a miss), read-only, and good until the switch's
// next ApplyCacheBatch, which may write another rule into the entry: no
// Result outlives the burst it was classified in.
type Result struct {
	Rule  *flowspace.Rule
	Table proto.Table
	OK    bool
}

// ClassifyBurst runs the pipeline — cache, then authority, then partition —
// over a vector of packets, with one read-lock acquisition per table per
// burst; a packet is classified as a burst of one. keys, sizes, and out must
// have equal length; out[i] receives packet i's result. The cascade runs
// table-at-a-time: all cache lookups against one cache view, then the
// misses against one authority view, then one partition view — each table's
// state is consistent across the whole burst, and a concurrent install is
// observed by all of a burst's packets or none of them (per table). The
// tables count what they answer: Table(t).Hits per table, and
// Table(proto.TablePartition).Misses for the packets no table matched.
// Allocation-free: all scratch state lives in out. The cache and authority
// lookups go through the switch's memos, so calls on one switch must not
// overlap.
func (s *Switch) ClassifyBurst(now float64, keys []flowspace.Key, sizes []int, out []Result) {
	remaining := len(keys)
	v := s.cache.AcquireView()
	for i := range keys {
		if r := v.LookupMemo(now, &keys[i], sizes[i], 0, 0, &s.memo); r != nil {
			out[i] = Result{Rule: r, Table: proto.TableCache, OK: true}
			remaining--
		} else {
			out[i] = Result{}
		}
	}
	v.Release()
	if remaining > 0 {
		v = s.authority.AcquireView()
		for i := range keys {
			if out[i].OK {
				continue
			}
			if r := v.LookupMemo(now, &keys[i], sizes[i], s.authMask, s.authBand, &s.authMemo); r != nil {
				out[i] = Result{Rule: r, Table: proto.TableAuthority, OK: true}
				remaining--
			}
		}
		v.Release()
	}
	if remaining > 0 {
		v = s.partition.AcquireView()
		for i := range keys {
			if out[i].OK {
				continue
			}
			if r := v.LookupBand(now, &keys[i], sizes[i], 0, 0); r != nil {
				out[i] = Result{Rule: r, Table: proto.TablePartition, OK: true}
			}
		}
		v.Release()
	}
}

// ApplyFlowMod installs or removes a rule per the message.
func (s *Switch) ApplyFlowMod(now float64, m *proto.FlowMod) error {
	tb := s.Table(m.Table)
	if tb == nil {
		return fmt.Errorf("switch %d: no such table %d", s.ID, m.Table)
	}
	switch m.Op {
	case proto.OpAdd:
		if m.Table != proto.TableCache {
			// Mandatory rules claim TCAM ahead of the cache: shrink the
			// cache's share first so the insert lands inside the budget.
			defer s.EnforceBudget(now)
		}
		return tb.Insert(now, m.Rule, m.Idle, 0)
	case proto.OpDelete:
		tb.Delete(m.Rule.ID)
		if m.Table != proto.TableCache {
			s.EnforceBudget(now)
		}
		return nil
	default:
		return fmt.Errorf("switch %d: unknown flow-mod op %d", s.ID, m.Op)
	}
}

// ApplyCacheBatch adds the rules of mods, cache-table adds all, to the cache
// under one write lock (tcam.Table.InsertBatch), each written into the entry
// it evicts or replaces. Call it between bursts, from the goroutine that
// classifies, as ClassifyBurst: every Result handed out before it is spent.
func (s *Switch) ApplyCacheBatch(now float64, mods []proto.FlowMod) error {
	return s.cache.InsertBatch(now, len(mods), func(i int) (*flowspace.Rule, float64) {
		return &mods[i].Rule, mods[i].Idle
	})
}

// Advance expires timed-out entries in all tables.
func (s *Switch) Advance(now float64) {
	s.cache.Advance(now)
	s.authority.Advance(now)
	s.partition.Advance(now)
	s.EnforceBudget(now) // mandatory-table expiry frees TCAM back to the cache
}

// ClearCache empties the cache table (used on policy changes) and returns
// the number of entries removed.
func (s *Switch) ClearCache() int {
	return s.cache.DeleteWhere(func(tcam.Entry) bool { return true })
}

// String renders a diagnostic dump of all tables.
func (s *Switch) String() string {
	return fmt.Sprintf("switch %d\n%s%s%s", s.ID, s.cache, s.authority, s.partition)
}
