package wire

import (
	"encoding/json"
	"net/http"
	"sort"

	"difane/internal/proto"
)

// SwitchStatus is one switch's state in the status report.
type SwitchStatus struct {
	ID             uint32 `json:"id"`
	CacheEntries   int    `json:"cache_entries"`
	AuthorityRules int    `json:"authority_rules"`
	PartitionRules int    `json:"partition_rules"`
	CacheHits      uint64 `json:"cache_hits"`
	AuthorityHits  uint64 `json:"authority_hits"`
	PartitionHits  uint64 `json:"partition_hits"`
	Misses         uint64 `json:"misses"`
	// QueueDepth is the occupancy of the switch's deepest input ring, and
	// PeakQueueDepth the deepest any of them has been.
	QueueDepth     int    `json:"queue_depth"`
	PeakQueueDepth int    `json:"peak_queue_depth"`
	Epoch          uint64 `json:"epoch"`
	Alive          bool   `json:"alive"`
	Killed         bool   `json:"killed"`
}

// Status is the cluster-wide state report served at /status. Dropped is
// Measurements().Drops.Lost(): a refused Inject is no loss.
type Status struct {
	Switches       []SwitchStatus `json:"switches"`
	Dropped        uint64         `json:"dropped"`
	Epoch          uint64         `json:"epoch"`
	ControllerDown bool           `json:"controller_down,omitempty"`
}

// Status snapshots the cluster's state.
func (c *Cluster) Status() Status {
	st := Status{
		Dropped:        c.counterTotals().Dropped,
		Epoch:          c.Epoch(),
		ControllerDown: c.ctrlDown.Load(),
	}
	for _, id := range c.SwitchIDs() {
		n, _ := c.node(id)
		stats := n.sw.Stats.Snapshot()
		ss := SwitchStatus{
			ID:             id,
			CacheEntries:   n.sw.Table(proto.TableCache).Len(),
			AuthorityRules: n.sw.Table(proto.TableAuthority).Len(),
			PartitionRules: n.sw.Table(proto.TablePartition).Len(),
			CacheHits:      stats.CacheHits,
			AuthorityHits:  stats.AuthorityHits,
			PartitionHits:  stats.PartitionHits,
			Misses:         stats.Misses,
			QueueDepth:     n.queueLen(),
			PeakQueueDepth: int(n.peakQueue.Load()),
			Epoch:          n.epoch.Load(),
			Alive:          n.alive.Load(),
			Killed:         n.killed.Load(),
		}
		st.Switches = append(st.Switches, ss)
	}
	return st
}

// StatusHandler returns an http.Handler serving the cluster status as
// JSON — mountable into any mux for operational visibility:
//
//	http.Handle("/status", cluster.StatusHandler())
func (c *Cluster) StatusHandler() http.Handler {
	return jsonHandler(func() any { return c.Status() })
}

// ReplicaStatus is one controller replica's state in the HA report.
type ReplicaStatus struct {
	ID     int    `json:"id"`
	Alive  bool   `json:"alive"`
	Leader bool   `json:"leader"`
	Seq    uint64 `json:"seq"` // of the state its journal holds
}

// BFDSessionStatus is one switch's controller-side BFD session in the HA
// report.
type BFDSessionStatus struct {
	Switch      uint32 `json:"switch"`
	State       string `json:"state"`
	RemoteState string `json:"remote_state"`
	RemoteDiscr uint32 `json:"remote_discr,omitempty"`
	DetectUsec  int64  `json:"detect_usec"`
	Transitions uint64 `json:"transitions"`
}

// HAStatus is the failure-detection and controller-HA report served at
// /ha and rendered by difanectl ha.
type HAStatus struct {
	Leader          int                `json:"leader"`
	Epoch           uint64             `json:"epoch"`
	ControllerDown  bool               `json:"controller_down"`
	LeaderElections uint64             `json:"leader_elections"`
	Replicas        []ReplicaStatus    `json:"replicas,omitempty"`
	BFD             []BFDSessionStatus `json:"bfd,omitempty"`
}

// HAStatus snapshots the controller replica set and every switch's BFD
// session state.
func (c *Cluster) HAStatus() HAStatus {
	st := HAStatus{
		Leader:          c.Leader(),
		Epoch:           c.Epoch(),
		ControllerDown:  c.ctrlDown.Load(),
		LeaderElections: c.cold.leaderElections.Load(),
	}
	c.haMu.Lock()
	for _, r := range c.replicas {
		rs := ReplicaStatus{ID: r.id, Alive: r.alive, Leader: r.id == st.Leader}
		if r.alive && r.jrnl != nil {
			rs.Seq = r.jrnl.Seq()
		}
		st.Replicas = append(st.Replicas, rs)
	}
	c.haMu.Unlock()
	sessions := c.BFDSessions()
	ids := make([]uint32, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info := sessions[id]
		st.BFD = append(st.BFD, BFDSessionStatus{
			Switch:      id,
			State:       info.State.String(),
			RemoteState: info.RemoteState.String(),
			RemoteDiscr: info.RemoteDiscr,
			DetectUsec:  info.DetectTime.Microseconds(),
			Transitions: info.Transitions,
		})
	}
	return st
}

// HAHandler returns an http.Handler serving the HA status as JSON.
func (c *Cluster) HAHandler() http.Handler {
	return jsonHandler(func() any { return c.HAStatus() })
}

// jsonHandler serves one snapshot function as indented GET-only JSON.
func jsonHandler(snap func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
