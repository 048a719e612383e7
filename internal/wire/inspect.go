package wire

import (
	"sort"

	"difane/internal/flowspace"
	"difane/internal/proto"
)

// TableRules returns a snapshot of one switch's rules in the given table,
// sorted by rule ID. It exists for the differential checker
// (internal/scencheck), which audits cached ingress rules against the
// authority rules they claim to stand for; it is safe to call while the
// cluster is running.
func (c *Cluster) TableRules(sw uint32, t proto.Table) []flowspace.Rule {
	n, ok := c.node(sw)
	if !ok {
		return nil
	}
	rules := n.sw.Table(t).Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	return rules
}

// SwitchIDs returns every switch ID in the cluster, sorted.
func (c *Cluster) SwitchIDs() []uint32 {
	out := append([]uint32(nil), c.cfg.Switches...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
