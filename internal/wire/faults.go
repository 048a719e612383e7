package wire

import "time"

// Fault-injection hooks for resilience testing. All are safe to call
// while traffic flows.

// KillSwitch crashes a switch: its data and control goroutines stop, its
// control connection drops, and it never comes back. The failure detector
// notices the silence and the failover machinery takes over. Returns false
// for an unknown switch.
func (c *Cluster) KillSwitch(id uint32) bool {
	n, ok := c.switches[id]
	if !ok {
		return false
	}
	n.killOnce.Do(func() {
		n.faultAt.Store(time.Now().UnixNano())
		n.killed.Store(true)
		close(n.done)
		n.closeConns()
		c.wakeIfQuiet() // drained() no longer waits for this switch
	})
	return true
}

// PartitionControl severs a switch's control plane while leaving its data
// plane running: control writes in both directions are suppressed and the
// connection is dropped, and reconnection holds until HealControl. The
// switch keeps forwarding with whatever rules it has — DIFANE's data-plane
// resilience to control-plane loss. Returns false for an unknown switch.
func (c *Cluster) PartitionControl(id uint32) bool {
	n, ok := c.switches[id]
	if !ok {
		return false
	}
	n.faultAt.Store(time.Now().UnixNano())
	n.partitioned.Store(true)
	n.closeConns()
	return true
}

// HealControl lifts a control-plane partition; the connection manager
// makes a new control pipe within one BFD interval. Returns false for an
// unknown switch.
func (c *Cluster) HealControl(id uint32) bool {
	n, ok := c.switches[id]
	if !ok {
		return false
	}
	n.partitioned.Store(false)
	n.faultAt.Store(0)
	return true
}

// DelayControl adds a fixed delay to every control-plane write touching
// the switch (both directions); d ≤ 0 removes it. Returns false for an
// unknown switch.
func (c *Cluster) DelayControl(id uint32, d time.Duration) bool {
	n, ok := c.switches[id]
	if !ok {
		return false
	}
	if d < 0 {
		d = 0
	}
	n.ctrlDelay.Store(int64(d))
	return true
}
