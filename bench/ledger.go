package main

import (
	"fmt"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/packet"
	"difane/internal/proto"
	"difane/internal/switchsim"
	"difane/internal/tcam"
)

// Ledger replay: the traced run's packets pushed through each layer's
// public function, on tables copied out of the deployment, one layer at a
// time. A span wraps a chunk of calls rather than each call: the calls cost
// tens of nanoseconds to microseconds, and two clock reads around each
// would be most of what was measured.
const (
	replayPackets = 1 << 16 // trace packets replayed per layer
	replayKeys    = 4096    // distinct keys sent down the miss path
	replayChunk   = 1024    // calls per span
	classifyBurst = 64      // the data plane's default burst
	evictTable    = 256     // capacity of the always-full insert table
	evictInserts  = 2048
	replayNow     = 1.0 // table clock; nothing replayed carries a timeout
)

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink uint64

// chunks calls fn on consecutive index ranges of at most size, each inside
// its own span.
func chunks(tz *tracer, name string, n, size int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		s := tz.begin(name, hi-lo)
		fn(lo, hi)
		tz.end(s)
	}
}

// replay prices each layer on the traced rep's packets and tables and
// returns the per-layer metrics it yields.
func replay(w *workloadSpec, tr *trace, tabs *tables, tz *tracer) (map[string]float64, error) {
	top := tz.begin("replay", 0)
	defer tz.end(top)
	vals := make(map[string]float64)
	pkts := tr.packets[:min(tr.n, replayPackets)]

	chunks(tz, "packet.KeyExtract", len(pkts), replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := packet.HeaderFromKey(pkts[i].Key).Key()
			sink += k[0]
		}
	})
	vals["packet.key_extract_ns"] = tz.perPacket("replay", "packet.KeyExtract")

	// Stand-alone switches loaded with the deployment's final tables.
	var sws [numSwitches]*switchsim.Switch
	for id := range sws {
		sw := switchsim.New(uint32(id), switchsim.Config{
			CacheCapacity: w.cacheCap, CacheEviction: tcam.EvictLRU,
		})
		for t, table := range tableOrder {
			rules := tabs[id][t]
			s := tz.begin("switchsim.ApplyFlowMod", len(rules))
			for i := range rules {
				mod := proto.FlowMod{Table: table, Op: proto.OpAdd, Rule: rules[i]}
				if err := sw.ApplyFlowMod(replayNow, &mod); err != nil {
					tz.end(s)
					return nil, fmt.Errorf("replay: load switch %d: %w", id, err)
				}
			}
			tz.end(s)
		}
		sws[id] = sw
	}
	vals["switchsim.apply_flowmod_ns"] = tz.perPacket("replay", "switchsim.ApplyFlowMod")

	// Bursts of 64 per ingress, as the data plane classifies them.
	var byIngress [numSwitches][]int
	for i := range pkts {
		byIngress[pkts[i].Ingress] = append(byIngress[pkts[i].Ingress], i)
	}
	keys := make([]flowspace.Key, classifyBurst)
	sizes := make([]int, classifyBurst)
	out := make([]switchsim.Result, classifyBurst)
	for id, idx := range byIngress {
		chunks(tz, "switchsim.ClassifyBurst", len(idx), classifyBurst, func(lo, hi int) {
			for j, i := range idx[lo:hi] {
				keys[j], sizes[j] = pkts[i].Key, pkts[i].Size
			}
			n := hi - lo
			sws[id].ClassifyBurst(replayNow, keys[:n], sizes[:n], out[:n])
			sink += out[0].Rule.ID
		})
	}
	vals["switchsim.classify_burst_ns"] = tz.perPacket("replay", "switchsim.ClassifyBurst")

	// Each table's scan alone: the cache and partition tables at the
	// packet's ingress, the authority table at every authority switch.
	lookup := func(name string, t proto.Table, at func(p *core.PacketIn) []uint32) {
		chunks(tz, name, len(pkts), replayChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for _, id := range at(&pkts[i]) {
					r, _ := sws[id].Table(t).Lookup(replayNow, pkts[i].Key, pkts[i].Size)
					sink += r.ID
				}
			}
		})
	}
	one := make([]uint32, 1)
	ingress := func(p *core.PacketIn) []uint32 {
		one[0] = p.Ingress
		return one
	}
	lookup("tcam.Lookup/cache", proto.TableCache, ingress)
	lookup("tcam.Lookup/partition", proto.TablePartition, ingress)
	lookup("tcam.Lookup/authority", proto.TableAuthority, func(*core.PacketIn) []uint32 { return authorities })
	vals["tcam.cache_lookup_ns"] = tz.perPacket("replay", "tcam.Lookup/cache")
	vals["tcam.partition_lookup_ns"] = tz.perPacket("replay", "tcam.Lookup/partition")
	vals["tcam.authority_lookup_ns"] = tz.perPacket("replay", "tcam.Lookup/authority") / float64(len(authorities))

	// The controller's set-up work.
	cfg := clusterConfig(w, tr.policy)
	s := tz.begin("core.BuildPartitions", 0)
	parts := core.BuildPartitions(tr.policy, cfg.Partition)
	tz.end(s)
	s = tz.begin("core.Assign", 0)
	assign, err := core.Assign(parts, cfg.Authorities)
	tz.end(s)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	vals["core.build_partitions_ms"] = tz.lastMS("core.BuildPartitions")
	vals["core.assign_ms"] = tz.lastMS("core.Assign")
	vals["core.partitions"] = float64(len(parts))
	clipped := 0
	for i := range parts {
		clipped += len(parts[i].Rules)
	}
	vals["core.split_overhead"] = float64(clipped) / float64(len(tr.policy))

	// The miss path on distinct keys, so the authority's memo cannot answer.
	type miss struct {
		key       flowspace.Key
		ingress   uint32
		part, hit int
	}
	var misses []miss
	seen := make(map[flowspace.Key]bool)
	for i := range pkts {
		k := pkts[i].Key
		if seen[k] || len(misses) == replayKeys {
			continue
		}
		seen[k] = true
		for pi := range parts {
			if !parts[pi].Region.Matches(k) {
				continue
			}
			rule, ok := flowspace.EvalTable(parts[pi].Rules, k)
			if !ok {
				return nil, fmt.Errorf("replay: key %v matches no rule of its partition", k)
			}
			for hit := range parts[pi].Rules {
				if parts[pi].Rules[hit].ID == rule.ID {
					misses = append(misses, miss{k, pkts[i].Ingress, pi, hit})
					break
				}
			}
			break
		}
	}
	m0 := mallocs()
	chunks(tz, "flowspace.CoverFor", len(misses), replayChunk, func(lo, hi int) {
		for _, m := range misses[lo:hi] {
			p := &parts[m.part]
			c, _ := flowspace.CoverFor(p.Rules, m.hit, p.Region, m.key)
			sink += c.Fields[0].Value
		}
	})
	vals["flowspace.cover_for_allocs"] = float64(mallocs()-m0) / float64(len(misses))
	vals["flowspace.cover_for_ns"] = tz.perPacket("replay", "flowspace.CoverFor")

	auths := make([]*core.Authority, len(parts))
	for i := range parts {
		auths[i] = core.NewAuthority(assign.Primary[i], parts[i], cfg.Strategy)
	}
	results := make([]core.MissResult, len(misses))
	m0 = mallocs()
	chunks(tz, "core.HandleMiss", len(misses), replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = auths[misses[i].part].HandleMiss(misses[i].key)
		}
	})
	vals["core.handle_miss_allocs"] = float64(mallocs()-m0) / float64(len(misses))
	vals["core.handle_miss_ns"] = tz.perPacket("replay", "core.HandleMiss")

	var buf []byte
	chunks(tz, "proto.CacheInstallCodec", len(results), replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf = proto.Encode(buf[:0], &proto.CacheInstall{Ingress: misses[i].ingress, Rules: results[i].CacheMods})
			_, n, err := proto.DecodeFrame(buf)
			if err != nil {
				panic(err) // a frame Encode just built always decodes
			}
			sink += uint64(n)
		}
	})
	vals["proto.cache_install_codec_ns"] = tz.perPacket("replay", "proto.CacheInstallCodec")

	// Insert into a table that is always full, as the bounded cache of
	// miss-storm is: every insert picks and evicts an LRU victim.
	var covers []flowspace.Rule
	for i := range results {
		for j := range results[i].CacheMods {
			covers = append(covers, results[i].CacheMods[j].Rule)
		}
	}
	if len(covers) == 0 {
		return nil, fmt.Errorf("replay: the miss path produced no cache rules")
	}
	full := tcam.New("replay/evict", evictTable, tcam.EvictLRU)
	insert := func(i int) error {
		r := covers[i%len(covers)]
		r.ID = 1<<50 + uint64(i) // the cover rules repeat; their IDs may not
		return full.Insert(replayNow, r, 0, 0)
	}
	for i := 0; i < evictTable; i++ {
		if err := insert(i); err != nil {
			return nil, fmt.Errorf("replay: fill evict table: %w", err)
		}
	}
	var insertErr error
	chunks(tz, "tcam.Insert/evict", evictInserts, replayChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := insert(evictTable + i); err != nil {
				insertErr = err
			}
		}
	})
	if insertErr != nil {
		return nil, fmt.Errorf("replay: insert into full table: %w", insertErr)
	}
	vals["tcam.insert_evict_ns"] = tz.perPacket("replay", "tcam.Insert/evict")
	return vals, nil
}

// attributed is the per-packet CPU the replayed stages account for, weighted
// by how often a packet takes each: every packet pays key extraction and a
// burst classify; a redirected one also pays the authority's miss handling;
// one whose install was not shed also pays the install's trip through the
// codec and its insert at the ingress (an evicting insert when the cache is
// bounded).
func attributed(w *workloadSpec, layer map[string]float64, missRatio, installRatio float64) float64 {
	install := layer["switchsim.apply_flowmod_ns"]
	if w.cacheCap > 0 {
		install = layer["tcam.insert_evict_ns"]
	}
	return layer["packet.key_extract_ns"] + layer["switchsim.classify_burst_ns"] +
		missRatio*layer["core.handle_miss_ns"] +
		installRatio*(layer["proto.cache_install_codec_ns"]+install)
}
