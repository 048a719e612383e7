package wire

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/metrics"
)

// TestMeasurementsMergeIdentity floods an 8-switch cluster from concurrent
// injectors on every ingress while readers snapshot Measurements() mid-run,
// then checks the merged shards against the scencheck accounting identity:
// every injected packet is accounted exactly once across delivered and the
// drop buckets, and the latency distributions carry exactly one sample per
// delivered packet. A lost or double-counted update in the per-node shard
// merge would break the identity.
func TestMeasurementsMergeIdentity(t *testing.T) {
	const (
		injectors = 8
		perInj    = 500
	)
	d := Deploy(startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4, 5, 6, 7},
		Authorities: []uint32{2, 5},
		Policy:      testPolicy(),
		Strategy:    core.StrategyExact,
	})))

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() { // concurrent snapshot readers: merge must be safe and monotone
			defer readers.Done()
			var lastDelivered uint64
			for !stop.Load() {
				m := d.Measurements()
				if m.Delivered < lastDelivered {
					t.Error("Delivered went backwards across snapshots")
					return
				}
				lastDelivered = m.Delivered
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ports := [3]uint64{80, 22, 443} // forward, policy-drop, catch-all
			for i := 0; i < perInj; i++ {
				var k flowspace.Key
				k[flowspace.FIPSrc] = uint64(g)<<16 | uint64(i%37)
				k[flowspace.FTPDst] = ports[i%len(ports)]
				d.InjectPacket(0, uint32(g), k, 100, 0)
			}
		}(g)
	}
	wg.Wait()
	d.Run(30)
	stop.Store(true)
	readers.Wait()

	m := d.Measurements()
	accounted := m.Delivered + m.Drops.Policy + m.Drops.Hole +
		m.Drops.AuthorityQueue + m.Drops.RedirectShed + m.Drops.Unreachable
	if want := uint64(injectors * perInj); accounted != want {
		t.Fatalf("accounting identity broken: injected %d, accounted %d (%+v)",
			want, accounted, m.Drops)
	}
	if samples := uint64(m.FirstPacketDelay.N() + m.LaterPacketDelay.N()); samples != m.Delivered {
		t.Fatalf("latency samples = %d, delivered = %d: shard merge lost or duplicated samples",
			samples, m.Delivered)
	}
}

// TestMeasurementsMergeAllFields pins the live merge against the full field
// set by reflection: every counter and distribution of every measurement
// shard gets a distinct value, and Cluster.Measurements() must carry all of
// it — each core.Measurements field wire records comes back non-zero and
// the counters sum to exactly what the shards hold. Adding a field to
// core.Measurements or to a shard without teaching mergeInto about it
// fails here; the telemetry registry fed from the merge silently
// under-reports otherwise.
func TestMeasurementsMergeAllFields(t *testing.T) {
	// What wire mode has no source for: stretch needs a topology.
	simOnly := map[string]bool{"Stretch": true}

	c := &Cluster{ext: &nodeStats{}, nodes: []*node{
		{stats: &nodeStats{}}, {stats: &nodeStats{}},
	}}
	var wantCount, wantSamples uint64
	next := uint64(1)
	fill := func(shard any) {
		v := reflect.ValueOf(shard).Elem()
		for i := 0; i < v.NumField(); i++ {
			// The shards' fields are unexported: reach them by address.
			f := v.Field(i)
			switch f := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Interface().(type) {
			case *atomic.Uint64:
				next *= 3
				f.Store(next)
				wantCount += next
			case *metrics.Dist:
				for s := 0; s < v.NumField()+i; s++ {
					f.Add(float64(s+1) * 1e-6)
					wantSamples++
				}
			case *sync.Mutex:
			default:
				t.Fatalf("%s has a field type this test does not model: %s",
					v.Type(), v.Type().Field(i).Name)
			}
		}
	}
	fill(c.ext)
	fill(c.nodes[0].stats)
	fill(c.nodes[1].stats)
	fill(&c.cold)

	m := reflect.ValueOf(c.Measurements()).Elem()
	var gotCount, gotSamples uint64
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			zero := false
			switch f.Type() {
			case reflect.TypeOf(uint64(0)):
				gotCount += f.Uint()
				zero = f.Uint() == 0
			case reflect.TypeOf(metrics.Dist{}):
				n := uint64(f.Addr().Interface().(*metrics.Dist).N())
				gotSamples += n
				zero = n == 0
			case reflect.TypeOf(core.Drops{}):
				walk(f, name+".")
				continue
			default:
				t.Fatalf("Measurements has a field type this test does not model: %s %s", name, f.Type())
			}
			if zero != simOnly[name] {
				t.Errorf("Measurements.%s: zero = %v after the merge, want %v", name, zero, simOnly[name])
			}
		}
	}
	walk(m, "")
	if gotCount != wantCount || gotSamples != wantSamples {
		t.Errorf("merge carried counters summing to %d and %d samples; the shards hold %d and %d",
			gotCount, gotSamples, wantCount, wantSamples)
	}
}

// TestMeasurementStateIsFixedSize: what a deployment holds to be measured
// does not grow with the traffic it has carried. A distribution is a fixed
// array with no pointer to anything that could grow, a whole Measurements
// fits in 64 KB, and a warmed cluster's live heap is the same a million
// delivered packets later (when a Dist kept every sample it grew by 8 MB).
func TestMeasurementStateIsFixedSize(t *testing.T) {
	if size := unsafe.Sizeof(core.Measurements{}); size > 64<<10 {
		t.Errorf("core.Measurements is %d bytes, want ≤ 64 KB", size)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		default:
			return ty.Kind() <= reflect.Complex128 // bool and the numbers
		}
	}
	if !pointerFree(reflect.TypeOf(metrics.Dist{})) {
		t.Error("metrics.Dist holds a pointer, slice, map or string: a copy is no longer a snapshot")
	}

	if raceEnabled {
		t.Skip("a million packets under the race detector is a soak, not a unit test")
	}
	const packets, batch, window = 1_000_000, 250, 2000
	d := hitPathDeployment(t, core.PartitionConfig{})
	burst := make([]core.PacketIn, batch)
	for i := range burst {
		var k flowspace.Key
		k[flowspace.FIPSrc], k[flowspace.FTPDst] = uint64(1+i%16), uint64(1000+i%8)
		burst[i] = core.PacketIn{Ingress: uint32(i % 8), Key: k, Size: 100}
	}
	warmUntilQuiet(t, d, burst)
	before, delivered := liveHeap(), d.Measurements().Delivered
	for sent := 0; sent < packets; sent += window {
		for b := 0; b < window; b += batch {
			d.InjectBatch(burst)
		}
		d.Run(30)
	}
	after := liveHeap()
	if got := d.Measurements().Delivered - delivered; got != packets {
		t.Fatalf("delivered %d of %d packets", got, packets)
	}
	t.Logf("live heap %d → %d bytes over %d delivered packets", before, after, packets)
	if after > before+1<<20 {
		t.Errorf("live heap grew by %d bytes over %d delivered packets, want < 1 MB", after-before, packets)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep left
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
