package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/proto"
	"difane/internal/wire"
)

// tableOrder is the order a switch consults its tables in.
var tableOrder = [3]proto.Table{proto.TableCache, proto.TableAuthority, proto.TablePartition}

// tables is every switch's rules, copied out with Cluster.TableRules and
// indexed [switch][position in tableOrder].
type tables [numSwitches][3][]flowspace.Rule

// rep is what one repetition on a fresh deployment measured.
type rep struct {
	// attempted counts packets injected in the timed phase; failed counts
	// those without the oracle's verdict, plus every other breach.
	attempted, failed uint64
	// timed is how long the timed phase took.
	timed time.Duration
	errs  []string
	// broken marks a rep none of whose numbers can be trusted: a declared
	// death, a warm-up that did not converge, a Run that hit its horizon.
	broken bool
	// vals holds every scalar the rep measured, by metric name.
	vals map[string]float64
	// tabs is the tables at the end of the timed phase (traced rep only).
	tabs *tables
}

func (r *rep) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// block is one stretch of a closed-loop timed phase: a few windows, timed
// together.
type block struct {
	packets, windows int
	wall             time.Duration
}

// window injects one closed-loop window and waits for every verdict.
func (r *rep) window(d *wire.Deployment, pkts []core.PacketIn, tz *tracer) {
	s := tz.begin("wire.InjectBatch", len(pkts))
	d.InjectBatch(pkts)
	tz.end(s)
	r.wait(d, len(pkts), tz)
}

// wait blocks until everything injected so far has its verdict.
func (r *rep) wait(d *wire.Deployment, packets int, tz *tracer) {
	s := tz.begin("wire.Run", packets)
	start := time.Now()
	d.Run(runHorizon)
	tz.end(s)
	if time.Since(start).Seconds() >= runHorizon && !r.broken {
		r.broken = true
		r.failf("Run hit its %gs horizon", runHorizon)
	}
}

// pace offers batches open-loop on a fixed schedule and returns how late
// each went out, in µs. It sleeps until a batch is due and never spins: a
// spinning generator would take one of the two cores from the program.
func pace(d *wire.Deployment, cur *cursor, batches int, tz *tracer) []float64 {
	const interval = time.Second * pacedBatch / pacedRate
	late := make([]float64, 0, batches)
	start := time.Now()
	for i := 0; i < batches; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(due))/1e3)
		pkts := cur.next(pacedBatch)
		s := tz.begin("wire.InjectBatch", len(pkts))
		d.InjectBatch(pkts)
		tz.end(s)
	}
	return late
}

// drained is what the paced drainer saw in one phase.
type drained struct {
	n           uint64
	first, hit  []float64
	wrongEgress uint64
}

// startDrain consumes delivery notifications on a second goroutine and
// checks 1 in egressCheckEvery against the oracle's egress. The returned
// stop drains what is already queued, waits for the goroutine and returns
// what it saw; call it after Run, when every notification is queued.
func startDrain(ch <-chan wire.Delivery, tr *trace, keep bool) (stop func() drained) {
	quit := make(chan struct{})
	done := make(chan drained, 1)
	go func() {
		var res drained
		take := func(d wire.Delivery) {
			res.n++
			if res.n%egressCheckEvery == 0 {
				if want, ok := tr.egress[d.Header.Key()]; !ok || want != d.Egress {
					res.wrongEgress++
				}
			}
			if !keep {
				return
			}
			if us := float64(d.Latency) / 1e3; d.Detour {
				res.first = append(res.first, us)
			} else {
				res.hit = append(res.hit, us)
			}
		}
		for {
			select {
			case d := <-ch:
				take(d)
			case <-quit:
				for {
					select {
					case d := <-ch:
						take(d)
					default:
						done <- res
						return
					}
				}
			}
		}
	}()
	return func() drained {
		close(quit)
		return <-done
	}
}

// verify charges a phase's counter deltas against the oracle's expected
// verdict counts and returns the number of failed operations.
func (r *rep) verify(phase string, before, after *core.Measurements, cur *cursor) uint64 {
	failed := uint64(0)
	exact := func(what string, got, want uint64) {
		if got == want {
			return
		}
		r.failf("%s: %s %d, oracle says %d", phase, what, got, want)
		if got > want {
			failed += got - want
		} else {
			failed += want - got
		}
	}
	exact("delivered", after.Delivered-before.Delivered, cur.delivered)
	exact("policy-dropped", after.Drops.Policy-before.Drops.Policy, cur.dropped)
	lost := func(what string, n uint64) {
		if n > 0 {
			r.failf("%s: %d %s drops", phase, n, what)
			failed += n
		}
	}
	lost("queue", after.Drops.AuthorityQueue-before.Drops.AuthorityQueue)
	lost("hole", after.Drops.Hole-before.Drops.Hole)
	lost("unreachable", after.Drops.Unreachable-before.Drops.Unreachable)
	lost("redirect-shed", after.Drops.RedirectShed-before.Drops.RedirectShed)
	return failed
}

// warmClosed warms a closed-loop deployment and returns the passes taken.
// With no fixed warm-up it replays the whole trace until a pass adds no
// redirect: stopping early would leave the timed phase a nondeterministic
// ~1% misses. The first pass, where nearly every flow misses, goes in
// windows of warmWindow so that no install is shed; later passes have few
// misses left and go in full windows.
func (r *rep) warmClosed(w *workloadSpec, d *wire.Deployment, cur *cursor, tz *tracer) int {
	if w.warmWindows > 0 {
		for i := 0; i < w.warmWindows; i++ {
			r.window(d, cur.next(w.window), tz)
		}
		return 1
	}
	redirects := uint64(0)
	size := warmWindow
	for pass := 1; pass <= maxWarmPasses; pass++ {
		for left := cur.tr.n; left > 0; {
			n := min(size, left)
			r.window(d, cur.next(n), tz)
			left -= n
		}
		s := tz.begin("wire.Measurements", 0)
		now := d.Measurements().Redirects
		tz.end(s)
		if now == redirects {
			return pass
		}
		redirects, size = now, w.window
	}
	r.broken = true
	r.failf("warm-up still redirecting after %d passes", maxWarmPasses)
	return maxWarmPasses
}

// runRep builds a fresh deployment, warms it, times a fixed amount of work
// and checks every verdict count against the oracle. Spans go to tz when it
// is not nil, and the end-of-run tables are kept for the ledger replay.
func runRep(w *workloadSpec, tr *trace, tz *tracer) (*rep, error) {
	r := &rep{vals: make(map[string]float64)}
	top := tz.begin("rep", 0)
	defer tz.end(top)

	heap0 := liveHeap()
	t0 := time.Now()
	s := tz.begin("wire.NewDeployment", 0)
	d, err := wire.NewDeployment(clusterConfig(w, tr.policy))
	tz.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	// Warm-up, untimed.
	cur := &cursor{tr: tr}
	s = tz.begin("warm", 0)
	passes := 1
	if w.paced {
		stop := startDrain(d.C.Deliveries, tr, false)
		pace(d, cur, w.warmBatches, tz)
		r.wait(d, 0, tz)
		stop()
	} else {
		passes = r.warmClosed(w, d, cur, tz)
	}
	tz.end(s)
	r.vals["wire.warm_passes"] = float64(passes)
	r.vals["setup_s"] = time.Since(t0).Seconds()
	m0 := d.Measurements()
	warmFailed := r.verify("warm-up", &core.Measurements{}, m0, cur)
	cur.reset()

	// Timed phase: a fixed packet count.
	var seen drained
	var late []float64
	var blocks []block
	mallocs0 := mallocs()
	cpu0 := cpuTime()
	t1 := time.Now()
	s = tz.begin("timed", 0)
	if w.paced {
		stop := startDrain(d.C.Deliveries, tr, true)
		late = pace(d, cur, w.timedBatches, tz)
		r.wait(d, 0, tz)
		seen = stop()
	} else {
		for left := w.timedPackets; left > 0; {
			b := block{}
			start := time.Now()
			for i := 0; i < w.blockWindows && left > 0; i++ {
				n := min(w.window, left)
				r.window(d, cur.next(n), tz)
				left -= n
				b.packets += n
				b.windows++
			}
			b.wall = time.Since(start)
			blocks = append(blocks, b)
		}
	}
	tz.end(s)
	r.timed = time.Since(t1)
	cpu := cpuTime() - cpu0
	allocs := mallocs() - mallocs0

	s = tz.begin("wire.Measurements", 0)
	m1 := d.Measurements()
	tz.end(s)

	r.attempted = cur.sent
	r.failed = warmFailed + r.verify("timed", m0, m1, cur)
	if w.paced {
		if delivered := m1.Delivered - m0.Delivered; seen.n != delivered {
			r.failf("timed: drained %d delivery notifications of %d", seen.n, delivered)
			r.failed += delivered - min(seen.n, delivered)
		}
		if seen.wrongEgress > 0 {
			r.failf("timed: %d sampled deliveries left at the wrong egress", seen.wrongEgress)
			r.failed += seen.wrongEgress
		}
	}
	if m1.AuthorityDeaths > 0 && !r.broken {
		r.broken = true
		r.failf("%d switches declared dead", m1.AuthorityDeaths)
	}
	if r.broken || r.failed > r.attempted {
		r.failed = r.attempted
	}

	pkts := float64(r.attempted)
	verdicts := (m1.Delivered - m0.Delivered) + (m1.Drops.Policy - m0.Drops.Policy)
	// Goodput is verdicts per second. Open loop, that is the timed phase as a
	// whole. Closed loop, it is the median block's rate: the host now and then
	// stalls the guest for tens of ms, which a mean over the phase swallows
	// whole (goodput down 20% where the median block moved 2%). dwell is each
	// block's time per window, in µs.
	goodput := float64(verdicts) / r.timed.Seconds()
	var dwell []float64
	if !w.paced {
		rates := make([]float64, len(blocks))
		for i, b := range blocks {
			rates[i] = float64(b.packets) / b.wall.Seconds()
			dwell = append(dwell, float64(b.wall)/1e3/float64(b.windows))
		}
		goodput = median(rates) * float64(verdicts) / pkts
	}
	r.vals["goodput_pps"] = goodput
	r.vals["cpu_us_per_pkt"] = float64(cpu) / 1e3 / pkts
	r.vals["wire.allocs_per_pkt"] = float64(allocs) / pkts
	r.vals["wire.miss_ratio"] = float64(m1.Redirects-m0.Redirects) / pkts
	shed := m1.CacheInstallsShed - m0.CacheInstallsShed
	r.vals["wire.installs_shed"] = float64(shed)
	// Installs made per packet: every redirect asks for one, and an authority
	// switch whose install queue is full sheds the request.
	r.vals["wire.install_ratio"] = (float64(m1.Redirects-m0.Redirects) - float64(shed)) / pkts
	r.vals["wire.queue_drops"] = float64(m1.Drops.AuthorityQueue)
	r.vals["wire.hole_drops"] = float64(m1.Drops.Hole)
	r.vals["wire.authority_deaths"] = float64(m1.AuthorityDeaths)
	r.vals["metrics.latency_sample_mb"] = float64(8*m1.Delivered) / (1 << 20)
	// Open loop, latency is the program's injection→verdict stamp of the
	// timed phase's deliveries, split on whether the packet detoured through
	// an authority switch. A closed loop has no light-load latency to report:
	// the latency metrics are window dwell there, how long a timed window took
	// from injection to its last verdict.
	first, hit := dwell, dwell
	if w.paced {
		first, hit = seen.first, seen.hit
	}
	sort.Float64s(first)
	sort.Float64s(hit)
	sort.Float64s(late)
	r.vals["first_pkt_p50_us"] = percentile(first, 50)
	r.vals["wire.first_pkt_p95_us"] = percentile(first, 95)
	r.vals["wire.first_pkt_p99_us"] = percentile(first, 99)
	r.vals["hit_pkt_p50_us"] = percentile(hit, 50)
	r.vals["wire.hit_pkt_p95_us"] = percentile(hit, 95)
	r.vals["wire.hit_pkt_p99_us"] = percentile(hit, 99)
	r.vals["gen.late_p50_us"] = percentile(late, 50)
	r.vals["gen.late_p99_us"] = percentile(late, 99)

	// The snapshots hold a copy of every latency sample: drop them before
	// measuring what the deployment itself retains.
	m0, m1 = nil, nil
	r.vals["heap_mb"] = (float64(liveHeap()) - float64(heap0)) / (1 << 20)
	r.vals["wire.goroutines"] = float64(runtime.NumGoroutine())
	r.vals["wire.peak_queue_depth"] = float64(d.C.PeakQueueDepth())

	if tz != nil {
		s = tz.begin("wire.Telemetry", 0)
		snap := d.Telemetry()
		tz.end(s)
		series := 0
		for i := range snap.Metrics {
			series += len(snap.Metrics[i].Points)
		}
		r.vals["telemetry.series"] = float64(series)
		r.tabs = new(tables)
	}
	var most [3]int
	total := 0
	for sw := 0; sw < numSwitches; sw++ {
		sum := 0
		for t, table := range tableOrder {
			rules := d.C.TableRules(uint32(sw), table)
			if r.tabs != nil {
				r.tabs[sw][t] = rules
			}
			most[t] = max(most[t], len(rules))
			sum += len(rules)
		}
		total = max(total, sum)
	}
	r.vals["tcam_entries_max"] = float64(total)
	r.vals["tcam.cache_entries"] = float64(most[0])
	r.vals["tcam.authority_entries"] = float64(most[1])
	r.vals["tcam.partition_entries"] = float64(most[2])

	s = tz.begin("wire.Close", 0)
	err = d.Close()
	tz.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return r, nil
}
