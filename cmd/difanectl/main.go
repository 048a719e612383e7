// Command difanectl is a small interactive driver for a DIFANE
// deployment: load a canonical network, inject flows, inspect switch
// tables and measurements. The -mode flag picks the backend — the
// discrete-event simulator (default), the reactive baseline, or the
// wire-mode prototype — all driven through the same Deployment interface.
//
// Usage:
//
//	difanectl [-mode sim|baseline|wire] [-network campus|vpn|iptv|isp]
//	          [-authorities K] [-seed N]
//	difanectl check [-seed N | -count N] [-steps N] [-mode ...]
//	difanectl serve [-telemetry addr] [-switches N] [-replicas N] [-trace] [-duration D]
//	difanectl metrics -addr host:port [-json]
//	difanectl ha -addr host:port [-json]
//	difanectl trace -addr host:port [-follow] [-story] [filters...]
//	difanectl journey -addr host:port [-flow H | -trace ID] [-slowest] [-dropped] [-limit N]
//
// serve boots a demo wire cluster with the telemetry HTTP endpoint bound
// and traffic flowing; metrics scrapes its /metrics (Prometheus text) or
// /vars (JSON); ha renders /ha — the controller replica set, leader and
// fencing epoch, and every switch's BFD session; trace dumps the flight
// recorder, follows it live, or — with -story and a flow filter —
// reconstructs a single flow's hop-by-hop journey through the cluster;
// journey renders /journeys — sampled packets' end-to-end stories joined
// across nodes on trace ID, answering "why was this packet slow/dropped".
//
// Commands (stdin, one per line; (sim) marks simulator-only commands,
// (wire) wire-only):
//
//	inject <ingress> <ip_src> <ip_dst> <tp_dst>   inject one flow (3 packets)
//	trace <flows> [file]                          inject a Zipf trace (optionally saving it)
//	replay <file>                                 replay a saved trace
//	stats                                         print run measurements
//	tables <switch>                               dump a switch's tables (sim)
//	counters                                      aggregated per-rule counters (sim)
//	partitions                                    print the rule partitions (sim)
//	fail <switch>                                 fail an authority switch (sim)
//	kill <switch>                                 crash a switch (wire)
//	alive                                         failure detector verdicts (wire)
//	ha                                            replica set, leader, BFD sessions (wire)
//	snapshot <dir>                                journal the controller's state in dir, sealed at every commit (sim)
//	restore <dir>                                 recover the controller from a journal (sim)
//	epoch                                         print the controller's fencing epoch
//	load <file>                                   replace the policy from a file (sim)
//	save <file>                                   write the policy to a file (sim)
//	compact                                       drop shadowed rules (sim)
//	help                                          this text
//	quit
//
// A policy file (see -policy) uses the text grammar of ParsePolicy:
//
//	rule 1 prio 100 ip_src=10.0.0.0/8 tp_dst=80 -> forward(4)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"difane"
	"difane/internal/metrics"
)

// session holds the active backend; net/ctl are nil outside sim mode and
// cluster is nil outside wire mode.
type session struct {
	mode    string
	dep     difane.Deployment
	net     *difane.Network
	ctl     *difane.Controller
	cluster *difane.Cluster
	spec    *difane.Spec
	seed    int64
	now     float64
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "check":
			os.Exit(runCheck(os.Args[2:]))
		case "trace":
			os.Exit(runTrace(os.Args[2:]))
		case "journey":
			os.Exit(runJourney(os.Args[2:]))
		case "metrics":
			os.Exit(runMetrics(os.Args[2:]))
		case "ha":
			os.Exit(runHA(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		}
	}
	mode := flag.String("mode", "sim", "backend: sim|baseline|wire")
	network := flag.String("network", "campus", "canonical network: campus|vpn|iptv|isp")
	k := flag.Int("authorities", 2, "number of authority switches")
	seed := flag.Int64("seed", 1, "generator seed")
	policyFile := flag.String("policy", "", "replace the canonical policy with rules from this file")
	flag.Parse()

	var spec *difane.Spec
	switch *network {
	case "campus":
		spec = difane.CampusNetwork(*seed, difane.ScaleTest)
	case "vpn":
		spec = difane.VPNNetwork(*seed, difane.ScaleTest)
	case "iptv":
		spec = difane.IPTVNetwork(*seed, difane.ScaleTest)
	case "isp":
		spec = difane.ISPNetwork(*seed, difane.ScaleTest)
	default:
		fmt.Fprintf(os.Stderr, "unknown network %q\n", *network)
		os.Exit(2)
	}

	if *policyFile != "" {
		f, err := os.Open(*policyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rules, err := difane.ParsePolicy(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec.Policy = rules
	}

	auths := difane.PlaceAuthorities(spec.Graph, *k)
	s := &session{mode: *mode, spec: spec, seed: *seed}
	switch *mode {
	case "sim":
		net, err := difane.New(spec.Graph, auths, spec.Policy, difane.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.net, s.ctl, s.dep = net, difane.NewController(net), net
		fmt.Printf("loaded %s (sim): %d switches, %d rules, %d partitions, authorities %v\n",
			spec.Name, spec.Graph.NumNodes(), len(spec.Policy),
			len(net.Assignment().Partitions), auths)
	case "baseline":
		bn, err := difane.NewBaseline(spec.Graph, spec.Policy, difane.BaselineConfig{
			ControllerNode: auths[0],
			ControllerRate: 50000,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.dep = bn
		fmt.Printf("loaded %s (baseline): %d switches, %d rules, controller at %d\n",
			spec.Name, spec.Graph.NumNodes(), len(spec.Policy), auths[0])
	case "wire":
		var ids []uint32
		for _, id := range spec.Graph.Nodes() {
			ids = append(ids, uint32(id))
		}
		wd, err := difane.NewWireDeployment(difane.ClusterConfig{
			Switches:    ids,
			Authorities: auths,
			Policy:      spec.Policy,
			// Traces are injected as fast as possible in wire mode; deep
			// queues absorb the burst, and coarse BFD timers (2 s to a
			// verdict, 4 s for an unanswered redirect) keep the failure
			// detector from false positives while the burst saturates
			// the host.
			QueueDepth: 16384,
			BFD:        difane.BFDConfig{Interval: 200 * time.Millisecond, DetectMult: 10},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.dep, s.cluster = wd, wd.C
		defer wd.Close()
		fmt.Printf("loaded %s (wire): %d switches, %d rules, %d partitions, authorities %v\n",
			spec.Name, len(ids), len(spec.Policy),
			len(wd.C.Assignment().Partitions), auths)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	fmt.Println(`type "help" for commands`)

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return
		}
		s.command(fields)
	}
}

func (s *session) command(fields []string) {
	switch fields[0] {
	case "help":
		fmt.Println("inject <ingress> <ip_src> <ip_dst> <tp_dst> | trace <flows> [file] | replay <file> | stats | tables <switch> | counters | partitions | fail <switch> | kill <switch> | alive | ha | snapshot <dir> | restore <dir> | epoch | load <file> | save <file> | compact | quit")
	case "inject":
		if len(fields) != 5 {
			fmt.Println("usage: inject <ingress> <ip_src> <ip_dst> <tp_dst>")
			return
		}
		args := make([]uint64, 4)
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 0, 64)
			if err != nil {
				fmt.Printf("bad argument %q\n", f)
				return
			}
			args[i] = v
		}
		var key difane.Key
		key[difane.FIPSrc] = args[1]
		key[difane.FIPDst] = args[2]
		key[difane.FTPDst] = args[3]
		for p := 0; p < 3; p++ {
			s.dep.InjectPacket(s.now+float64(p)*0.01, uint32(args[0]), key, 800, uint64(p))
		}
		s.now += 1
		s.dep.Run(s.now)
		m := s.dep.Measurements()
		fmt.Printf("t=%.2fs delivered=%d drops=%+v\n", s.now, m.Delivered, m.Drops)
	case "trace":
		n := 1000
		if len(fields) > 1 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				n = v
			}
		}
		flows := difane.GenerateTraffic(s.spec, difane.TrafficConfig{
			Flows: n, Rate: 1000, Seed: s.seed + int64(s.now),
		})
		if len(fields) > 2 {
			f, err := os.Create(fields[2])
			if err != nil {
				fmt.Println(err)
				return
			}
			err = difane.WriteTrace(f, flows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("saved trace to %s\n", fields[2])
		}
		s.runFlows(flows)
	case "replay":
		if len(fields) != 2 {
			fmt.Println("usage: replay <file>")
			return
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		flows, err := difane.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Println(err)
			return
		}
		if len(flows) == 0 {
			fmt.Println("empty trace")
			return
		}
		s.runFlows(flows)
	case "stats":
		m := s.dep.Measurements()
		fmt.Printf("delivered=%d redirects=%d setups=%d drops=%+v\n",
			m.Delivered, m.Redirects, m.SetupsCompleted, m.Drops)
		fmt.Printf("first-packet delay: p50=%s p99=%s (n=%d)\n",
			metrics.FormatDuration(m.FirstPacketDelay.Percentile(50)),
			metrics.FormatDuration(m.FirstPacketDelay.Percentile(99)),
			m.FirstPacketDelay.N())
		if s.net != nil {
			fmt.Printf("stretch: mean=%.2f (n=%d), cache entries=%d\n",
				m.Stretch.Mean(), m.Stretch.N(), s.net.CacheEntries())
		}
		if s.cluster != nil {
			fmt.Printf("resilience: deaths=%d failovers(local)=%d promoted=%d reconnects=%d\n",
				m.AuthorityDeaths, m.FailoversLocal, m.FailoversPromoted, m.ControlReconnects)
		}
	case "tables":
		if s.net == nil {
			fmt.Println("tables is sim-only")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: tables <switch>")
			return
		}
		id, err := strconv.ParseUint(fields[1], 0, 32)
		if err != nil {
			fmt.Println("bad switch id")
			return
		}
		sw, ok := s.net.Switches[uint32(id)]
		if !ok {
			fmt.Println("no such switch")
			return
		}
		fmt.Print(sw)
	case "partitions":
		if s.net == nil {
			fmt.Println("partitions is sim-only")
			return
		}
		for i, p := range s.net.Assignment().Partitions {
			fmt.Printf("partition %d: %d rules, replicas %v, region %s\n",
				i, len(p.Rules), s.net.Assignment().ReplicasFor(i), p.Region)
		}
	case "counters":
		if s.net == nil {
			fmt.Println("counters is sim-only")
			return
		}
		for _, rc := range s.net.PolicyCounters() {
			fmt.Printf("rule %d: %d packets, %d bytes\n", rc.RuleID, rc.Packets, rc.Bytes)
		}
	case "load":
		if s.net == nil {
			fmt.Println("load is sim-only")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: load <file>")
			return
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		rules, err := difane.ParsePolicy(f)
		f.Close()
		if err != nil {
			fmt.Println(err)
			return
		}
		at, err := s.ctl.UpdatePolicy(rules)
		if err != nil {
			fmt.Println(err)
			return
		}
		s.now = at + 0.01
		s.net.Run(s.now)
		fmt.Printf("loaded %d rules; converged at t=%.2fs\n", len(rules), at)
	case "save":
		if s.net == nil {
			fmt.Println("save is sim-only")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: save <file>")
			return
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		err = difane.WritePolicy(f, s.net.Policy())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("wrote %d rules to %s\n", len(s.net.Policy()), fields[1])
	case "compact":
		if s.net == nil {
			fmt.Println("compact is sim-only")
			return
		}
		kept, removed := difane.CompactPolicy(s.net.Policy())
		if len(removed) == 0 {
			fmt.Println("no shadowed rules")
			return
		}
		at, err := s.ctl.UpdatePolicy(kept)
		if err != nil {
			fmt.Println(err)
			return
		}
		s.now = at + 0.01
		s.net.Run(s.now)
		fmt.Printf("removed %d shadowed rules: %v\n", len(removed), removed)
	case "fail":
		if s.net == nil {
			fmt.Println("fail is sim-only (use kill in wire mode)")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: fail <switch>")
			return
		}
		id, err := strconv.ParseUint(fields[1], 0, 32)
		if err != nil {
			fmt.Println("bad switch id")
			return
		}
		s.net.FailAuthority(uint32(id))
		at := s.ctl.OnTopologyChange()
		s.now = at + 0.01
		s.net.Run(s.now)
		fmt.Printf("failed switch %d; failover converged at t=%.2fs\n", id, at)
	case "kill":
		if s.cluster == nil {
			fmt.Println("kill is wire-only (use fail in sim mode)")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: kill <switch>")
			return
		}
		id, err := strconv.ParseUint(fields[1], 0, 32)
		if err != nil {
			fmt.Println("bad switch id")
			return
		}
		if !s.cluster.KillSwitch(uint32(id)) {
			fmt.Println("no such switch")
			return
		}
		fmt.Printf("killed switch %d; failure detector will promote backups\n", id)
	case "snapshot":
		if s.ctl == nil {
			fmt.Println("snapshot is sim-only")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: snapshot <dir>")
			return
		}
		if j := s.ctl.Journal(); j != nil {
			fmt.Printf("the journal at %s already holds the state; it is sealed at every commit\n", j.Dir())
			return
		}
		if err := s.ctl.AttachJournal(fields[1]); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("sealed epoch %d, policy version %d in %s\n",
			s.ctl.Epoch, s.ctl.PolicyVersion, s.ctl.Journal().Dir())
	case "restore":
		if s.net == nil {
			fmt.Println("restore is sim-only")
			return
		}
		if len(fields) != 2 {
			fmt.Println("usage: restore <dir>")
			return
		}
		if s.ctl != nil && s.ctl.Journal() != nil {
			s.ctl.Journal().Close()
		}
		ctl, rep, err := difane.NewControllerFromJournal(s.net, fields[1])
		if err != nil {
			fmt.Println(err)
			return
		}
		s.ctl = ctl
		if !rep.HadState {
			fmt.Printf("no durable state in %s; controller starts fresh at epoch %d\n",
				fields[1], ctl.Epoch)
			return
		}
		fmt.Printf("recovered epoch %d, policy version %d; reconciliation installed %d, deleted %d authority rules\n",
			ctl.Epoch, ctl.PolicyVersion, rep.Installed, rep.Deleted)
	case "epoch":
		switch {
		case s.ctl != nil:
			journaled := "no journal"
			if j := s.ctl.Journal(); j != nil {
				journaled = "journal at " + j.Dir()
			}
			fmt.Printf("epoch %d, policy version %d (%s)\n",
				s.ctl.Epoch, s.ctl.PolicyVersion, journaled)
		case s.cluster != nil:
			fmt.Printf("epoch %d, controller down=%v\n",
				s.cluster.Epoch(), s.cluster.ControllerDown())
		default:
			fmt.Println("epoch needs a controller (sim or wire mode)")
		}
	case "alive":
		if s.cluster == nil {
			fmt.Println("alive is wire-only")
			return
		}
		for _, ss := range s.cluster.Status().Switches {
			fmt.Printf("switch %d: alive=%v killed=%v queue=%d cache=%d\n",
				ss.ID, ss.Alive, ss.Killed, ss.QueueDepth, ss.CacheEntries)
		}
	case "ha":
		if s.cluster == nil {
			fmt.Println("ha is wire-only")
			return
		}
		printHA(s.cluster.HAStatus())
	default:
		fmt.Printf("unknown command %q (try help)\n", fields[0])
	}
}

// runFlows injects a trace starting at the current time and runs the
// deployment past its end.
func (s *session) runFlows(flows []difane.Flow) {
	last := s.now
	for _, f := range flows {
		for p := 0; p < f.Packets; p++ {
			at := s.now + f.Start + float64(p)*f.Gap
			s.dep.InjectPacket(at, f.Ingress, f.Key, f.Size, uint64(p))
			if at > last {
				last = at
			}
		}
	}
	s.now = last + 5
	s.dep.Run(s.now)
	m := s.dep.Measurements()
	fmt.Printf("t=%.2fs delivered=%d redirects=%d drops=%+v\n",
		s.now, m.Delivered, m.Redirects, m.Drops)
}

// runCheck is the `difanectl check` subcommand: generate seeded scenarios,
// replay them through the selected deployments, and diff every packet
// verdict against the reference oracle. A failing seed is shrunk to a
// minimal repro before printing. Exits 1 on any failure.
func runCheck(args []string) int {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	seed := fs.Int64("seed", -1, "check a single seed (default: sweep 1..count)")
	count := fs.Int("count", 16, "number of seeds to sweep when -seed is unset")
	steps := fs.Int("steps", 16, "packet steps per scenario")
	mode := fs.String("mode", "all", "deployments to check: sim|baseline|wire|all")
	_ = fs.Parse(args)

	opt := difane.CheckOptions{}
	if *mode != "all" {
		opt.Modes = []string{*mode}
	}
	cfg := difane.ScenarioConfig{Packets: *steps, Faults: true, Updates: true}
	seeds := make([]int64, 0, *count)
	if *seed >= 0 {
		seeds = append(seeds, *seed)
	} else {
		for s := int64(1); s <= int64(*count); s++ {
			seeds = append(seeds, s)
		}
	}
	failed := 0
	for _, s := range seeds {
		res := difane.CheckSeed(s, cfg, opt)
		if !res.Failed() {
			fmt.Printf("seed %d: ok (%d packet checks)\n", s, res.PacketsChecked)
			continue
		}
		failed++
		fmt.Print(res.Report())
		shrunk := difane.ShrinkScenario(res.Scenario, difane.CheckOptions{
			Modes: []string{res.Failures[0].Mode}, MutatePolicy: opt.MutatePolicy})
		small := difane.CheckScenario(shrunk, difane.CheckOptions{
			Modes: []string{res.Failures[0].Mode}, MutatePolicy: opt.MutatePolicy})
		if small.Failed() {
			fmt.Printf("shrunk repro (%d steps, %d rules):\n%s", len(shrunk.Steps), len(shrunk.Policy), small.Report())
		}
	}
	if failed > 0 {
		fmt.Printf("%d/%d seeds failed\n", failed, len(seeds))
		return 1
	}
	fmt.Printf("all %d seeds ok\n", len(seeds))
	return 0
}
