package main

// The `ha` subcommand: scrape a live cluster's /ha endpoint and render
// the controller replica set, the current leader and fencing epoch, and
// every switch's BFD session state. The same renderer backs the
// interactive `ha` command in wire mode.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"difane"
)

// runHA is `difanectl ha`: fetch /ha from a cluster's telemetry endpoint
// and print it (raw JSON with -json).
func runHA(args []string) int {
	fs := flag.NewFlagSet("ha", flag.ExitOnError)
	addr := fs.String("addr", "", "telemetry endpoint (host:port), required")
	asJSON := fs.Bool("json", false, "print the raw /ha JSON instead of the rendered report")
	_ = fs.Parse(args)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "ha: -addr is required (see `difanectl serve`)")
		return 2
	}
	resp, err := httpClient().Get("http://" + *addr + "/ha")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ha:", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ha:", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "ha: %s: %s\n", resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	if *asJSON {
		os.Stdout.Write(body)
		return 0
	}
	var st difane.HAStatus
	if err := json.Unmarshal(body, &st); err != nil {
		fmt.Fprintln(os.Stderr, "ha: decoding /ha response:", err)
		return 1
	}
	printHA(st)
	return 0
}

// printHA renders an HA snapshot as a human-readable report.
func printHA(st difane.HAStatus) {
	leader := "none"
	if st.Leader >= 0 {
		leader = fmt.Sprintf("replica %d", st.Leader)
	}
	fmt.Printf("leader: %s  epoch: %d  elections: %d  controller down: %v\n",
		leader, st.Epoch, st.LeaderElections, st.ControllerDown)
	if len(st.Replicas) == 0 {
		fmt.Println("replicas: none (single controller; set HAConfig.Replicas >= 2)")
	} else {
		fmt.Println("replicas:")
		for _, r := range st.Replicas {
			role := ""
			if r.Leader {
				role = "  LEADER"
			}
			state := "dead"
			if r.Alive {
				state = fmt.Sprintf("alive  journal seq %d", r.Seq)
			}
			fmt.Printf("  replica %d: %s%s\n", r.ID, state, role)
		}
	}
	fmt.Println("bfd sessions (controller's view of each switch):")
	for _, s := range st.BFD {
		fmt.Printf("  sw%-4d %-5s (remote %-5s discr %d)  detect %dµs  transitions %d\n",
			s.Switch, s.State, s.RemoteState, s.RemoteDiscr,
			s.DetectUsec, s.Transitions)
	}
}
