package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the Deployment.Telemetry() return shape (Probe.Telemetry
// builds it): one scrape of the metric registry plus the flight recorder's
// accounting.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
	Trace   RecorderStats    `json:"trace"`
}

// Value looks up an unlabeled (or first-point) metric value by name.
func (s *Snapshot) Value(name string) (float64, bool) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name || len(m.Points) == 0 {
			continue
		}
		return m.Points[0].Value, true
	}
	return 0, false
}

// Server serves a registry and recorder over HTTP:
//
//	/metrics       Prometheus text exposition
//	/vars          expvar-style JSON scrape
//	/trace         flight-recorder dump (JSON), filterable via query params
//	/journeys      sampled packets' end-to-end journeys (JSON)
//	/debug/pprof/  the standard profiling endpoints
//
// plus any extra handlers the caller mounts (wire adds /status, /ha,
// /convergence and /health).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler builds the telemetry mux without binding a listener — used by
// the server and directly by tests. extra maps additional patterns to
// handlers; rec may be nil (the /trace endpoint then reports tracing
// unavailable).
func Handler(reg *Registry, rec *Recorder, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(w, r, rec)
	})
	mux.HandleFunc("/journeys", func(w http.ResponseWriter, r *http.Request) {
		serveJourneys(w, r, rec)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// TraceResponse is the /trace JSON shape.
type TraceResponse struct {
	NowNS   int64         `json:"now_ns"`
	Enabled bool          `json:"enabled"`
	Stats   RecorderStats `json:"stats"`
	Events  []EventJSON   `json:"events"`
}

// serveTrace dumps filtered flight-recorder events. Query params: node,
// kind (comma-separated names), flow (hash), ipsrc/ipdst (dotted quad),
// tpdst, since (ns timestamp from a prior response; only newer events are
// returned), limit (default 256, 0 = all).
func serveTrace(w http.ResponseWriter, r *http.Request, rec *Recorder) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if rec == nil {
		http.Error(w, `{"error":"no flight recorder on this deployment"}`, http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	f := Filter{Limit: 256}
	var err error
	if v := q.Get("node"); v != "" {
		n, perr := strconv.ParseUint(v, 10, 32)
		if perr != nil {
			err = fmt.Errorf("bad node %q", v)
		} else {
			id := uint32(n)
			f.Node = &id
		}
	}
	if v := q.Get("kind"); v != "" && err == nil {
		for _, name := range strings.Split(v, ",") {
			k, ok := KindFromString(strings.TrimSpace(name))
			if !ok {
				err = fmt.Errorf("unknown kind %q", name)
				break
			}
			f.Kinds = append(f.Kinds, k)
		}
	}
	if v := q.Get("flow"); v != "" && err == nil {
		f.Flow, err = strconv.ParseUint(v, 10, 64)
	}
	if v := q.Get("ipsrc"); v != "" && err == nil {
		ip, ok := ParseIP(v)
		if !ok {
			err = fmt.Errorf("bad ipsrc %q", v)
		}
		f.IPSrc = ip
	}
	if v := q.Get("ipdst"); v != "" && err == nil {
		ip, ok := ParseIP(v)
		if !ok {
			err = fmt.Errorf("bad ipdst %q", v)
		}
		f.IPDst = ip
	}
	if v := q.Get("tpdst"); v != "" && err == nil {
		var n uint64
		n, err = strconv.ParseUint(v, 10, 16)
		f.TPDst = uint16(n)
	}
	if v := q.Get("trace"); v != "" && err == nil {
		f.Trace, err = strconv.ParseUint(v, 10, 64)
	}
	if v := q.Get("since"); v != "" && err == nil {
		f.SinceTS, err = strconv.ParseInt(v, 10, 64)
	}
	if v := q.Get("limit"); v != "" && err == nil {
		f.Limit, err = strconv.Atoi(v)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusBadRequest)
		return
	}
	events := rec.Events(f)
	resp := TraceResponse{
		NowNS:   rec.Now(),
		Enabled: rec.Enabled(),
		Stats:   rec.Stats(),
		Events:  make([]EventJSON, 0, len(events)),
	}
	for _, ev := range events {
		resp.Events = append(resp.Events, ev.JSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// JourneysResponse is the /journeys JSON shape.
type JourneysResponse struct {
	NowNS    int64         `json:"now_ns"`
	Enabled  bool          `json:"enabled"`
	Sampled  bool          `json:"sampled"` // false when no trace-stamped events exist
	Stats    JourneyStats  `json:"stats"`
	Journeys []JourneyJSON `json:"journeys"`
}

// serveJourneys assembles and dumps end-to-end journeys. Query params:
// flow (hash), trace (ID), dropped (=1 keeps only dropped/shed journeys),
// slowest (=1 orders by latency descending), limit (default 64, 0 = all),
// fresh (ns window for the in-flight classification).
func serveJourneys(w http.ResponseWriter, r *http.Request, rec *Recorder) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if rec == nil {
		http.Error(w, `{"error":"no flight recorder on this deployment"}`, http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	f := JourneyFilter{Limit: 64, NowNS: rec.Now()}
	var err error
	if v := q.Get("flow"); v != "" {
		f.Flow, err = strconv.ParseUint(v, 10, 64)
	}
	if v := q.Get("trace"); v != "" && err == nil {
		f.Trace, err = strconv.ParseUint(v, 10, 64)
	}
	if v := q.Get("dropped"); v != "" && err == nil {
		f.DroppedOnly = v == "1" || v == "true"
	}
	if v := q.Get("slowest"); v != "" && err == nil {
		f.Slowest = v == "1" || v == "true"
	}
	if v := q.Get("limit"); v != "" && err == nil {
		f.Limit, err = strconv.Atoi(v)
	}
	if v := q.Get("fresh"); v != "" && err == nil {
		f.FreshNS, err = strconv.ParseInt(v, 10, 64)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusBadRequest)
		return
	}
	journeys, stats := AssembleJourneys(rec, f)
	resp := JourneysResponse{
		NowNS:    rec.Now(),
		Enabled:  rec.Enabled(),
		Sampled:  stats.Total > 0,
		Stats:    stats,
		Journeys: make([]JourneyJSON, 0, len(journeys)),
	}
	for _, j := range journeys {
		resp.Journeys = append(resp.Journeys, j.JSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// Serve binds addr (":0" picks an ephemeral port) and serves the
// telemetry endpoints until Close.
func Serve(addr string, reg *Registry, rec *Recorder, extra map[string]http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: Handler(reg, rec, extra), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
