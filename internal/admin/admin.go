// Package admin implements the live observability plane for a running
// CrossPrefetch system: one HTTP server exposing the cross-layer
// telemetry as Prometheus text (/metrics), the online effectiveness
// scorecards as JSON with interval-rate deltas (/scorecards, filterable
// by ?tenant= / ?inode=), the predictor ensemble's live arm table
// (/predictors), the device stack's tier view (/tiers: per-backend
// occupancy, residency against the promotion cap, promotion totals,
// extent heat table), the span
// flight recorder's slowest retained roots
// (/tracez), and the standard Go profiling endpoints (/debug/pprof). The server reads live state
// through provider callbacks so it can outlive any single System
// (`crossbench -admin` swaps systems per cell under one listener) and
// shuts down with a bounded drain so experiments stay leak-free under
// the race detector.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/telemetry"
)

// Config wires the admin plane to live telemetry state. Every provider
// may return nil (telemetry off, or no system live yet); the matching
// endpoint then answers 503 rather than panicking.
type Config struct {
	// Snapshot returns the current recorder snapshot for /metrics.
	Snapshot func() *telemetry.Snapshot
	// Scorecard returns the current scorecard snapshot for /scorecards.
	Scorecard func() *telemetry.ScorecardSnapshot
	// Tracer returns the live span tracer for /tracez.
	Tracer func() *telemetry.Tracer
	// Predictors returns the live per-inode ensemble table for
	// /predictors (live arm, bandit scores, promotions).
	Predictors func() []crosslib.PredictorRow
	// Tiers returns the live device stack for /tiers (per-backend
	// occupancy and the tier residency/heat view).
	Tiers func() *blockdev.Stack
}

// drainTimeout bounds Shutdown's graceful connection drain; past it the
// remaining connections are closed hard.
const drainTimeout = 2 * time.Second

// Server is one running admin listener.
type Server struct {
	cfg Config
	srv *http.Server
	ln  net.Listener

	// scoreMu guards prev, the last /scorecards snapshot served — the
	// baseline the next scrape's interval delta is computed against.
	scoreMu sync.Mutex
	prev    *telemetry.ScorecardSnapshot

	done chan struct{} // closed when the serve loop exits
}

// Start listens on addr (host:port; an empty host binds all interfaces,
// port 0 picks a free one) and serves the admin plane until Shutdown.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s := &Server{cfg: cfg, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.path, rt.handle)
	}
	// The pprof handlers are registered explicitly on this mux (never the
	// DefaultServeMux) so importing this package has no global effects.
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed is the normal Shutdown signal; anything else
		// surfaces on the endpoint users, not here.
		_ = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the listener and drains in-flight requests for at most
// drainTimeout, then closes whatever remains. It returns once the serve
// loop has exited — no goroutine or socket outlives the call.
func (s *Server) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Bounded drain expired: close the stragglers hard.
		s.srv.Close()
	}
	<-s.done
	return err
}

// route is one endpoint of the plane.
type route struct {
	path, help string
	handle     http.HandlerFunc
}

// routes is the one list of endpoints: Start registers it, the index
// page prints it, and Routes hands its paths to whoever announces them.
// (The four fixed /debug/pprof/ sub-handlers ride along in Start.)
func (s *Server) routes() []route {
	return []route{
		{"/metrics", "cross-layer telemetry (Prometheus text exposition)", s.handleMetrics},
		{"/scorecards", "per-file and per-tenant effectiveness scorecards (JSON; cumulative + delta since last scrape; ?tenant= / ?inode= filter)", s.handleScorecards},
		{"/predictors", "predictor ensemble: live arm, bandit scores, promotions per file (JSON)", s.handlePredictors},
		{"/tiers", "device stack: per-backend occupancy, tier residency, promotion totals, extent heat; the cap bounds promotions, a first touch takes its layout residency whatever the tier holds (JSON; ?heat= bounds the heat table)", s.handleTiers},
		{"/tracez", "flight recorder: slowest retained spans per operation class (JSON; ?n= bounds roots)", s.handleTracez},
		{"/debug/pprof/", "Go runtime profiles", pprof.Index},
	}
}

// Routes lists the paths the plane serves.
func Routes() []string {
	var paths []string
	for _, rt := range new(Server).routes() {
		paths = append(paths, rt.path)
	}
	return paths
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "crossprefetch admin plane")
	for _, rt := range s.routes() {
		fmt.Fprintf(w, "%-18s%s\n", rt.path, rt.help)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap *telemetry.Snapshot
	if s.cfg.Snapshot != nil {
		snap = s.cfg.Snapshot()
	}
	if snap == nil {
		http.Error(w, "telemetry disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is cut the connection short.
		return
	}
}

// scorecardsReply is the /scorecards response body: the cumulative
// snapshot plus per-card deltas since this server's previous scrape
// (ratios recomputed over just the interval — the live rate view).
type scorecardsReply struct {
	Scorecards *telemetry.ScorecardSnapshot `json:"scorecards"`
	Delta      *telemetry.ScorecardDelta    `json:"delta"`
}

func (s *Server) handleScorecards(w http.ResponseWriter, r *http.Request) {
	var cur *telemetry.ScorecardSnapshot
	if s.cfg.Scorecard != nil {
		cur = s.cfg.Scorecard()
	}
	if cur == nil {
		http.Error(w, "scorecards disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	tenant, hasTenant, err := queryInt64(q.Get("tenant"), telemetry.OverflowKey)
	if err != nil {
		http.Error(w, "bad tenant: "+err.Error(), http.StatusBadRequest)
		return
	}
	ino, hasIno, err := queryInt64(q.Get("inode"), telemetry.OverflowKey)
	if err != nil {
		http.Error(w, "bad inode: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The delta baseline is always the FULL snapshot — a filtered scrape
	// must not make the next scrape's interval start from a hole.
	s.scoreMu.Lock()
	delta := cur.Diff(s.prev)
	s.prev = cur
	s.scoreMu.Unlock()
	// ?tenant= keeps the matching tenant card, ?inode= the matching file
	// card and that inode's per-arm shadow cards; a section the filter's key
	// does not apply to passes through. The filter works on copies: cur is
	// also the delta baseline just stored.
	narrow := func(files, tenants, arms *[]telemetry.CardScore) {
		if hasTenant {
			*tenants = filterCards(*tenants, func(c *telemetry.CardScore) bool { return c.Key == tenant })
		}
		if hasIno {
			*files = filterCards(*files, func(c *telemetry.CardScore) bool { return c.Key == ino })
			*arms = filterCards(*arms, func(c *telemetry.CardScore) bool { return c.Ino == ino })
		}
	}
	snap, d := *cur, *delta
	narrow(&snap.Files, &snap.Tenants, &snap.Arms)
	narrow(&d.Files, &d.Tenants, &d.Arms)
	writeJSON(w, scorecardsReply{Scorecards: &snap, Delta: &d})
}

// queryInt64 parses an optional integer query parameter, the one parser
// under ?tenant=, ?inode=, ?heat= and ?n=: absent is not an error; anything
// that is not wholly a decimal integer, or is below min (0, or the overflow
// card's key where the parameter names a card), is, and the handler answers
// 400 rather than fall back to a default the caller did not ask for.
func queryInt64(v string, min int64) (n int64, present bool, err error) {
	if v == "" {
		return 0, false, nil
	}
	n, err = strconv.ParseInt(v, 10, 64)
	if err == nil && n < min {
		err = fmt.Errorf("%d is below %d", n, min)
	}
	return n, err == nil, err
}

func filterCards(cards []telemetry.CardScore, keep func(*telemetry.CardScore) bool) []telemetry.CardScore {
	out := make([]telemetry.CardScore, 0, 1)
	for i := range cards {
		if keep(&cards[i]) {
			out = append(out, cards[i])
		}
	}
	return out
}

// predictorsReply is the /predictors response body: the registered arm
// names (always complete — the legend iterates telemetry.NumArms, so a
// new arm cannot ship without appearing here) and the live per-file
// ensemble table.
type predictorsReply struct {
	Arms  []string                `json:"arms"`
	Files []crosslib.PredictorRow `json:"files"`
}

func (s *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Predictors == nil {
		http.Error(w, "predictors unavailable: no system live", http.StatusServiceUnavailable)
		return
	}
	reply := predictorsReply{Files: s.cfg.Predictors()}
	for a := telemetry.Arm(0); a < telemetry.NumArms; a++ {
		reply.Arms = append(reply.Arms, a.String())
	}
	if reply.Files == nil {
		reply.Files = []crosslib.PredictorRow{}
	}
	writeJSON(w, reply)
}

// tierBackend is one stack member's occupancy row in the /tiers reply.
type tierBackend struct {
	Backend      int    `json:"backend"`
	Name         string `json:"name"`
	ReadOps      int64  `json:"read_ops"`
	WriteOps     int64  `json:"write_ops"`
	ReadBytes    int64  `json:"read_bytes"`
	WriteBytes   int64  `json:"write_bytes"`
	BusyNs       int64  `json:"busy_ns"`
	PlugSegments int64  `json:"plug_segments"`
	PlugCommands int64  `json:"plug_commands"`
	Merged       int64  `json:"merged_segments"`
}

// tiersReply is the /tiers response body: the stack shape, one
// occupancy row per backend (these partition the stack-level device
// counters exactly — the telemetry audit checks that identity), and the
// tier machinery's residency/heat view.
type tiersReply struct {
	Stack      string             `json:"stack"`
	Width      int                `json:"width"`
	ChunkBytes int64              `json:"chunk_bytes"`
	Backends   []tierBackend      `json:"backends"`
	Tier       blockdev.TierStats `json:"tier"`
}

func (s *Server) handleTiers(w http.ResponseWriter, r *http.Request) {
	var st *blockdev.Stack
	if s.cfg.Tiers != nil {
		st = s.cfg.Tiers()
	}
	if st == nil {
		http.Error(w, "tiers unavailable: no system live", http.StatusServiceUnavailable)
		return
	}
	heat, ok, err := queryInt64(r.URL.Query().Get("heat"), 0)
	if err != nil {
		http.Error(w, "bad heat: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !ok {
		heat = 16
	}
	cfg := st.Config()
	reply := tiersReply{
		Stack:      st.Stats().Name,
		Width:      st.Width(),
		ChunkBytes: cfg.ChunkBytes,
		Tier:       st.TierStats(int(heat)),
	}
	for i, ms := range st.MemberStats() {
		reply.Backends = append(reply.Backends, tierBackend{
			Backend: i, Name: ms.Name,
			ReadOps: ms.ReadOps, WriteOps: ms.WriteOps,
			ReadBytes: ms.ReadBytes, WriteBytes: ms.WriteBytes,
			BusyNs:       int64(ms.Busy),
			PlugSegments: ms.PlugSegments, PlugCommands: ms.PlugCommands,
			Merged: ms.MergedSegments,
		})
	}
	writeJSON(w, reply)
}

// tracezRoot is one retained root span in the /tracez dump.
type tracezRoot struct {
	Op         string           `json:"op"`
	Ino        int64            `json:"ino"`
	Seq        int64            `json:"seq"`
	StartNs    int64            `json:"start_ns"`
	DurationNs int64            `json:"duration_ns"`
	Spans      int              `json:"spans"`
	Dropped    int64            `json:"dropped_spans"`
	Categories map[string]int64 `json:"categories,omitempty"`
}

type tracezReply struct {
	Stats *telemetry.TraceStats `json:"stats"`
	Roots []tracezRoot          `json:"roots"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	var tr *telemetry.Tracer
	if s.cfg.Tracer != nil {
		tr = s.cfg.Tracer()
	}
	if tr == nil {
		http.Error(w, "tracing disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	limit, _, err := queryInt64(r.URL.Query().Get("n"), 0)
	if err != nil {
		http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
		return
	}
	if limit == 0 { // absent, or 0: the default bound
		limit = 32
	}
	roots := tr.Roots() // already deterministic: per op class, slowest first
	reply := tracezReply{Stats: tr.Stats()}
	for _, root := range roots {
		if int64(len(reply.Roots)) >= limit {
			break
		}
		out := tracezRoot{
			Op:         root.Op().String(),
			Ino:        root.Ino(),
			Seq:        root.Seq(),
			StartNs:    int64(root.StartTime()),
			DurationNs: int64(root.Duration()),
			Dropped:    root.DroppedSpans(),
		}
		out.Spans, out.Categories = summarize(root, nil)
		reply.Roots = append(reply.Roots, out)
	}
	writeJSON(w, reply)
}

// summarize walks a span tree counting spans and folding child durations
// into per-category totals (the flat view of the critical-path report).
func summarize(sp *telemetry.Span, cats map[string]int64) (int, map[string]int64) {
	n := 1
	for _, c := range sp.Children() {
		if cats == nil {
			cats = make(map[string]int64)
		}
		cats[c.Cat().String()] += int64(c.Duration())
		var cn int
		cn, cats = summarize(c, cats)
		n += cn
	}
	return n, cats
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
