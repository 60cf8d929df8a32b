package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestEndpointsLive exercises every endpoint against live providers.
func TestEndpointsLive(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	rec.Add(telemetry.CtrLibIssuedPages, 42)
	score := telemetry.NewScorecard()
	score.Issued(simtime.Time(0), 1, 0, telemetry.OriginReadahead, 8)
	score.Used(simtime.Time(0), 1, 0, telemetry.OriginReadahead, 500)
	tr := telemetry.NewTracer(telemetry.TraceConfig{})

	srv, err := Start("127.0.0.1:0", Config{
		Snapshot:  func() *telemetry.Snapshot { return rec.Snapshot() },
		Scorecard: func() *telemetry.ScorecardSnapshot { return score.Snapshot() },
		Tracer:    func() *telemetry.Tracer { return tr },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + srv.Addr()

	code, body, _ := get(t, base+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	if code, _, _ := get(t, base+"/nosuch"); code != 404 {
		t.Fatalf("unknown path code = %d, want 404", code)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics code = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "crossprefetch_lib_issued_pages_total 42") {
		t.Fatal("/metrics missing live counter value")
	}
	if !strings.Contains(body, "# HELP crossprefetch_lib_issued_pages_total") {
		t.Fatal("/metrics missing HELP line")
	}

	code, body, hdr = get(t, base+"/tracez")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("/tracez code %d type %q", code, hdr.Get("Content-Type"))
	}
	var tz struct {
		Stats *telemetry.TraceStats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &tz); err != nil || tz.Stats == nil {
		t.Fatalf("/tracez body not a stats reply: %v %q", err, body)
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline code %d", code)
	}
}

// TestScorecardsDelta scrapes twice around new traffic and checks the
// second scrape's delta reflects only the interval.
func TestScorecardsDelta(t *testing.T) {
	score := telemetry.NewScorecard()
	score.Issued(simtime.Time(0), 1, 0, telemetry.OriginReadahead, 10)

	srv, err := Start("127.0.0.1:0", Config{
		Scorecard: func() *telemetry.ScorecardSnapshot { return score.Snapshot() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + srv.Addr()

	type reply struct {
		Scorecards *telemetry.ScorecardSnapshot `json:"scorecards"`
		Delta      *telemetry.ScorecardDelta    `json:"delta"`
	}
	scrape := func() reply {
		code, body, _ := get(t, base+"/scorecards")
		if code != 200 {
			t.Fatalf("/scorecards code = %d", code)
		}
		var r reply
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	first := scrape()
	if got := first.Delta.Files[0].Totals.Issued["readahead"]; got != 10 {
		t.Fatalf("first delta issued = %d, want 10 (no baseline yet)", got)
	}

	score.Issued(simtime.Time(0), 1, 0, telemetry.OriginReadahead, 5)
	second := scrape()
	if got := second.Scorecards.Files[0].Totals.Issued["readahead"]; got != 15 {
		t.Fatalf("cumulative issued = %d, want 15", got)
	}
	if got := second.Delta.Files[0].Totals.Issued["readahead"]; got != 5 {
		t.Fatalf("second delta issued = %d, want 5 (interval only)", got)
	}

	// Quiet interval: the delta must be empty counts, not repeats.
	third := scrape()
	if got := third.Delta.Files[0].Totals.Issued["readahead"]; got != 0 {
		t.Fatalf("quiet delta issued = %d, want 0", got)
	}
}

// TestNilProviders: every telemetry endpoint answers 503 (not a panic)
// when no system is live.
func TestNilProviders(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/scorecards", "/tracez"} {
		if code, _, _ := get(t, base+path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s code = %d, want 503", path, code)
		}
	}
	if code, _, _ := get(t, base+"/"); code != 200 {
		t.Fatal("index must stay up with nil providers")
	}
}

// TestShutdownLeakFree starts and stops servers under request load and
// requires the goroutine count to settle back — combined with -race in
// `make check` this is the leak-free lifecycle gate.
func TestShutdownLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		rec := telemetry.NewRecorder(16)
		srv, err := Start("127.0.0.1:0", Config{
			Snapshot: func() *telemetry.Snapshot { return rec.Snapshot() },
		})
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + srv.Addr()
		for j := 0; j < 4; j++ {
			get(t, base+"/metrics")
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		// The listener must actually be gone.
		if _, err := http.Get(base + "/metrics"); err == nil {
			t.Fatal("server still answering after Shutdown")
		}
	}
	// Idle HTTP keep-alive goroutines wind down asynchronously; poll
	// briefly rather than asserting an instantaneous count.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d — serve loops leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// armsCover is the /predictors leg of the arm-export tests: every registered
// telemetry arm must appear in the endpoint's legend. Factored out so
// the test below can prove it fails on a truncated legend.
func armsCover(legend []string) error {
	have := make(map[string]bool, len(legend))
	for _, n := range legend {
		have[n] = true
	}
	for a := telemetry.Arm(0); a < telemetry.NumArms; a++ {
		if !have[a.String()] {
			return fmt.Errorf("arm %q missing from /predictors legend", a.String())
		}
	}
	return nil
}

// TestArmGatePredictors enforces the armgate invariant on the admin
// side: /predictors lists exactly the registered arm names — the same
// registry the telemetry export partitions by — so a new arm cannot
// ship without surfacing in the live table.
func TestArmGatePredictors(t *testing.T) {
	rows := []crosslib.PredictorRow{{Ino: 7, Live: telemetry.ArmMithril.String(), Promotions: 1}}
	srv, err := Start("127.0.0.1:0", Config{
		Predictors: func() []crosslib.PredictorRow { return rows },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + srv.Addr()

	code, body, hdr := get(t, base+"/predictors")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("/predictors code %d type %q", code, hdr.Get("Content-Type"))
	}
	var r struct {
		Arms  []string                `json:"arms"`
		Files []crosslib.PredictorRow `json:"files"`
	}
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if err := armsCover(r.Arms); err != nil {
		t.Fatalf("armgate: %v", err)
	}
	if len(r.Arms) != int(telemetry.NumArms) {
		t.Fatalf("/predictors legend has %d arms, registry has %d", len(r.Arms), telemetry.NumArms)
	}
	if len(r.Files) != 1 || r.Files[0].Ino != 7 || r.Files[0].Live != telemetry.ArmMithril.String() {
		t.Fatalf("/predictors files = %+v, want the provider's row", r.Files)
	}

	// Negative leg: a legend missing one registered arm must fail.
	if err := armsCover(r.Arms[:len(r.Arms)-1]); err == nil {
		t.Fatal("armsCover accepted a truncated legend")
	}

	// No live system: 503, not a panic or an empty 200.
	bare, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Shutdown()
	if code, _, _ := get(t, "http://"+bare.Addr()+"/predictors"); code != http.StatusServiceUnavailable {
		t.Fatalf("/predictors with no provider code = %d, want 503", code)
	}
}

// TestScorecardsFilter exercises the ?tenant= / ?inode= narrowing on
// /scorecards: each filter keeps exactly the matching card (inode also
// narrows the per-arm shadow cards), filters compose, sections the key
// dimension doesn't apply to pass through, and a non-numeric value is a
// 400 — not a silent full dump. /tiers?heat= and /tracez?n= go through the
// same parser: malformed or negative is a 400 there too, not the default.
func TestScorecardsFilter(t *testing.T) {
	score := telemetry.NewScorecard()
	now := simtime.Time(0)
	score.Issued(now, 1, 10, telemetry.OriginReadahead, 4)
	score.Issued(now, 2, 20, telemetry.OriginReadahead, 6)
	score.ArmIssued(now, 1, telemetry.ArmMithril, 3)
	score.ArmIssued(now, 2, telemetry.ArmMithril, 5)

	tr := telemetry.NewTracer(telemetry.TraceConfig{})
	for ino := int64(1); ino <= 5; ino++ {
		tl := simtime.NewTimeline(0)
		tr.Root(tl, telemetry.OpRead, ino).Finish(tl)
	}
	stack := blockdev.NewStack(blockdev.StackConfig{})

	srv, err := Start("127.0.0.1:0", Config{
		Scorecard: func() *telemetry.ScorecardSnapshot { return score.Snapshot() },
		Tracer:    func() *telemetry.Tracer { return tr },
		Tiers:     func() *blockdev.Stack { return stack },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + srv.Addr()

	type reply struct {
		Scorecards *telemetry.ScorecardSnapshot `json:"scorecards"`
	}
	scrape := func(query string) reply {
		t.Helper()
		code, body, _ := get(t, base+"/scorecards"+query)
		if code != 200 {
			t.Fatalf("/scorecards%s code = %d", query, code)
		}
		var r reply
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	full := scrape("")
	if len(full.Scorecards.Files) != 2 || len(full.Scorecards.Tenants) != 2 || len(full.Scorecards.Arms) != 2 {
		t.Fatalf("unfiltered scrape: files=%d tenants=%d arms=%d, want 2/2/2",
			len(full.Scorecards.Files), len(full.Scorecards.Tenants), len(full.Scorecards.Arms))
	}

	byTenant := scrape("?tenant=10")
	if len(byTenant.Scorecards.Tenants) != 1 || byTenant.Scorecards.Tenants[0].Key != 10 {
		t.Fatalf("?tenant=10 tenants = %+v, want exactly key 10", byTenant.Scorecards.Tenants)
	}
	if len(byTenant.Scorecards.Files) != 2 {
		t.Fatal("?tenant= must not narrow the file section")
	}

	byIno := scrape("?inode=2")
	if len(byIno.Scorecards.Files) != 1 || byIno.Scorecards.Files[0].Key != 2 {
		t.Fatalf("?inode=2 files = %+v, want exactly key 2", byIno.Scorecards.Files)
	}
	if len(byIno.Scorecards.Arms) != 1 || byIno.Scorecards.Arms[0].Ino != 2 ||
		byIno.Scorecards.Arms[0].Arm != telemetry.ArmMithril.String() {
		t.Fatalf("?inode=2 arms = %+v, want inode 2's mithril shadow card", byIno.Scorecards.Arms)
	}
	if len(byIno.Scorecards.Tenants) != 2 {
		t.Fatal("?inode= must not narrow the tenant section")
	}

	both := scrape("?tenant=20&inode=1")
	if len(both.Scorecards.Tenants) != 1 || both.Scorecards.Tenants[0].Key != 20 ||
		len(both.Scorecards.Files) != 1 || both.Scorecards.Files[0].Key != 1 {
		t.Fatal("?tenant=&inode= must compose")
	}

	miss := scrape("?inode=99")
	if len(miss.Scorecards.Files) != 0 || len(miss.Scorecards.Arms) != 0 {
		t.Fatalf("?inode=99 should match nothing, got files=%d arms=%d",
			len(miss.Scorecards.Files), len(miss.Scorecards.Arms))
	}

	for _, c := range []struct {
		path string
		want int
	}{
		{"/scorecards?tenant=abc", 400},
		{"/scorecards?inode=1x", 400},
		{"/scorecards?inode=", 200},   // empty means absent, not malformed
		{"/scorecards?inode=-1", 200}, // the overflow card's key
		{"/scorecards?inode=-2", 400},
		{"/tiers?heat=12abc", 400},
		{"/tiers?heat=x", 400},
		{"/tiers?heat=-1", 400},
		{"/tiers?heat=0", 200},
		{"/tiers?heat=4", 200},
		{"/tiers", 200},
		{"/tracez?n=x", 400},
		{"/tracez?n=3x", 400},
		{"/tracez?n=-3", 400},
	} {
		if code, _, _ := get(t, base+c.path); code != c.want {
			t.Errorf("%s code = %d, want %d", c.path, code, c.want)
		}
	}
	for query, want := range map[string]int{"": 5, "?n=0": 5, "?n=3": 3} {
		code, body, _ := get(t, base+"/tracez"+query)
		var tz struct {
			Roots []json.RawMessage `json:"roots"`
		}
		if err := json.Unmarshal([]byte(body), &tz); code != 200 || err != nil || len(tz.Roots) != want {
			t.Errorf("/tracez%s: code %d, %d roots (%v), want 200 and %d", query, code, len(tz.Roots), err, want)
		}
	}
}
