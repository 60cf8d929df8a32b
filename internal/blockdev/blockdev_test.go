package blockdev

import (
	"errors"
	"testing"

	"repro/internal/simtime"
)

func testConfig() Config {
	return Config{
		Name:           "test",
		ReadBandwidth:  1 << 30, // 1 GB/s
		WriteBandwidth: 512 << 20,
		ReadLatency:    100 * simtime.Microsecond,
		WriteLatency:   50 * simtime.Microsecond,
		CmdOverhead:    10 * simtime.Microsecond,
		BlockSize:      4096,
	}
}

func TestSyncReadTiming(t *testing.T) {
	d := New(testConfig())
	tl := simtime.NewTimeline(0)
	if err := d.Access(tl, OpRead, 0, 1<<30); err != nil {
		t.Fatal(err)
	}
	// 1 GB at 1 GB/s = 1s transfer + 10µs cmd + 100µs latency.
	want := simtime.Second + 110*simtime.Microsecond
	if got := tl.Elapsed(); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	st := d.Stats()
	if st.ReadOps != 1 || st.ReadBytes != 1<<30 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	d := New(testConfig())
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	if err := d.Access(a, OpRead, 0, 512<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.Access(b, OpRead, 0, 512<<20); err != nil {
		t.Fatal(err)
	}
	// b queues behind a's 500ms transfer: aggregate limited to device bw.
	if b.Now() <= a.Now() {
		t.Fatalf("second request should finish later: a=%v b=%v", a.Now(), b.Now())
	}
	wantMin := simtime.Time(simtime.Second) // two 512MB at 1GB/s
	if b.Now() < wantMin {
		t.Fatalf("aggregate exceeded bandwidth: b done at %v", b.Now())
	}
}

func TestLatencyOverlaps(t *testing.T) {
	d := New(testConfig())
	// Two tiny requests: transfers serialize, but the 100µs latencies
	// overlap, so the second completes well before 2×(latency+transfer).
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	_ = d.Access(a, OpRead, 0, 4096)
	_ = d.Access(b, OpRead, 0, 4096)
	serial := 2 * (110*simtime.Microsecond + simtime.Duration(4096))
	if b.Elapsed() >= serial {
		t.Fatalf("latencies did not overlap: b elapsed %v >= serial %v", b.Elapsed(), serial)
	}
}

func TestSmallRequestsCostMore(t *testing.T) {
	d1 := New(testConfig())
	d2 := New(testConfig())
	tl1 := simtime.NewTimeline(0)
	tl2 := simtime.NewTimeline(0)
	// Same bytes: 256 × 4KB vs 1 × 1MB.
	for i := 0; i < 256; i++ {
		_ = d1.Access(tl1, OpRead, 0, 4096)
	}
	_ = d2.Access(tl2, OpRead, 0, 1<<20)
	if tl1.Elapsed() <= tl2.Elapsed() {
		t.Fatalf("small requests should be slower: %v vs %v", tl1.Elapsed(), tl2.Elapsed())
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	d := New(NVMeConfig())
	r := simtime.NewTimeline(0)
	w := simtime.NewTimeline(0)
	_ = d.Access(r, OpRead, 0, 100<<20)
	d2 := New(NVMeConfig())
	_ = d2.Access(w, OpWrite, 0, 100<<20)
	if w.Elapsed() <= r.Elapsed() {
		t.Fatalf("write should be slower: read %v write %v", r.Elapsed(), w.Elapsed())
	}
}

func TestAsyncDoesNotBlockSync(t *testing.T) {
	d := New(testConfig())
	done, err := d.AccessAsync(0, OpRead, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("async completion time not set")
	}
	// Priority scheduling: a blocking request must NOT queue behind the
	// prefetch transfer (§4.7's congestion-control property).
	tl := simtime.NewTimeline(0)
	_ = d.Access(tl, OpRead, 0, 4096)
	if tl.Elapsed() > simtime.Millisecond {
		t.Fatalf("sync request queued behind async transfer: %v", tl.Elapsed())
	}
	// But the async lane sees the backlog.
	if d.Backlog(0) < simtime.Second {
		t.Fatalf("backlog = %v, want >= 1s", d.Backlog(0))
	}
	// And further async requests queue behind everything.
	done2, _ := d.AccessAsync(0, OpRead, 0, 4096)
	if done2 < done {
		t.Fatalf("async requests should serialize: %v < %v", done2, done)
	}
}

func TestSyncAlsoConsumesCombinedCapacity(t *testing.T) {
	d := New(testConfig())
	tl := simtime.NewTimeline(0)
	_ = d.Access(tl, OpRead, 0, 512<<20)
	// The async lane must see the sync transfer as occupancy.
	if d.Backlog(0) < 400*simtime.Millisecond {
		t.Fatalf("sync traffic invisible to async lane: backlog %v", d.Backlog(0))
	}
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	local := New(NVMeConfig())
	remote := New(RemoteNVMeConfig())
	a := simtime.NewTimeline(0)
	b := simtime.NewTimeline(0)
	_ = local.Access(a, OpRead, 0, 16384)
	_ = remote.Access(b, OpRead, 0, 16384)
	if b.Elapsed() <= a.Elapsed() {
		t.Fatalf("remote should be slower: local %v remote %v", a.Elapsed(), b.Elapsed())
	}
}

// stubInjector fails requests whose start offset is in fail; blockdev's
// own tests cannot import internal/faultinject (cycle), so integration
// with the real injector is tested there.
type stubInjector struct {
	fail map[int64]bool
}

func (s *stubInjector) Inject(op Op, off, bytes int64) error {
	if s.fail[off] {
		return ErrInjected
	}
	return nil
}

func TestFaultInjection(t *testing.T) {
	d := New(testConfig())
	d.SetFaultInjector(&stubInjector{fail: map[int64]bool{4096: true}})
	tl := simtime.NewTimeline(0)
	if err := d.Access(tl, OpRead, 0, 4096); err != nil {
		t.Fatalf("first access failed: %v", err)
	}
	if err := d.Access(tl, OpRead, 4096, 4096); !errors.Is(err, ErrInjected) {
		t.Fatalf("second access err = %v, want ErrInjected", err)
	}
	if st := d.Stats(); st.ReadOps != 1 || st.InjectedFaults != 1 {
		t.Fatalf("failed request accounting: %+v", st)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(ErrInjected) {
		t.Fatal("bare ErrInjected should not be transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil error should not be transient")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String mismatch")
	}
}

func TestDefaultBlockSize(t *testing.T) {
	d := New(Config{Name: "x", ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30})
	if d.BlockSize() != 4096 {
		t.Fatalf("default block size = %d", d.BlockSize())
	}
}
