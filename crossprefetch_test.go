package crossprefetch_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	crossprefetch "repro"
	"repro/internal/blockdev"
	"repro/internal/pagecache"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

func TestZeroValueConfig(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{})
	cfg := sys.Config()
	if cfg.MemoryBytes != 1<<30 || cfg.BlockSize != 4096 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.KernelRAMaxBytes != 128<<10 {
		t.Fatalf("kernel RA default = %d", cfg.KernelRAMaxBytes)
	}
	if sys.Approach() != crossprefetch.OSOnly {
		t.Fatalf("default approach = %v", sys.Approach())
	}
}

func TestEndToEndReadWrite(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	tl := sys.Timeline()
	f, err := sys.Create(tl, "file")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("crossprefetch"), 10_000)
	if _, err := f.WriteAt(tl, payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(tl, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	m := sys.Metrics()
	if m.Reads == 0 || m.Writes == 0 {
		t.Fatalf("metrics not populated: %+v", m)
	}
	if tl.Elapsed() <= 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestDropAllCaches(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 64 << 20})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "big", 8<<20); err != nil {
		t.Fatal(err)
	}
	f, _ := sys.Open(tl, "big")
	buf := make([]byte, 1<<20)
	f.ReadAt(tl, buf, 0)
	if sys.Cache().Used() == 0 {
		t.Fatal("cache should be warm")
	}
	sys.DropAllCaches(tl)
	if sys.Cache().Used() != 0 {
		t.Fatalf("cache still holds %d pages", sys.Cache().Used())
	}
	// The same handle still works after the drop.
	if _, err := f.ReadAt(tl, buf, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDeviceConfig(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		Device:      blockdev.RemoteNVMeConfig(),
		MemoryBytes: 16 << 20,
	})
	if sys.Device().Config().Name != "nvmeof0" {
		t.Fatalf("device = %s", sys.Device().Config().Name)
	}
}

func TestLayoutSelection(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{Layout: crossprefetch.LayoutF2FS})
	if sys.FS().Layout() != crossprefetch.LayoutF2FS {
		t.Fatal("layout not applied")
	}
}

func TestNewProcessIsolation(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{
		MemoryBytes: 64 << 20,
		Approach:    crossprefetch.CrossPredictOpt,
	})
	tl := sys.Timeline()
	if err := sys.CreateSynthetic(tl, "shared", 32<<20); err != nil {
		t.Fatal(err)
	}
	p1 := sys.NewProcess()
	p2 := sys.NewProcess()
	f1, err := p1.Open(tl, "shared")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	for off := int64(0); off < 4<<20; off += int64(len(buf)) {
		f1.ReadAt(tl, buf, off)
	}
	// Process stats are private...
	if p1.Stats().PrefetchCalls == 0 {
		t.Fatal("process 1 should have prefetched")
	}
	if p2.Stats().PrefetchCalls != 0 {
		t.Fatal("process 2 stats leaked from process 1")
	}
	// ...but the page cache is shared: process 2 hits what 1 fetched.
	f2, _ := p2.Open(tl, "shared")
	missesBefore := sys.Cache().Stats().Misses
	f2.ReadAt(tl, buf, 0)
	if got := sys.Cache().Stats().Misses; got != missesBefore {
		t.Fatalf("process 2 should hit process 1's pages (misses %d -> %d)", missesBefore, got)
	}
}

func TestTelemetryAuditReconciles(t *testing.T) {
	// The audit cross-checks every layer's counters against its neighbors:
	// any double count or missed decrement in the instrumentation (or in
	// the accounting it observes) surfaces as an invariant violation. Run
	// it over both a sequential scan (prefetch-heavy) and a random workload
	// under memory pressure (eviction/waste-heavy).
	run := func(t *testing.T, random bool) {
		sys := crossprefetch.NewSystem(crossprefetch.Config{
			Approach:    crossprefetch.CrossPredictOpt,
			MemoryBytes: 16 << 20,
			Telemetry:   true,
		})
		tl := sys.Timeline()
		if err := sys.CreateSynthetic(tl, "data", 32<<20); err != nil {
			t.Fatal(err)
		}
		f, err := sys.Open(tl, "data")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16384)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1024; i++ {
			off := int64(i) * int64(len(buf))
			if random {
				off = rng.Int63n(32<<20 - int64(len(buf)))
			}
			if _, err := f.ReadAt(tl, buf, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(tl); err != nil {
			t.Fatal(err)
		}
		if err := sys.AuditTelemetry(); err != nil {
			t.Fatal(err)
		}
		snap := sys.Metrics().Telemetry
		if snap == nil {
			t.Fatal("Metrics.Telemetry nil with telemetry enabled")
		}
		if snap.Counter(telemetry.CtrCacheInsertedPages) == 0 {
			t.Fatal("no cache insertions recorded")
		}
		if snap.EventsTotal == 0 {
			t.Fatal("no prefetch decisions traced")
		}
	}
	t.Run("sequential", func(t *testing.T) { run(t, false) })
	t.Run("random", func(t *testing.T) { run(t, true) })
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 16 << 20})
	if sys.Telemetry() != nil {
		t.Fatal("recorder allocated without opt-in")
	}
	if sys.Metrics().Telemetry != nil {
		t.Fatal("Metrics.Telemetry non-nil without opt-in")
	}
	if err := sys.AuditTelemetry(); err != crossprefetch.ErrTelemetryDisabled {
		t.Fatalf("AuditTelemetry = %v, want ErrTelemetryDisabled", err)
	}
}

// TestFileTooLarge checks the 2^32-block bound through the public API: a
// synthetic file past it is refused and not created, and a write whose end
// passes it fails through the library, with and without CROSS-LIB in the
// path, leaving the file's size and block map as they were.
func TestFileTooLarge(t *testing.T) {
	const bs = 4096
	limit := int64(pagecache.MaxPages) * bs
	for _, a := range []crossprefetch.Approach{crossprefetch.OSOnly, crossprefetch.CrossPredictOpt} {
		sys := crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: 64 << 20, BlockSize: bs, Approach: a})
		tl := sys.Timeline()
		if err := sys.CreateSynthetic(tl, "huge", limit+1); !errors.Is(err, vfs.ErrFileTooLarge) {
			t.Errorf("%v: CreateSynthetic of %d bytes: %v, want %v", a, limit+1, err, vfs.ErrFileTooLarge)
		}
		if _, err := sys.Open(tl, "huge"); err == nil {
			t.Errorf("%v: a refused CreateSynthetic left a file behind", a)
		}
		f, err := sys.Create(tl, "f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(tl, make([]byte, 3*bs), 0); err != nil {
			t.Fatal(err)
		}
		ino := f.Kernel().Inode()
		mapped := ino.MapRange(0, ino.Blocks())
		if n, err := f.WriteAt(tl, make([]byte, bs), limit-100); n != 0 || !errors.Is(err, vfs.ErrFileTooLarge) {
			t.Errorf("%v: WriteAt across block 2^32: %d, %v; want 0, %v", a, n, err, vfs.ErrFileTooLarge)
		}
		if size := f.Size(); size != 3*bs {
			t.Errorf("%v: size %d after the refused write, want %d", a, size, 3*bs)
		}
		if got := ino.MapRange(0, ino.Blocks()); !slices.Equal(got, mapped) {
			t.Errorf("%v: block map moved: %v → %v", a, mapped, got)
		}
	}
}
