package vfs

import (
	"errors"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/simtime"
)

func TestReadaheadInfoWindowClamping(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 1<<20) // 256 blocks
	f, _ := v.Open(tl, "f")

	// Bitmap window beyond EOF is clamped.
	dst := new(bitmap.Window)
	info := f.ReadaheadInfo(tl, CacheInfoRequest{
		Offset: 0, Bytes: 1 << 20,
		BitmapLo: 0, BitmapHi: 10_000,
	}, dst)
	if info.PrefetchedPages != 32 { // static limit
		t.Fatalf("prefetched %d", info.PrefetchedPages)
	}
	if dst.Hi() != 256 || dst.Count() != 32 {
		t.Fatalf("window [%d,%d) with %d bits, want it clamped to EOF at 256 with 32", dst.Lo(), dst.Hi(), dst.Count())
	}

	// Inverted window defaults to the prefetch range.
	f.ReadaheadInfo(tl, CacheInfoRequest{
		Offset: 0, Bytes: 128 << 10,
		BitmapLo: 50, BitmapHi: 10,
	}, dst)
	if dst.Lo() != 0 || dst.Hi() != 32 || dst.Count() != 32 {
		t.Fatalf("default window not exported: [%d,%d) with %d bits", dst.Lo(), dst.Hi(), dst.Count())
	}

	// Zero-byte request with no window: telemetry only.
	info3 := f.ReadaheadInfo(tl, CacheInfoRequest{}, nil)
	if info3.RequestedPages != 0 || info3.CapacityPages == 0 {
		t.Fatalf("telemetry-only call wrong: %+v", info3)
	}
}

func TestReadaheadBeyondEOF(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 64<<10)
	f, _ := v.Open(tl, "f")
	if n := f.Readahead(tl, 1<<20, 1<<20); n != 0 {
		t.Fatalf("readahead beyond EOF submitted %d bytes", n)
	}
	if n := f.Readahead(tl, 60<<10, 1<<20); n != 4096 {
		t.Fatalf("readahead at tail submitted %d, want one block", n)
	}
}

func TestFincoreEmptyAndClampedWindows(t *testing.T) {
	v := newTestKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	v.FS().CreateSynthetic(tl, "f", 64<<10)
	f, _ := v.Open(tl, "f")
	dst := bitmap.New(0)
	f.Fincore(tl, 10, 10, dst) // empty window: no-op
	if dst.Count() != 0 {
		t.Fatal("empty fincore window set bits")
	}
	f.Fincore(tl, 0, 1<<20, dst) // clamped to 16 blocks
	if dst.Count() != 0 {
		t.Fatal("cold file shows resident pages")
	}
}

func TestZeroLengthIO(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	if n, err := f.WriteAt(tl, nil, 0); n != 0 || err != nil {
		t.Fatalf("zero write = %d, %v", n, err)
	}
	if n, err := f.ReadAt(tl, nil, 0); n != 0 || err != nil {
		t.Fatalf("zero read = %d, %v", n, err)
	}
	if n, err := f.ReadAt(tl, make([]byte, 4), -5); n != 0 || !errors.Is(err, ErrNegativeOffset) {
		t.Fatalf("negative-offset read = %d, %v; want 0, ErrNegativeOffset", n, err)
	}
	if n, err := f.ReadAt(tl, nil, -5); n != 0 || !errors.Is(err, ErrNegativeOffset) {
		t.Fatalf("zero-length negative-offset read = %d, %v; want 0, ErrNegativeOffset", n, err)
	}
}

func TestOpenMissingAndDoubleCreate(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	if _, err := v.Open(tl, "ghost"); err == nil {
		t.Fatal("open of missing file should fail")
	}
	if _, err := v.Create(tl, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create(tl, "dup"); err == nil {
		t.Fatal("double create should fail")
	}
	f, err := v.OpenOrCreate(tl, "dup")
	if err != nil || f == nil {
		t.Fatalf("OpenOrCreate failed: %v", err)
	}
	if err := v.Remove(tl, "ghost"); err == nil {
		t.Fatal("remove of missing file should fail")
	}
}

func TestMmapLoadBeyondEOF(t *testing.T) {
	v := newTestKernel(t, 10000)
	tl := simtime.NewTimeline(0)
	f, _ := v.Create(tl, "x")
	f.WriteAt(tl, []byte("abc"), 0)
	m := v.Mmap(tl, f)
	m.Load(tl, 100, 10, nil) // beyond EOF: no-op
	m.Load(tl, 0, 0, nil)    // zero length: no-op
	if m.Faults() != 0 {
		t.Fatalf("degenerate loads faulted %d times", m.Faults())
	}
}
