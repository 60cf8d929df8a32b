package vfs

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/pagecache"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// admissionKernel is a fresh kernel with telemetry over an 80MB cold file,
// larger than the absolute prefetch budget. Tiered, it sits on a width-1
// stack with half its extents on a 200µs-RTT remote tier and cross-tier
// prefetch on, and lo is the first block of the first remote extent (its
// boost is > 1); untiered, lo is 0.
func admissionKernel(t *testing.T, tiered, allowOverride bool) (v *VFS, rec *telemetry.Recorder, tl *simtime.Timeline, f *File, lo int64) {
	t.Helper()
	costs := simtime.DefaultCosts()
	st := blockdev.WrapDevice(blockdev.New(blockdev.NVMeConfig()))
	if tiered {
		st = blockdev.NewStack(blockdev.StackConfig{
			Local: blockdev.NVMeConfig(),
			Width: 1,
			Tier: blockdev.TierConfig{
				Enabled:           true,
				Remote:            blockdev.RemoteNVMeConfigRTT(200 * simtime.Microsecond),
				RemoteFrac:        0.5,
				CrossTierPrefetch: true,
			},
		})
	}
	cfg := DefaultConfig()
	cfg.AllowLimitOverride = allowOverride
	fsys := fs.New(fs.LayoutExtent, 4096, costs)
	cache := pagecache.New(pagecache.Config{BlockSize: 4096, CapacityPages: 1 << 16, Costs: costs}, nil)
	v = NewStack(cfg, fsys, st, cache)
	rec = telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	cache.SetTelemetry(rec)
	st.SetTelemetry(rec)
	tl = simtime.NewTimeline(0)
	if _, err := fsys.CreateSynthetic(tl, "big", 80<<20); err != nil {
		t.Fatal(err)
	}
	f, err := v.Open(tl, "big")
	if err != nil {
		t.Fatal(err)
	}
	if tiered {
		for lo = 0; f.rangeBoost(lo, lo+1) == 1; lo++ {
			if lo == f.ino.Blocks() {
				t.Fatal("no remote extent")
			}
		}
	}
	return v, rec, tl, f, lo
}

// admissionBooks is what one prefetch call booked on the kernel's
// admission counters.
type admissionBooks struct{ requested, admitted, rejected int64 }

func booksOf(rec *telemetry.Recorder) admissionBooks {
	return admissionBooks{
		rec.CounterValue(telemetry.CtrKernelRequestedPages),
		rec.CounterValue(telemetry.CtrKernelAdmittedPages),
		rec.CounterValue(telemetry.CtrKernelRejectedPages),
	}
}

// infoAdmittedBefore and ringAdmittedBefore are the two admission formulas
// readahead_info and the ring's prefetch SQE each had before they shared
// admitPrefetch: n pages requested, sw the range's static window.
func infoAdmittedBefore(n, sw, ra, maxPages, override int64, allow bool) int64 {
	limit := ra
	if allow && override > limit {
		limit = min(override, maxPages)
	}
	return min(n, min(limit*sw/ra, maxPages))
}

func ringAdmittedBefore(n, sw, maxPages int64, allow bool) int64 {
	limit := sw
	if allow && n > limit {
		limit = min(n, maxPages)
	}
	return min(n, limit)
}

// TestPrefetchAdmissionOneRule: a ring prefetch SQE admits what
// readahead_info admits when the override is the request's length, books
// the same three kernel counters, and both agree with the formula each
// used before they shared one rule — on a bare device and over a remote
// extent whose boost deepens the window, with overrides allowed and not,
// at every size where a clamp could bite.
func TestPrefetchAdmissionOneRule(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		for _, allow := range []bool{false, true} {
			probe, _, _, pf, plo := admissionKernel(t, tiered, allow)
			ra, bs := probe.cfg.RA.MaxPages, probe.BlockSize()
			maxPages := maxPrefetchBytes / bs
			sw := pf.StaticWindow(plo, plo+1)
			if tiered != (sw > ra) {
				t.Fatalf("tiered=%v: static window %d pages over RA.MaxPages %d", tiered, sw, ra)
			}
			// Untiered, sw+1 is ra+1.
			for _, n := range slices.Compact([]int64{1, ra, ra + 1, sw + 1, maxPages + 1}) {
				t.Run(fmt.Sprintf("tiered=%v/override=%v/pages=%d", tiered, allow, n), func(t *testing.T) {
					v, rec, tl, f, lo := admissionKernel(t, tiered, allow)
					rangeSW := f.StaticWindow(lo, lo+n)
					want := infoAdmittedBefore(n, rangeSW, ra, maxPages, n, allow)
					if ring := ringAdmittedBefore(n, rangeSW, maxPages, allow); ring != want {
						t.Fatalf("the reference formulas disagree: readahead_info %d, ring %d", want, ring)
					}
					info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: lo * bs, Bytes: n * bs, LimitOverride: n}, nil)
					infoBooks := booksOf(rec)

					v, rec, tl, f, lo = admissionKernel(t, tiered, allow)
					cqe := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingPrefetch, Off: lo * bs, Len: n * bs}}, nil)[0]
					ringBooks := booksOf(rec)

					if info.RequestedPages != want || cqe.N != want {
						t.Errorf("admitted: readahead_info %d, ring %d, want %d", info.RequestedPages, cqe.N, want)
					}
					if wantBooks := (admissionBooks{n, want, n - want}); infoBooks != wantBooks || ringBooks != wantBooks {
						t.Errorf("books: readahead_info %+v, ring %+v, want %+v", infoBooks, ringBooks, wantBooks)
					}
				})
			}
		}
	}
}

// TestNegativeOffsetsRejected: a negative offset names no byte of the
// file. A write and an mmap load there fail with ErrNegativeOffset, a read
// returns nothing, and readahead(2), readahead_info and a ring prefetch SQE
// admit, book and cache nothing. The write and the load used to panic in
// the file system, and each prefetch call admitted 32 pages of a range
// where only 16 exist.
func TestNegativeOffsetsRejected(t *testing.T) {
	const off, n = -64 << 10, 128 << 10
	for _, tc := range []struct {
		name string
		call func(v *VFS, tl *simtime.Timeline, f *File) (int64, error)
		want error
	}{
		{"pwrite", func(_ *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			got, err := f.WriteAt(tl, make([]byte, 4096), -4096)
			return int64(got), err
		}, ErrNegativeOffset},
		{"mmap load", func(v *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			return 0, v.Mmap(tl, f).Load(tl, off, n, make([]byte, n))
		}, ErrNegativeOffset},
		{"pread", func(_ *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			got, err := f.ReadAt(tl, make([]byte, n), off)
			return int64(got), err
		}, nil},
		{"readahead", func(_ *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			return f.Readahead(tl, off, n), nil
		}, nil},
		{"readahead_info", func(_ *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: off, Bytes: n}, nil)
			return info.RequestedPages + info.PrefetchedPages, info.PrefetchErr
		}, nil},
		{"ring prefetch", func(v *VFS, tl *simtime.Timeline, f *File) (int64, error) {
			c := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingPrefetch, Off: off, Len: n}}, nil)[0]
			return c.N, c.Err
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _, rec := newRingKernel(t, 4096)
			tl := simtime.NewTimeline(0)
			f := coldFile(t, v, tl, "f", 1<<20)
			before := booksOf(rec)
			got, err := tc.call(v, tl, f)
			if !errors.Is(err, tc.want) || got != 0 {
				t.Fatalf("returned %d, %v; want 0, %v", got, err, tc.want)
			}
			if b := booksOf(rec); b != before {
				t.Errorf("admission books moved %+v → %+v", before, b)
			}
			if c := f.fc.CachedPages(); c != 0 {
				t.Errorf("%d pages cached", c)
			}
			if size := f.ino.Size(); size != 1<<20 {
				t.Errorf("file size %d, want %d", size, 1<<20)
			}
		})
	}
}

// TestZeroCountPrefetchAdmitsNothing checks the other empty request: a
// count of zero or less admits, books and caches nothing at any offset, in
// readahead(2), readahead_info and a ring prefetch SQE alike. At an
// unaligned offset readahead(2) used to round the empty range up to the
// offset's block and submit that page.
func TestZeroCountPrefetchAdmitsNothing(t *testing.T) {
	for _, off := range []int64{3 * 4096, 3*4096 + 100} {
		for _, n := range []int64{0, -1} {
			for _, tc := range []struct {
				name string
				call func(v *VFS, tl *simtime.Timeline, f *File) int64
			}{
				{"readahead", func(_ *VFS, tl *simtime.Timeline, f *File) int64 { return f.Readahead(tl, off, n) }},
				{"readahead_info", func(_ *VFS, tl *simtime.Timeline, f *File) int64 {
					info := f.ReadaheadInfo(tl, CacheInfoRequest{Offset: off, Bytes: n}, nil)
					return info.RequestedPages + info.PrefetchedPages
				}},
				{"ring prefetch", func(v *VFS, tl *simtime.Timeline, f *File) int64 {
					return v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingPrefetch, Off: off, Len: n}}, nil)[0].N
				}},
			} {
				t.Run(fmt.Sprintf("%s/off=%d/n=%d", tc.name, off, n), func(t *testing.T) {
					v, _, rec := newRingKernel(t, 4096)
					tl := simtime.NewTimeline(0)
					f := coldFile(t, v, tl, "f", 1<<20)
					before := booksOf(rec)
					if got := tc.call(v, tl, f); got != 0 {
						t.Errorf("returned %d, want 0", got)
					}
					if b := booksOf(rec); b != before {
						t.Errorf("admission books moved %+v → %+v", before, b)
					}
					if c := f.fc.CachedPages(); c != 0 {
						t.Errorf("%d pages cached", c)
					}
				})
			}
		}
	}
}

// TestFileTooLargeRejected checks the bound that lets a cached page's
// frame hold its index in 32 bits: a pwrite whose end passes
// pagecache.MaxPages blocks fails with ErrFileTooLarge and leaves the file
// as it was, and CreateSynthetic refuses a file that large and creates
// none. No write goes near the bound, as a file's block map is dense from
// block 0; the bound itself is checked on beyondMaxPages.
func TestFileTooLargeRejected(t *testing.T) {
	v, _, _ := newRingKernel(t, 4096)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "f", 1<<20)
	limit := int64(pagecache.MaxPages) * v.BlockSize()
	mapped := f.ino.MapRange(0, f.ino.Blocks())
	for _, off := range []int64{limit - 100, limit, limit + 1<<20, math.MaxInt64 - 10} {
		if n, err := f.WriteAt(tl, make([]byte, 4096), off); n != 0 || !errors.Is(err, ErrFileTooLarge) {
			t.Errorf("pwrite of 4 KiB at %d: %d, %v; want 0, %v", off, n, err, ErrFileTooLarge)
		}
	}
	if size := f.ino.Size(); size != 1<<20 {
		t.Errorf("file size %d after refused writes, want %d", size, 1<<20)
	}
	if got := f.ino.MapRange(0, f.ino.Blocks()); !slices.Equal(got, mapped) {
		t.Errorf("block map moved: %v → %v", mapped, got)
	}
	if c := f.fc.CachedPages(); c != 0 {
		t.Errorf("%d pages cached by refused writes", c)
	}
	if _, err := v.CreateSynthetic(tl, "huge", limit+1); !errors.Is(err, ErrFileTooLarge) {
		t.Errorf("CreateSynthetic of %d bytes: %v, want %v", limit+1, err, ErrFileTooLarge)
	}
	if _, err := v.Open(tl, "huge"); err == nil {
		t.Error("a refused CreateSynthetic left a file behind")
	}
	for _, tc := range []struct {
		off, n int64
		want   bool
	}{
		{0, limit, false},
		{0, limit + 1, true},
		{limit - 1, 1, false},
		{limit - 1, 2, true},
		{limit, 1, true},
		{limit - 4096, 4096, false},
		{math.MaxInt64 - 10, 4096, true},
		{math.MaxInt64, 1, true},
	} {
		if got := v.beyondMaxPages(tc.off, tc.n); got != tc.want {
			t.Errorf("beyondMaxPages(%d, %d) = %v, want %v", tc.off, tc.n, got, tc.want)
		}
	}
}
