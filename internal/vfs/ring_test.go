package vfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// newRingKernel is newTestKernel plus a wired recorder, so ring tests can
// assert the SQE/CQE accounting identities.
func newRingKernel(t *testing.T, capacity int64) (*VFS, *telemetry.Recorder) {
	t.Helper()
	v := newTestKernel(t, capacity)
	rec := telemetry.NewRecorder(0)
	v.SetTelemetry(rec)
	v.Cache().SetTelemetry(rec)
	v.Stack().SetTelemetry(rec)
	return v, rec
}

// pattern fills b with a deterministic byte sequence derived from off, so
// reads at any offset are checkable without holding the whole file.
func pattern(b []byte, off int64) {
	for i := range b {
		b[i] = byte((off + int64(i)) * 7)
	}
}

// coldFile creates a file with pattern data, flushes it, and evicts the
// cache so subsequent reads hit the device.
func coldFile(t *testing.T, v *VFS, tl *simtime.Timeline, name string, size int64) *File {
	t.Helper()
	f, err := v.Create(tl, name)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	pattern(data, 0)
	if _, err := f.WriteAt(tl, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(tl); err != nil {
		t.Fatal(err)
	}
	f.Fadvise(tl, AdvDontNeed, 0, 0)
	return f
}

// TestRingEnterReadsOneCrossing: a batch of scattered cold reads is
// serviced byte-correct by a single ring_enter crossing, and the SQE/CQE
// ledger balances.
func TestRingEnterReadsOneCrossing(t *testing.T) {
	v, rec := newRingKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "x", 4<<20)

	offs := []int64{0, 1 << 20, 2<<20 + 512, 3 << 20}
	sqes := make([]RingSQE, len(offs))
	for i, off := range offs {
		sqes[i] = RingSQE{F: f, Op: RingRead, Off: off, Buf: make([]byte, 16<<10), User: uint64(i)}
	}
	cqes := v.RingEnter(tl, 0, sqes, nil)
	if len(cqes) != len(sqes) {
		t.Fatalf("got %d cqes, want %d", len(cqes), len(sqes))
	}
	want := make([]byte, 16<<10)
	for i, cq := range cqes {
		if cq.Err != nil {
			t.Fatalf("sqe %d failed: %v", i, cq.Err)
		}
		if cq.User != uint64(i) {
			t.Fatalf("sqe %d cookie = %d", i, cq.User)
		}
		if cq.N != 16<<10 {
			t.Fatalf("sqe %d read %d bytes, want %d", i, cq.N, 16<<10)
		}
		if cq.Done == 0 {
			t.Fatalf("sqe %d has no completion time", i)
		}
		pattern(want, offs[i])
		if !bytes.Equal(sqes[i].Buf[:cq.N], want) {
			t.Fatalf("sqe %d data mismatch at off %d", i, offs[i])
		}
	}
	if n := v.SyscallCount(SysRingEnter); n != 1 {
		t.Fatalf("ring_enter crossings = %d, want 1 for the whole batch", n)
	}
	if s, c := rec.CounterValue(telemetry.CtrRingSQESubmitted), rec.CounterValue(telemetry.CtrRingCQECompleted); s != 4 || c != 4 {
		t.Fatalf("sqes=%d cqes=%d, want 4/4", s, c)
	}
	if v.Stack().Stats().ReadOps == 0 {
		t.Fatal("cold ring reads should hit the device")
	}
}

// TestRingEnterWarmReadsSkipDevice: once resident, ring reads complete
// without staging device work, and Done reflects the pages' ready time.
func TestRingEnterWarmReadsSkipDevice(t *testing.T) {
	v, _ := newRingKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "x", 1<<20)

	buf := make([]byte, 64<<10)
	v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingRead, Off: 0, Buf: buf}}, nil)
	ops := v.Stack().Stats().ReadOps

	cqes := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingRead, Off: 0, Buf: buf}}, nil)
	if cqes[0].Err != nil || cqes[0].N != int64(len(buf)) {
		t.Fatalf("warm read: %+v", cqes[0])
	}
	if got := v.Stack().Stats().ReadOps; got != ops {
		t.Fatalf("warm ring read issued device I/O: %d -> %d ops", ops, got)
	}
}

// TestRingEnterSustainsQueueDepth: one crossing carrying many scattered
// SQEs must reach the device as one deep dispatch batch — the whole point
// of the ring path vs. issuing each read synchronously.
func TestRingEnterSustainsQueueDepth(t *testing.T) {
	v, rec := newRingKernel(t, 200000)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "x", 64<<20)

	const n = 16
	sqes := make([]RingSQE, n)
	for i := range sqes {
		// 4MB apart: far beyond the merge window, so each SQE is its own
		// device command.
		sqes[i] = RingSQE{F: f, Op: RingRead, Off: int64(i) << 22, Buf: make([]byte, 4096)}
	}
	for _, cq := range v.RingEnter(tl, 0, sqes, nil) {
		if cq.Err != nil {
			t.Fatal(cq.Err)
		}
	}
	st := v.RingStats()
	if st.MaxBatch < n {
		t.Fatalf("max dispatch batch = %d commands, want >= %d (all SQEs in one flush)", st.MaxBatch, n)
	}
	if b := rec.CounterValue(telemetry.CtrRingDispatchBatches); b == 0 {
		t.Fatal("dispatch batches counter not fed")
	}
}

// TestRingPrefetchPopulatesCache: a prefetch SQE admits pages under the
// readahead limit clamp, stages the device work asynchronously, and a
// later ring read of the same range needs no new device I/O.
func TestRingPrefetchPopulatesCache(t *testing.T) {
	v, rec := newRingKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "x", 4<<20)

	const bytes_ = 64 << 10 // 16 pages, under the default RA limit
	cqes := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingPrefetch, Off: 0, Len: bytes_}}, nil)
	if cqes[0].Err != nil {
		t.Fatal(cqes[0].Err)
	}
	pages := int64(bytes_) / v.BlockSize()
	if cqes[0].N != pages {
		t.Fatalf("prefetch admitted %d pages, want %d", cqes[0].N, pages)
	}
	if adm := rec.CounterValue(telemetry.CtrKernelAdmittedPages); adm != pages {
		t.Fatalf("admitted counter = %d, want %d", adm, pages)
	}
	if ins := rec.CounterValue(telemetry.CtrVFSPrefetchInsertedPages); ins != pages {
		t.Fatalf("prefetch-inserted = %d pages, want %d (cold range)", ins, pages)
	}

	ops := v.Stack().Stats().ReadOps
	buf := make([]byte, bytes_)
	rcq := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingRead, Off: 0, Buf: buf}}, nil)
	if rcq[0].Err != nil || rcq[0].N != bytes_ {
		t.Fatalf("read after prefetch: %+v", rcq[0])
	}
	if got := v.Stack().Stats().ReadOps; got != ops {
		t.Fatalf("read after prefetch issued device I/O: %d -> %d ops", ops, got)
	}
}

// TestRingReadFaultSurfacesError: a persistent device fault fails the
// SQE's CQE (N=0) without failing the whole batch or poisoning the cache.
func TestRingReadFaultSurfacesError(t *testing.T) {
	v, rec := newRingKernel(t, 100000)
	tl := simtime.NewTimeline(0)
	f := coldFile(t, v, tl, "x", 1<<20)

	v.Stack().SetFaultInjector(allReads())
	buf := make([]byte, 16<<10)
	cqes := v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingRead, Off: 0, Buf: buf, User: 7}}, nil)
	if cqes[0].Err == nil {
		t.Fatal("faulted ring read returned no error")
	}
	if cqes[0].N != 0 {
		t.Fatalf("faulted ring read reported %d bytes", cqes[0].N)
	}
	if rec.CounterValue(telemetry.CtrVFSDemandIOErrors) == 0 {
		t.Fatal("demand I/O error counter not fed")
	}
	// Clearing the fault lets the same read succeed — nothing was
	// inserted as present by the failed attempt.
	v.Stack().SetFaultInjector(nil)
	cqes = v.RingEnter(tl, 0, []RingSQE{{F: f, Op: RingRead, Off: 0, Buf: buf}}, nil)
	if cqes[0].Err != nil || cqes[0].N != int64(len(buf)) {
		t.Fatalf("retry after clearing fault: %+v", cqes[0])
	}
	want := make([]byte, len(buf))
	pattern(want, 0)
	if !bytes.Equal(buf, want) {
		t.Fatal("retry data mismatch")
	}
}

// TestRingConcurrentTenants: concurrent RingEnter calls from many tenant
// timelines stay byte-correct, resolve every SQE exactly once, and leave
// the SQE/CQE ledger balanced — the grab-all dispatch means any enter may
// drain another tenant's staged chunks.
func TestRingConcurrentTenants(t *testing.T) {
	v, rec := newRingKernel(t, 400000)
	setup := simtime.NewTimeline(0)
	const tenants, batches, batchSQEs = 8, 10, 4

	files := make([]*File, tenants)
	for i := range files {
		files[i] = coldFile(t, v, setup, fmt.Sprintf("t%d", i), 8<<20)
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for tn := 0; tn < tenants; tn++ {
		tn := tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := simtime.NewTimeline(0)
			f := files[tn]
			want := make([]byte, 8<<10)
			for b := 0; b < batches; b++ {
				sqes := make([]RingSQE, batchSQEs)
				for i := range sqes {
					off := int64((b*batchSQEs+i)%1000) * 8 << 10
					sqes[i] = RingSQE{F: f, Op: RingRead, Off: off, Buf: make([]byte, 8<<10)}
				}
				for i, cq := range v.RingEnter(tl, tn, sqes, nil) {
					if cq.Err != nil {
						errs <- fmt.Errorf("tenant %d: %v", tn, cq.Err)
						return
					}
					if cq.N != 8<<10 {
						errs <- fmt.Errorf("tenant %d short read %d", tn, cq.N)
						return
					}
					pattern(want, sqes[i].Off)
					if !bytes.Equal(sqes[i].Buf, want) {
						errs <- fmt.Errorf("tenant %d data mismatch at %d", tn, sqes[i].Off)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(tenants * batches * batchSQEs)
	if s, c := rec.CounterValue(telemetry.CtrRingSQESubmitted), rec.CounterValue(telemetry.CtrRingCQECompleted); s != total || c != total {
		t.Fatalf("sqes=%d cqes=%d, want %d/%d", s, c, total, total)
	}
	if st := v.RingStats(); st.Staged != 0 {
		t.Fatalf("%d chunks still staged after all enters returned", st.Staged)
	}
	if n := v.SyscallCount(SysRingEnter); n != tenants*batches {
		t.Fatalf("ring_enter crossings = %d, want %d", n, tenants*batches)
	}
}
