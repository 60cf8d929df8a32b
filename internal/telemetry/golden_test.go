package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/simtime"
)

// TestGoldenMetricsText pins every byte both exporters write: a recorder
// with every counter, outcome, origin, arm and histogram, two syscalls, two
// backends and a TraceStats, all set to distinct values, and the SHA-256 of
// WritePrometheus and of WriteJSON over it. The decision ring is smaller
// than the outcome list, so the JSON also carries a wrapped trace; one
// backend name needs both metric-name sanitising and label escaping.
//
// The hashes were recorded by running this file, unchanged, against the
// commit before the name and help tables were folded into one descriptor
// table per kind (PR 16, 5b67ca7). To re-record after an intended change to
// either format, copy this file into a clone of the parent commit and run it
// there: a mismatch logs the actual hash, and -v the text itself.
//
// Re-recorded once since, for drop-behind: the lib_dropped_behind_pages counter
// and the dropped-behind outcome add their rows, and every value the fill
// draws after them moves by the draws they took. And once for the
// tier_demotions help text, which now names the demand-heat clock and the
// cap instead of the capacity watermarks it replaced: the Prometheus text
// moves in that HELP line alone, and the JSON, which carries no help, holds.
// And once for the Leap arm's removal: both formats lose its arm="leap"
// rows, and every value the fill draws after the arm loop moves back by
// the three draws the arm took. With three draws added after that loop,
// this file reproduces the hashes of the parent commit with the "leap" row
// left out of its two exporters. And once for the brownout controller's
// removal: both formats lose the brownout-raised and brownout-lowered
// rows, later outcomes move up two identifiers, and the help texts of
// ring_shed_prefetch_pages and the deprecated brownout_transitions change.
// The parent commit with those two rows left out of its exporters, its
// fill drawing nothing for them and numbering the rest as here, and the
// two new help texts reproduces both hashes. And once for the injected-stall
// fault class's removal: both formats lose the device_injected_stall_ns
// row, and every counter the fill draws after it moves back one draw; the
// parent commit with that row left out of its two exporters and its fill
// drawing nothing for it reproduces both hashes. And once for the
// tier_demotions and tier_copyback_bytes counters' removal, with the same
// effect and the same check.
func TestGoldenMetricsText(t *testing.T) {
	const (
		wantProm = "619dda91fe863fc8b942ac55d8deec369221fbf7991296543e7c2eb48fd41a5f"
		wantJSON = "06029fc7636f7f4137b015aa926a32f9eccf53c531d2eecdbf6c997f22c3eb18"
	)
	s := goldenSnapshot()
	for _, c := range []struct {
		name, want string
		write      func(*bytes.Buffer) error
	}{
		{"prometheus", wantProm, func(b *bytes.Buffer) error { return s.WritePrometheus(b) }},
		{"json", wantJSON, func(b *bytes.Buffer) error { return s.WriteJSON(b) }},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 = %s, want %s (%d bytes)", c.name, got, c.want, buf.Len())
		}
		if testing.Verbose() {
			t.Logf("%s:\n%s", c.name, buf.String())
		}
	}
}

// goldenSnapshot fills one recorder through its public booking calls only,
// every cell with a value no other cell holds.
func goldenSnapshot() *Snapshot {
	r := NewRecorder(8)
	n := int64(1000)
	next := func() int64 { n += 37; return n }
	for c := Counter(0); c < numCounters; c++ {
		r.Add(c, next())
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		lo := next()
		r.Event(simtime.Time(next()), o, int64(o)+1, lo, lo+int64(o)+2)
		r.Event(simtime.Time(next()), o, int64(o)+1, lo, lo+1)
	}
	for o := Origin(0); o < NumOrigins; o++ {
		r.OriginInserted(o, next())
		r.OriginUsed(o, next())
		r.OriginWasted(o, next())
	}
	for a := Arm(0); a < NumArms; a++ {
		r.ArmInserted(a, next())
		r.ArmUsed(a, next())
		r.ArmWasted(a, next())
	}
	// Each histogram spans several log2 buckets, zero and a negative sample
	// included, with p50 and p99 in different buckets.
	observe := func(put func(int64)) {
		base := next()
		for i := int64(0); i < 120; i++ {
			put(base>>3 + i*i*i)
		}
		put(0)
		put(-base)
		put(base << 20)
	}
	for h := Hist(0); h < numHists; h++ {
		observe(func(v int64) { r.Observe(h, v) })
	}
	r.RegisterSyscall(3, "readahead_info")
	r.RegisterSyscall(0, "read")
	observe(func(v int64) { r.ObserveSyscall(0, v) })
	observe(func(v int64) { r.ObserveSyscall(3, v) })
	r.RegisterBackend(0, "nvme0.0")
	r.RegisterBackend(2, "nvmeof \"far\"\\0")
	for _, i := range []int{0, 2} {
		for k := int64(0); k < 40; k++ {
			r.ObserveBackend(i, k%3 == 0, next(), next()>>uint(k%7), next()<<uint(k%5))
		}
	}
	s := r.Snapshot()
	s.Trace = &TraceStats{
		SampledRoots: next(), SkippedRoots: next(), KeptRoots: next(),
		DroppedRoots: next(), DroppedSpans: next(), SampleEvery: next(),
		PerInode: true, DemandPages: next(), PrefetchPages: next(),
	}
	return s
}
