package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// fillReference is the byte-at-a-time definition of the deterministic
// filler pattern. fillSyntheticAt must match it bit for bit — synthetic
// file content is ground truth for the chaos harness, the benchmark's
// read check and the same-seed determinism tests, and each of those reads
// it through fillSyntheticAt itself, so only this comparison catches a
// filler that is wrong but self-consistent.
func fillReference(dst []byte, phys, off int64) {
	x := uint64(phys)*0x9e3779b97f4a7c15 + 1
	for i := range dst {
		pos := uint64(off) + uint64(i)
		dst[i] = byte((x >> (8 * (pos % 8))) ^ pos)
	}
}

// TestFillSyntheticAtMatchesReference covers every phase off%256 of the
// period at the lengths that end inside it, at its end, just past it, at
// a block, just past a block and at 64KB; every length up to 70 at the
// first few offsets; and random offsets and lengths.
func TestFillSyntheticAtMatchesReference(t *testing.T) {
	check := func(phys, off int64, size int) {
		t.Helper()
		want, got := make([]byte, size), make([]byte, size)
		fillReference(want, phys, off)
		fillSyntheticAt(got, phys, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("fill(phys=%d off=%d size=%d) diverged from reference", phys, off, size)
		}
	}
	for _, phys := range []int64{0, 255, 1<<40 + 12345} {
		for phase := int64(0); phase < 256; phase++ {
			for _, size := range []int{1, 255, 256, 257, 4096, 4097, 64 << 10} {
				check(phys, phase+phys%7*256, size)
			}
		}
	}
	for _, phys := range []int64{0, 1, 7, 255, 1 << 20, 1<<40 + 12345} {
		for off := int64(0); off < 20; off++ {
			for size := 0; size < 70; size++ {
				check(phys, off, size)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		check(rng.Int63(), rng.Int63n(1<<30), rng.Intn(9000))
	}
}

// FuzzFillSyntheticAt compares the filler with the reference at any block,
// offset (negative ones too: both read off as unsigned) and length up to
// 70 000 bytes.
func FuzzFillSyntheticAt(f *testing.F) {
	f.Add(int64(0), int64(0), uint32(4096))
	f.Add(int64(1<<40+12345), int64(4095), uint32(257))
	f.Add(int64(-1), int64(-3), uint32(70000))
	f.Fuzz(func(t *testing.T, phys, off int64, n uint32) {
		size := int(n % 70001)
		want, got := make([]byte, size), make([]byte, size)
		fillReference(want, phys, off)
		fillSyntheticAt(got, phys, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("fill(phys=%d off=%d size=%d) diverged from reference", phys, off, size)
		}
	})
}

// TestFillSyntheticAtAllocs: the filler builds its period on the stack, so
// filling a block allocates nothing. One run fills 64 blocks, so that an
// allocation per fill cannot round down to zero.
func TestFillSyntheticAtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	dst := make([]byte, 4096)
	if a := testing.AllocsPerRun(100, func() {
		for phys := int64(0); phys < 64; phys++ {
			fillSyntheticAt(dst, phys, phys)
		}
	}); a != 0 {
		t.Errorf("%.1f allocations per 64 fills of 4KB, want 0", a)
	}
}

// BenchmarkFillSyntheticAt fills a 512-byte sliver, a 4KB block and a 64KB
// buffer at an unaligned offset, in MB/s.
func BenchmarkFillSyntheticAt(b *testing.B) {
	for _, size := range []int{512, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			dst := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fillSyntheticAt(dst, int64(i), 100)
			}
		})
	}
}
