package snappy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	crossprefetch "repro"
)

func TestRoundTripSimple(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello world"),
		bytes.Repeat([]byte("ab"), 10_000),
		bytes.Repeat([]byte{0}, 100_000),
		[]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"),
	}
	for i, src := range cases {
		enc := Encode(nil, src)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestCompressesRedundantData(t *testing.T) {
	src := bytes.Repeat([]byte("abcdefgh"), 8192) // 64KB highly redundant
	enc := Encode(nil, src)
	if len(enc) > len(src)/8 {
		t.Fatalf("redundant data compressed to %d of %d bytes", len(enc), len(src))
	}
}

func TestIncompressibleDataExpandsLittle(t *testing.T) {
	src := make([]byte, 100_000)
	rand.New(rand.NewSource(5)).Read(src)
	enc := Encode(nil, src)
	if len(enc) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d exceeds MaxEncodedLen %d", len(enc), MaxEncodedLen(len(src)))
	}
	dec, err := Decode(enc)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("random data round trip failed")
	}
}

func TestDecodedLen(t *testing.T) {
	enc := Encode(nil, make([]byte, 12345))
	n, err := DecodedLen(enc)
	if err != nil || n != 12345 {
		t.Fatalf("DecodedLen = %d, %v", n, err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{10, 3 << 2},    // literal runs past end
		{4, 0x01, 0, 0}, // copy1 with offset beyond dst
	}
	for i, src := range cases {
		if _, err := Decode(src); err == nil {
			t.Fatalf("case %d: corrupt input decoded", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint16, runLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, int(size))
		// Mix of random and repeated runs for realistic redundancy.
		for i := 0; i < len(src); {
			if rng.Intn(2) == 0 {
				n := int(runLen)%64 + 1
				b := byte(rng.Intn(4))
				for j := 0; j < n && i < len(src); j++ {
					src[i] = b
					i++
				}
			} else {
				src[i] = byte(rng.Intn(256))
				i++
			}
		}
		dec, err := Decode(Encode(nil, src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeMultiBlockRoundTrip(t *testing.T) {
	src := make([]byte, 300_000) // crosses several 64KB blocks
	rng := rand.New(rand.NewSource(7))
	for i := range src {
		src[i] = byte(rng.Intn(8)) // compressible
	}
	dec, err := Decode(Encode(nil, src))
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("multi-block round trip failed")
	}
}

func appSys(a crossprefetch.Approach, memBytes int64) *crossprefetch.System {
	return crossprefetch.NewSystem(crossprefetch.Config{MemoryBytes: memBytes, Approach: a})
}

func TestRunAppCompletes(t *testing.T) {
	res, err := RunApp(AppConfig{
		Sys:   appSys(crossprefetch.CrossPredictOpt, 32<<20),
		Files: 8, FileBytes: 4 << 20, Threads: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed != 8 {
		t.Fatalf("compressed %d of 8 files", res.Compressed)
	}
	if res.InBytes != 8*4<<20 {
		t.Fatalf("in bytes = %d", res.InBytes)
	}
	if res.Ratio <= 0 || res.Ratio > 1.2 {
		t.Fatalf("ratio = %.2f", res.Ratio)
	}
	if res.MBPerSec <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunAppMemoryPressureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Figure 9b shape: under a constrained memory:data ratio, the
	// aggressive prefetch+evict approach beats APPonly.
	run := func(a crossprefetch.Approach) AppResult {
		res, err := RunApp(AppConfig{
			Sys:   appSys(a, 16<<20), // 16MB memory vs 64MB dataset (1:4)
			Files: 16, FileBytes: 4 << 20, Threads: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	app := run(crossprefetch.AppOnly)
	cross := run(crossprefetch.CrossPredictOpt)
	if cross.MBPerSec <= app.MBPerSec {
		t.Fatalf("CrossPredictOpt (%.1f MB/s) should beat APPonly (%.1f MB/s)",
			cross.MBPerSec, app.MBPerSec)
	}
}
