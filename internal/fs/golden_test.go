package fs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/simtime"
)

// goldenFileStore pins what the file store returns: one seeded sequence of
// writes, reads, truncates and remove-then-recreates per layout, over two
// created files and a synthetic one, with every ReadAt result, every size
// and every physical mapping hashed. The hashes were recorded against the
// shard-map store that kept one heap block per physical block; any store
// behind the same calls must reproduce them to the byte.
var goldenFileStore = map[Layout]string{
	LayoutExtent: "a42309f411de6c0e29b8479e8bd972ab983d478011192a61813dacfa089e58fa",
	LayoutLog:    "b3e6af6bd17a4de7752bdac50c528a32e4e3fc5b3e4663f69e66f842d83dd69f",
}

// The sequence runs twice per layout: as the collector pleases, and with
// the collector off, so that every chunk a remove or a truncate drops is
// on the free list, and taken by a later write, with its old bytes in it.
func TestGoldenFileStore(t *testing.T) {
	for _, layout := range []Layout{LayoutExtent, LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) {
			want := goldenFileStore[layout]
			if got := fileStoreDigest(t, layout); got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
			var got string
			withoutGC(func() { got = fileStoreDigest(t, layout) })
			if got != want {
				t.Errorf("digest with the collector off %s, want %s", got, want)
			}
		})
	}
}

// withoutGC runs fn with the collector off.
func withoutGC(fn func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

func fileStoreDigest(t *testing.T, layout Layout) string {
	const bs = 4096
	f := New(layout, bs, simtime.DefaultCosts())
	rng := rand.New(rand.NewSource(34))
	h := sha256.New()
	names := []string{"c0", "c1", "s0"}
	create := func(name string) *Inode {
		var ino *Inode
		var err error
		if name == "s0" {
			ino, err = f.CreateSynthetic(nil, name, 64*bs+123)
		} else {
			ino, err = f.Create(nil, name)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ino
	}
	files := make([]*Inode, len(names))
	for i, n := range names {
		files[i] = create(n)
	}
	buf := make([]byte, 48*bs)
	// offset picks where an operation lands: on a block boundary, inside a
	// block, or anywhere up to 16 blocks past the end of the file.
	offset := func(ino *Inode) int64 {
		limit := ino.Size() + 16*bs
		switch rng.Intn(3) {
		case 0:
			return rng.Int63n(limit/bs+1) * bs
		case 1:
			return rng.Int63n(limit/bs+1)*bs + 1 + rng.Int63n(bs-2)
		default:
			return rng.Int63n(limit + 1)
		}
	}
	// length picks a whole number of blocks, a sliver, or anything up to
	// twelve blocks.
	length := func() int {
		switch rng.Intn(3) {
		case 0:
			return (1 + rng.Intn(8)) * bs
		case 1:
			return 1 + rng.Intn(100)
		default:
			return 1 + rng.Intn(12*bs)
		}
	}
	sum := func(ino *Inode, off int64, n int) {
		got := ino.ReadAt(buf[:n], off)
		writeInts(h, off, int64(n), int64(got))
		h.Write(buf[:got])
	}
	for op := 0; op < 3000; op++ {
		i := rng.Intn(len(files))
		ino := files[i]
		switch r := rng.Intn(20); {
		case r < 8:
			n := length()
			data := buf[:n]
			rng.Read(data)
			writeInts(h, ino.WriteAt(data, offset(ino)))
		case r < 16:
			sum(ino, offset(ino), length())
		case r < 18:
			size := ino.Size()
			if rng.Intn(2) == 0 {
				size = rng.Int63n(size + 1) // down, possibly mid-block
			} else {
				size += rng.Int63n(8 * bs) // up, over a hole
			}
			ino.Truncate(nil, size)
		case r < 19:
			if err := f.Remove(nil, names[i]); err != nil {
				t.Fatal(err)
			}
			files[i] = create(names[i])
		default:
			for _, run := range ino.MapRange(0, ino.Blocks()) {
				writeInts(h, run.Logical, run.Phys, run.Count)
			}
		}
		writeInts(h, ino.Size())
	}
	for _, ino := range files {
		for off := int64(0); off < ino.Size(); off += int64(len(buf)) {
			sum(ino, off, len(buf))
		}
		for _, run := range ino.MapRange(0, ino.Blocks()) {
			writeInts(h, run.Logical, run.Phys, run.Count)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
