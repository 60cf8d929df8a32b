package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// flatFS is the reference file store: a flat map of one physical block
// per logical block, a block allocated at a time in block order, and a
// WriteAt that fills a block's filler whole before its first partial
// write copies in. The grouped block map and its run-wise allocation must
// be indistinguishable from it.
type flatFS struct {
	layout   Layout
	bs       int64
	nextPhys int64
}

type flatInode struct {
	fs   *flatFS
	size int64
	phys []int64
	data map[int64][]byte // written blocks, whole
}

func (f *flatFS) create() *flatInode {
	return &flatInode{fs: f, data: make(map[int64][]byte)}
}

func (f *flatFS) createSynthetic(size int64) *flatInode {
	ino := f.create()
	ino.size = size
	for i := int64(0); i < (size+f.bs-1)/f.bs; i++ {
		ino.phys = append(ino.phys, f.nextPhys)
		f.nextPhys++
	}
	return ino
}

func (ino *flatInode) writeAt(data []byte, off int64) (newBlocks int64) {
	if len(data) == 0 {
		return 0
	}
	bs := ino.fs.bs
	end := off + int64(len(data))
	for int64(len(ino.phys)) < (end+bs-1)/bs {
		ino.phys = append(ino.phys, unmapped)
	}
	ino.size = max(ino.size, end)
	for pos := off; pos < end; {
		blk, blkOff := pos/bs, pos%bs
		n := min(bs-blkOff, end-pos)
		filler := ino.phys[blk]
		switch {
		case filler == unmapped:
			filler = ino.fs.nextPhys
			ino.phys[blk] = filler
			ino.fs.nextPhys++
			newBlocks++
		case ino.fs.layout == LayoutLog:
			ino.phys[blk] = ino.fs.nextPhys
			ino.fs.nextPhys++
			newBlocks++
		}
		b, ok := ino.data[blk]
		if !ok {
			b = make([]byte, bs)
			fillReference(b, filler, 0)
			ino.data[blk] = b
		}
		copy(b[blkOff:], data[pos-off:pos-off+n])
		pos += n
	}
	return newBlocks
}

func (ino *flatInode) readAt(dst []byte, off int64) int {
	bs := ino.fs.bs
	if off >= ino.size {
		return 0
	}
	end := min(off+int64(len(dst)), ino.size)
	for pos := off; pos < end; {
		blk, blkOff := pos/bs, pos%bs
		n := min(bs-blkOff, end-pos)
		out := dst[pos-off : pos-off+n]
		switch b, ok := ino.data[blk]; {
		case ok:
			copy(out, b[blkOff:])
		case blk >= int64(len(ino.phys)) || ino.phys[blk] == unmapped:
			clear(out)
		default:
			fillReference(out, ino.phys[blk], blkOff)
		}
		pos += n
	}
	return int(end - off)
}

func (ino *flatInode) truncate(size int64) {
	keep := (size + ino.fs.bs - 1) / ino.fs.bs
	if keep < int64(len(ino.phys)) {
		ino.phys = ino.phys[:keep]
	}
	for blk := range ino.data {
		if blk >= keep {
			delete(ino.data, blk)
		}
	}
	ino.size = size
}

func (ino *flatInode) appendMapRange(runs []PhysRun, lo, hi int64) []PhysRun {
	lo, hi = max(lo, 0), min(hi, int64(len(ino.phys)))
	for i := lo; i < hi; {
		p := ino.phys[i]
		if p == unmapped {
			i++
			continue
		}
		run := PhysRun{Logical: i, Phys: p, Count: 1}
		for i+run.Count < hi && ino.phys[i+run.Count] == p+run.Count {
			run.Count++
		}
		runs = append(runs, run)
		i += run.Count
	}
	return runs
}

// fuzzOps reads an operation script: each call takes the next value below
// n from the input, or 0 once it is spent.
type fuzzOps []byte

func (o *fuzzOps) next(n int64) int64 {
	if len(*o) < 3 {
		*o = nil
		return 0
	}
	v := int64((*o)[0]) | int64((*o)[1])<<8 | int64((*o)[2])<<16
	*o = (*o)[3:]
	return v % n
}

// FuzzInodeAgainstFlatMap runs an operation script against the file store
// and the flat reference side by side: synthetic and created files; writes
// that append at the size, leave a gap, overwrite, cover a sliver of a
// block or cross several groups; truncates down and up; removes whose
// chunks the next file's writes reuse (the collector is off); reads and
// AppendMapRange calls. After every step the file's bytes, its runs, the
// blocks a write allocated and the allocator's next block must agree. Block
// size 64 puts a group at 32KB, so scripts cross groups cheaply.
func FuzzInodeAgainstFlatMap(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8; i++ {
		script := make([]byte, 300+rng.Intn(600))
		rng.Read(script)
		f.Add(i%2 == 1, script)
	}
	f.Fuzz(func(t *testing.T, log bool, script []byte) {
		layout := LayoutExtent
		if log {
			layout = LayoutLog
		}
		// Every step reads the whole file twice: past a few hundred steps a
		// longer script only costs time.
		script = script[:min(len(script), 4096)]
		withoutGC(func() { checkAgainstFlat(t, layout, fuzzOps(script)) })
	})
}

func checkAgainstFlat(t *testing.T, layout Layout, ops fuzzOps) {
	const bs, group = 64, groupBlocks * 64
	const limit = 4*group + 100*bs // where offsets and sizes stop: four groups and a bit
	fsys := New(layout, bs, simtime.DefaultCosts())
	ref := &flatFS{layout: layout, bs: bs}
	names := []string{"a", "b", "s"}
	inos := make([]*Inode, len(names))
	refs := make([]*flatInode, len(names))
	create := func(i int, synthetic int64) {
		var err error
		if synthetic > 0 {
			inos[i], err = fsys.CreateSynthetic(nil, names[i], synthetic)
			refs[i] = ref.createSynthetic(synthetic)
		} else {
			inos[i], err = fsys.Create(nil, names[i])
			refs[i] = ref.create()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	create(0, 0)
	create(1, 0)
	create(2, 1+ops.next(2*group))
	data := make([]byte, 700*bs)
	got, want := make([]byte, limit+len(data)+group), make([]byte, limit+len(data)+group)
	check := func(step int, what string, i int) {
		t.Helper()
		ino, r := inos[i], refs[i]
		if ino.Size() != r.size {
			t.Fatalf("step %d (%s %s): size %d, want %d", step, what, names[i], ino.Size(), r.size)
		}
		n, m := ino.ReadAt(got, 0), r.readAt(want, 0)
		if n != m || !bytes.Equal(got[:n], want[:m]) {
			t.Fatalf("step %d (%s %s): file reads %d bytes, reference %d, or they differ", step, what, names[i], n, m)
		}
		hi := ino.Blocks() + 2*groupBlocks
		if g, w := ino.MapRange(0, hi), r.appendMapRange(nil, 0, hi); !slices.Equal(g, w) {
			t.Fatalf("step %d (%s %s): runs %v, want %v", step, what, names[i], g, w)
		}
		if fsys.nextPhys != ref.nextPhys {
			t.Fatalf("step %d (%s %s): next physical block %d, want %d", step, what, names[i], fsys.nextPhys, ref.nextPhys)
		}
	}
	for step := 0; len(ops) > 0; step++ {
		i := int(ops.next(int64(len(names))))
		ino, r := inos[i], refs[i]
		size := r.size
		// offset picks where an operation lands: at the size, past it, a few
		// blocks past its block, on a block boundary, anywhere, or within a
		// block of a group boundary.
		offset := func() int64 {
			switch ops.next(6) {
			case 0:
				if size < limit {
					return size
				}
				return ops.next(limit)
			case 1:
				return min(size+ops.next(2*group), limit)
			case 2:
				return min((size+bs-1)/bs+ops.next(4), limit/bs) * bs
			case 3:
				return ops.next(limit/bs) * bs
			case 4:
				return ops.next(limit)
			default:
				return max(0, (1+ops.next(4))*group-bs+ops.next(2*bs))
			}
		}
		switch op := ops.next(8); op {
		case 0, 1, 2, 3:
			off := offset()
			var n int64
			switch ops.next(3) {
			case 0:
				n = 1 + ops.next(bs-1)
			case 1:
				n = (1 + ops.next(8)) * bs
			default:
				n = 1 + ops.next(int64(len(data)))
			}
			for j := range data[:n] {
				data[j] = byte(step*7 + j)
			}
			g, w := ino.WriteAt(data[:n], off), r.writeAt(data[:n], off)
			if g != w {
				t.Fatalf("step %d (write %d at %d to %s): %d new blocks, want %d", step, n, off, names[i], g, w)
			}
			check(step, fmt.Sprintf("write %d at %d to", n, off), i)
		case 4:
			to := ops.next(size + 1)
			if ops.next(2) == 1 {
				to = min(size+ops.next(group+bs), limit)
			}
			ino.Truncate(nil, to)
			r.truncate(to)
			check(step, fmt.Sprintf("truncate to %d", to), i)
		case 5:
			if err := fsys.Remove(nil, names[i]); err != nil {
				t.Fatal(err)
			}
			create(i, ops.next(2)*(1+ops.next(2*group)))
			check(step, "remove and create", i)
		case 6:
			off, n := offset(), 1+ops.next(group+bs)
			g, w := ino.ReadAt(got[:n], off), r.readAt(want[:n], off)
			if g != w || !bytes.Equal(got[:g], want[:w]) {
				t.Fatalf("step %d (read %d at %d from %s): %d bytes, reference %d, or they differ", step, n, off, names[i], g, w)
			}
		default:
			lo := offset() / bs
			hi := lo + ops.next(3*groupBlocks)
			// A run the caller already holds that the first new run would
			// continue: AppendMapRange must leave it alone.
			prefix := []PhysRun{{Logical: lo - 1, Phys: ino.blocks.lookup(lo) - 1, Count: 1}}
			g, w := ino.AppendMapRange(prefix, lo, hi), r.appendMapRange(slices.Clone(prefix), lo, hi)
			if !slices.Equal(g, w) {
				t.Fatalf("step %d (map [%d, %d) of %s): runs %v, want %v", step, lo, hi, names[i], g, w)
			}
		}
	}
	for i := range names {
		check(-1, "end", i)
	}
}
