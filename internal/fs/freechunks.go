//go:build go1.24

package fs

import (
	"slices"
	"unsafe"
	"weak"
)

// freeChunks holds the data of chunks their inodes have dropped, for the
// next write that needs a chunk to take instead of allocating one. It
// holds them weakly, one handle per dropped batch: a collection frees
// whatever is on the list, so the list keeps no heap alive and needs no
// capacity, and how long a chunk waits is the collector's call (DESIGN
// §10, "Freed chunks"). It is under FS.mu.
type freeChunks struct {
	list []freeBatch // newest last
}

// freeBatch is one dropped chunk table: chunks[:n] may still be taken.
type freeBatch struct {
	chunks weak.Pointer[chunk] // &chunks[0]
	n      int
}

// put takes over dropped, a chunk table its inode has let go of: no one
// else may hold it, or any of its chunks' data. When the
// oldest entry is dead a collection has run since it was put, so the dead
// entries are dropped first: the list never outgrows the batches freed
// since the collection before last.
func (l *freeChunks) put(dropped []chunk) {
	if !slices.ContainsFunc(dropped, func(c chunk) bool { return c.data != nil }) {
		return
	}
	if len(l.list) > 0 && l.list[0].chunks.Value() == nil {
		l.list = slices.DeleteFunc(l.list, func(b freeBatch) bool { return b.chunks.Value() == nil })
	}
	l.list = append(l.list, freeBatch{weak.Make(&dropped[0]), len(dropped)})
}

// get returns a chunk of size bytes: one from the list, dead and emptied
// entries pruned on the way, or a new one. A reused chunk holds its last
// owner's bytes, which no one can read: its blocks' written bits start
// clear.
func (l *freeChunks) get(size int) []byte {
	for len(l.list) > 0 {
		last := &l.list[len(l.list)-1]
		if p := last.chunks.Value(); p != nil {
			chunks := unsafe.Slice(p, last.n)
			for last.n > 0 {
				last.n--
				if data := chunks[last.n].data; data != nil {
					chunks[last.n].data = nil
					return data[:size]
				}
			}
		}
		l.list = l.list[:len(l.list)-1]
	}
	return make([]byte, size)
}
