//go:build go1.24

package fs

import (
	"sync"
	"unsafe"
	"weak"
)

// freeChunks holds the data of chunks their inodes have dropped, for the
// next write that needs a chunk to take instead of allocating one. It
// holds them weakly: a collection frees whatever is on the list, so the
// list keeps no heap alive and needs no capacity, and how long a chunk
// waits is the collector's call (DESIGN §10, "Freed chunks").
type freeChunks struct {
	mu   sync.Mutex
	list []weak.Pointer[byte] // &data[0] of each dropped chunk, newest last
}

// put offers the data of chunks their inode has dropped under its lock; no
// one else may hold them. When the oldest entry is dead a collection has
// run since it was put, so the dead entries are dropped first: the list
// never outgrows the chunks freed since the collection before last.
func (l *freeChunks) put(dropped []chunk) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.list) > 0 && l.list[0].Value() == nil {
		live := l.list[:0]
		for _, w := range l.list {
			if w.Value() != nil {
				live = append(live, w)
			}
		}
		clear(l.list[len(live):])
		l.list = live
	}
	for _, c := range dropped {
		if c.data != nil {
			l.list = append(l.list, weak.Make(&c.data[0]))
		}
	}
}

// get returns a chunk of size bytes: one from the list, dead entries pruned
// on the way, or a new one. A reused chunk holds its last owner's bytes,
// which no one can read: its blocks' written bits start clear.
func (l *freeChunks) get(size int) []byte {
	l.mu.Lock()
	for n := len(l.list); n > 0; n-- {
		p := l.list[n-1].Value()
		l.list = l.list[:n-1]
		if p != nil {
			l.mu.Unlock()
			return unsafe.Slice(p, size)
		}
	}
	l.mu.Unlock()
	return make([]byte, size)
}
