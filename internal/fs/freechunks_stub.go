//go:build !go1.24

package fs

// freeChunks keeps nothing before Go 1.24, whose weak pointers let the
// list hold chunks without keeping them alive: every chunk is new.
type freeChunks struct{}

func (*freeChunks) put([]chunk) {}

func (*freeChunks) get(size int) []byte { return make([]byte, size) }
