//go:build !go1.24

package slab

// Spares keeps nothing before Go 1.24, whose weak pointers let it hold
// blocks without keeping them alive: every block is new.
type Spares[T any] struct{}

func (*Spares[T]) put([][]T) {}

func (*Spares[T]) get(int) []T { return nil }
