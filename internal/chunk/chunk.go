// Package chunk carves small, owned slices out of shared backing arrays,
// so a hot path that hands out a fresh vector per sample, window or frame
// pays one allocation per Carves of them instead of one each.
//
// A carved slice belongs to its holder for good: a spent chunk is
// replaced, never reused or rewritten, so a holder may retain what it was
// given for as long as it likes, and a retained slice pins at most the one
// chunk it was carved from. Each slice is capacity-limited to its length,
// so appending to it reallocates instead of writing into a neighbour.
package chunk

// Carves is how many slices of the size that started a chunk it holds.
const Carves = 32

// Of carves []T slices from a backing array of T. The zero value is ready
// to use. It is not safe for concurrent use: each owner guards its own.
type Of[T any] struct {
	free []T
}

// Carve returns n fresh zeroed elements, capacity-limited to n, starting a
// new chunk of Carves·n elements when the current one is short. n == 0
// carves nil.
func (c *Of[T]) Carve(n int) []T {
	if n == 0 {
		return nil
	}
	if len(c.free) < n {
		c.free = make([]T, Carves*n)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}
