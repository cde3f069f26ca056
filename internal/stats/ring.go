package stats

// Ring keeps the most recent values added, up to its capacity, overwriting
// the oldest once full and counting every overwrite, so a bounded buffer can
// always say how much history it lost. The buffer is allocated up front, so
// Add never allocates.
//
// A Ring takes no lock of its own; its owner serializes Add and Items under
// the mutex that already guards the surrounding state. A non-positive
// capacity retains nothing and counts every Add as dropped.
type Ring[T any] struct {
	buf     []T
	next    int // slot the next Add writes
	full    bool
	dropped uint64
}

// NewRing builds a ring holding up to capacity values.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, max(capacity, 0))}
}

// Add retains v, overwriting (and counting) the oldest value when full.
func (r *Ring[T]) Add(v T) {
	if len(r.buf) == 0 {
		r.dropped++
		return
	}
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Items returns a copy of the retained values, oldest first. It is never
// nil, so an empty ring encodes as a JSON empty array.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, r.Len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many values were overwritten (or refused, at zero
// capacity) before anyone could read them.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }
