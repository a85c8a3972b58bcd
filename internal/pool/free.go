package pool

// Free is a bounded free list of reusable values, such as buffers a
// request fills and returns. Unlike a sync.Pool it keeps its values across
// garbage collections and under the race detector, so the allocations of
// the code that reuses them depend on neither; it holds at most the number
// it was made with and drops what is put beyond that.
type Free[T any] struct {
	values   chan T
	newValue func() T
}

// NewFree returns a free list of at most n values, whose Get makes a value
// with newValue when the list is empty.
func NewFree[T any](n int, newValue func() T) *Free[T] {
	return &Free[T]{values: make(chan T, n), newValue: newValue}
}

// Get takes a value from the list, or makes one.
func (f *Free[T]) Get() T {
	select {
	case v := <-f.values:
		return v
	default:
		return f.newValue()
	}
}

// Put returns a value to the list, or drops it if the list is full.
func (f *Free[T]) Put(v T) {
	select {
	case f.values <- v:
	default:
	}
}
