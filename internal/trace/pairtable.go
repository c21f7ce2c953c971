package trace

import "math"

// PairTable maps pairing keys to values of type T, the zero T standing
// for none. A DOACROSS loop's iterations are dense, so each variable's
// keys live in a table indexed by iteration; keys that would leave a
// table mostly empty go to a map. With a map keyed by PairKey instead,
// the event-based engine took 1.8x as long on the million-event wave,
// and 1.4x with a packed uint64 key. A table grows to at least twice its
// length, upward or downward, so filling it allocates less than twice
// its final capacity. The zero PairTable is empty and ready to use.
type PairTable[T comparable] struct {
	vars   map[int]*iterTable[T]
	sparse map[PairKey]*T
}

// iterTable holds one variable's cells, at[i] for iteration base+i.
type iterTable[T any] struct {
	base int
	at   []T
}

// Slot returns the cell of key k, creating it (holding the zero T) on
// first use. The pointer is valid until the next call to Slot.
func (p *PairTable[T]) Slot(k PairKey) *T {
	if p.vars == nil {
		p.vars = make(map[int]*iterTable[T])
	}
	t := p.vars[k.Var]
	if t == nil {
		t = &iterTable[T]{base: k.Iter}
		p.vars[k.Var] = t
	}
	if c := t.slot(k.Iter); c != nil {
		if len(p.sparse) > 0 && *c == *new(T) {
			if s := p.sparse[k]; s != nil {
				*c = *s // the table has grown over a sparse key
			}
		}
		return c
	}
	if p.sparse == nil {
		p.sparse = make(map[PairKey]*T)
	}
	c := p.sparse[k]
	if c == nil {
		c = new(T)
		p.sparse[k] = c
	}
	return c
}

// slot returns the cell for iteration it, growing the table to reach it,
// or nil when it lies so far out that the table would be mostly empty.
func (t *iterTable[T]) slot(it int) *T {
	if i := it - t.base; i >= 0 && i < len(t.at) {
		return &t.at[i]
	}
	if int(int32(it)) != it || int(int32(t.base)) != t.base {
		return nil // keep the arithmetic below far from overflow
	}
	lo, hi := min(t.base, it), max(t.base+len(t.at), it+1)
	if hi-lo > 2*len(t.at)+1024 {
		return nil
	}
	switch {
	case lo == t.base && hi-lo <= cap(t.at):
		t.at = t.at[:hi-lo] // cells past len are still zero
	case lo == t.base:
		grown := make([]T, hi-lo, max(hi-lo, 2*cap(t.at)))
		copy(grown, t.at)
		t.at = grown
	default:
		// Leave as much room below as the table already spans, so a
		// feed that walks iterations downward doubles the table too.
		lo = max(min(lo, t.base-len(t.at)), math.MinInt32)
		grown := make([]T, hi-lo)
		copy(grown[t.base-lo:], t.at)
		t.base, t.at = lo, grown
	}
	return &t.at[it-t.base]
}
