package bpu

// RSB is the fixed-depth hardware return stack (§II-A): calls push the
// low 32 bits of the return address, returns pop. Overflow silently
// overwrites the oldest entry (circular); underflow reports !ok and the
// caller falls back to the indirect predictor.
type RSB struct {
	entries []uint32
	top     int // index of next push slot
	depth   int // live entries, ≤ len(entries)
	// Underflows counts pops from an empty stack since the last Flush.
	Underflows uint64
}

// NewRSB allocates a return stack with the given capacity.
func NewRSB(capacity int) *RSB {
	if capacity <= 0 {
		panic("bpu: RSB capacity must be positive")
	}
	return &RSB{entries: make([]uint32, capacity)}
}

// Capacity returns the hardware depth.
func (r *RSB) Capacity() int { return len(r.entries) }

// Depth returns the current live entry count.
func (r *RSB) Depth() int { return r.depth }

// Push stores a (possibly encrypted) 32-bit return address.
func (r *RSB) Push(v uint32) {
	r.entries[r.top] = v
	r.top++
	if r.top == len(r.entries) {
		r.top = 0
	}
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop removes and returns the most recent entry. ok is false on
// underflow — the case where returns are predicted via the BTB's mode-two
// path instead.
func (r *RSB) Pop() (v uint32, ok bool) {
	if r.depth == 0 {
		r.Underflows++
		return 0, false
	}
	if r.top == 0 {
		r.top = len(r.entries)
	}
	r.top--
	r.depth--
	return r.entries[r.top], true
}

// Peek returns the entry that the next Pop would yield without removing
// it (attack models use it to inspect poisoned state).
func (r *RSB) Peek() (v uint32, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	i := r.top - 1
	if i < 0 {
		i = len(r.entries) - 1
	}
	return r.entries[i], true
}

// Flush empties the stack.
func (r *RSB) Flush() {
	r.top, r.depth = 0, 0
	r.Underflows = 0
}
