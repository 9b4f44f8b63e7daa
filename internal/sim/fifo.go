package sim

// fifoSlack is the dead prefix a head-indexed FIFO may carry before it is
// slid down: large enough that a queue which drains now and then never pays
// a copy, small enough that one which never drains stays a few KB.
const fifoSlack = 1024

// SlideFIFO bounds the dead prefix of a head-indexed FIFO — a slice whose
// live region is q[head:], popped by advancing head and pushed by append.
// Call it before each push: an empty queue restarts at slot 0, and under
// sustained load, where the queue may never empty, the live tail slides
// down once the dead prefix dominates, so the array stays within a constant
// factor of the deepest backlog instead of growing with the run. Vacated
// slots are cleared. Slot positions are unobservable (speculation shadows
// rebuild every such queue at head 0), so when the slide happens changes
// nothing simulated.
func SlideFIFO[T any](q []T, head int) ([]T, int) {
	switch {
	case head == len(q):
		return q[:0], 0
	case head > fifoSlack && head*2 > len(q):
		n := copy(q, q[head:])
		clear(q[n:])
		return q[:n], 0
	}
	return q, head
}
