// Package des is a small discrete-event simulation core: a priority queue
// of timestamped events and a simulation clock. The OWA workload simulator
// schedules user-session and action events on it.
//
// Events with equal timestamps fire in scheduling order (FIFO within a
// timestamp), which keeps runs deterministic.
package des

import (
	"errors"

	"autosens/internal/timeutil"
)

// Event is a callback scheduled at a simulation time. The callback may
// schedule further events.
type Event func(now timeutil.Millis)

type item struct {
	at  timeutil.Millis
	seq uint64
	fn  Event
}

// before is the queue order: time, then scheduling sequence. seq is unique,
// so the order is total and any correct heap fires the same sequence.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of items in (at, seq) order, stored by
// value so scheduling an event allocates nothing once the slice has grown.
type eventHeap []item

func (h *eventHeap) push(it item) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

// pop removes the earliest item; the heap must be non-empty.
func (h *eventHeap) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = item{} // drop the callback reference
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// Simulator owns the event queue and the clock.
type Simulator struct {
	now     timeutil.Millis
	queue   eventHeap
	seq     uint64
	stopped bool
}

// New returns a Simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() timeutil.Millis { return s.now }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// ErrPast is returned when scheduling before the current simulation time.
var ErrPast = errors.New("des: event scheduled in the past")

// At schedules fn at absolute time at. Scheduling at the current time is
// allowed (the event runs after all events already queued for that time).
func (s *Simulator) At(at timeutil.Millis, fn Event) error {
	if at < s.now {
		return ErrPast
	}
	s.queue.push(item{at: at, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// After schedules fn delay milliseconds from now. Negative delays are
// rejected.
func (s *Simulator) After(delay timeutil.Millis, fn Event) error {
	return s.At(s.now+delay, fn)
}

// Stop aborts the run loop after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in time order until the queue empties, the horizon is
// passed, or Stop is called. Events scheduled at exactly the horizon do not
// run (the window is [0, horizon)). Returns the number of events executed.
func (s *Simulator) Run(horizon timeutil.Millis) int {
	s.stopped = false
	executed := 0
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].at >= horizon {
			break
		}
		next := s.queue.pop()
		s.now = next.at
		next.fn(s.now)
		executed++
	}
	if s.now < horizon && !s.stopped {
		s.now = horizon
	}
	return executed
}
