package des

import (
	"container/heap"
	"fmt"
	"testing"

	"autosens/internal/rng"
	"autosens/internal/timeutil"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, func(timeutil.Millis) { order = append(order, 3) })
	s.At(10, func(timeutil.Millis) { order = append(order, 1) })
	s.At(20, func(timeutil.Millis) { order = append(order, 2) })
	n := s.Run(100)
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFIFOWithinTimestamp(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func(timeutil.Millis) { order = append(order, i) })
	}
	s.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var seen []timeutil.Millis
	s.At(7, func(now timeutil.Millis) { seen = append(seen, now, s.Now()) })
	s.Run(100)
	if len(seen) != 2 || seen[0] != 7 || seen[1] != 7 {
		t.Fatalf("clock wrong: %v", seen)
	}
	if s.Now() != 100 {
		t.Fatalf("final clock = %d, want horizon", s.Now())
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	s := New()
	count := 0
	var tick func(now timeutil.Millis)
	tick = func(now timeutil.Millis) {
		count++
		if count < 5 {
			if err := s.After(10, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.At(0, tick)
	s.Run(1000)
	if count != 5 {
		t.Fatalf("chained events ran %d times", count)
	}
}

func TestHorizonExclusive(t *testing.T) {
	s := New()
	ran := false
	s.At(50, func(timeutil.Millis) { ran = true })
	s.Run(50)
	if ran {
		t.Fatal("event at horizon executed")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// A second Run with a larger horizon picks it up.
	s.Run(51)
	if !ran {
		t.Fatal("event not executed on resumed run")
	}
}

func TestSchedulingInPastRejected(t *testing.T) {
	s := New()
	s.At(10, func(timeutil.Millis) {
		if err := s.At(5, func(timeutil.Millis) {}); err != ErrPast {
			t.Fatalf("past scheduling: %v", err)
		}
	})
	s.Run(20)
}

func TestNegativeDelayRejected(t *testing.T) {
	s := New()
	s.At(10, func(timeutil.Millis) {
		if err := s.After(-1, func(timeutil.Millis) {}); err != ErrPast {
			t.Fatalf("negative delay: %v", err)
		}
	})
	s.Run(20)
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(timeutil.Millis(i), func(timeutil.Millis) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	n := s.Run(100)
	if n != 3 || count != 3 {
		t.Fatalf("Stop did not halt: n=%d count=%d", n, count)
	}
}

func TestSameTimeAsNowAllowed(t *testing.T) {
	s := New()
	ran := false
	s.At(10, func(now timeutil.Millis) {
		if err := s.At(now, func(timeutil.Millis) { ran = true }); err != nil {
			t.Fatal(err)
		}
	})
	s.Run(20)
	if !ran {
		t.Fatal("same-time event not executed")
	}
}

func TestManyRandomEventsOrdered(t *testing.T) {
	r := rng.New(1)
	s := New()
	var last timeutil.Millis = -1
	ok := true
	for i := 0; i < 10000; i++ {
		s.At(timeutil.Millis(r.Intn(100000)), func(now timeutil.Millis) {
			if now < last {
				ok = false
			}
			last = now
		})
	}
	s.Run(200000)
	if !ok {
		t.Fatal("events executed out of order")
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	r := rng.New(1)
	times := make([]timeutil.Millis, 10000)
	for i := range times {
		times[i] = timeutil.Millis(r.Intn(1000000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, at := range times {
			s.At(at, func(timeutil.Millis) {})
		}
		s.Run(2000000)
	}
}

// refSim is the reference the typed queue is checked against: the same
// Simulator semantics over container/heap.
type refSim struct {
	now     timeutil.Millis
	queue   refHeap
	seq     uint64
	stopped bool
}

type refHeap []item

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func (s *refSim) Now() timeutil.Millis { return s.now }
func (s *refSim) Pending() int         { return len(s.queue) }
func (s *refSim) Stop()                { s.stopped = true }

func (s *refSim) At(at timeutil.Millis, fn Event) error {
	if at < s.now {
		return ErrPast
	}
	heap.Push(&s.queue, item{at: at, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

func (s *refSim) After(delay timeutil.Millis, fn Event) error { return s.At(s.now+delay, fn) }

func (s *refSim) Run(horizon timeutil.Millis) int {
	s.stopped = false
	executed := 0
	for len(s.queue) > 0 && !s.stopped {
		if s.queue[0].at >= horizon {
			break
		}
		next := heap.Pop(&s.queue).(item)
		s.now = next.at
		next.fn(s.now)
		executed++
	}
	if s.now < horizon && !s.stopped {
		s.now = horizon
	}
	return executed
}

// scheduler is the surface a schedule script drives.
type scheduler interface {
	At(timeutil.Millis, Event) error
	After(timeutil.Millis, Event) error
	Stop()
	Run(timeutil.Millis) int
	Now() timeutil.Millis
	Pending() int
}

// runScript drives s with the schedule the script bytes describe and
// returns its trace: every firing (event id and time), every scheduling
// error and every Run's count and clock. Each byte is one operation; an
// event's own behaviour (children, their delays, At or After, Stop, an
// attempt in the past) is a hash of its id, so both sides see the same
// events whatever order they fire them in.
func runScript(s scheduler, script []byte) []string {
	var trace []string
	var schedule func(id uint64, depth int) Event
	schedule = func(id uint64, depth int) Event {
		return func(now timeutil.Millis) {
			trace = append(trace, fmt.Sprintf("fire %x@%d", id, now))
			h := rng.Mix64(id)
			if h%29 == 0 {
				s.Stop()
			}
			if depth >= 4 {
				return
			}
			for c := uint64(0); c < h>>8%3; c++ {
				child := rng.Mix64(id*4 + c + 1)
				delay := timeutil.Millis(child>>16%3) - timeutil.Millis(child>>24%8/7) // mostly 0..2, sometimes one in the past
				var err error
				if child%2 == 0 {
					err = s.At(now+delay, schedule(child, depth+1))
				} else {
					err = s.After(delay, schedule(child, depth+1))
				}
				if err != nil {
					trace = append(trace, fmt.Sprintf("err %x: %v", child, err))
				}
			}
		}
	}
	for i, op := range script {
		switch {
		case op < 200: // a root event a few ms from now, or in the past
			at := s.Now() + timeutil.Millis(op%8) - timeutil.Millis(op/8%16/15)
			if err := s.At(at, schedule(uint64(i)<<8|uint64(op), 0)); err != nil {
				trace = append(trace, fmt.Sprintf("err root %d: %v", i, err))
			}
		default: // run up to a horizon a few ms on
			n := s.Run(s.Now() + timeutil.Millis(op-200)/4)
			trace = append(trace, fmt.Sprintf("run %d now %d pending %d", n, s.Now(), s.Pending()))
		}
	}
	n := s.Run(1 << 40)
	trace = append(trace, fmt.Sprintf("drain %d now %d pending %d", n, s.Now(), s.Pending()))
	return trace
}

// FuzzQueueMatchesHeap checks the typed queue against container/heap:
// random At/After/Stop schedules, most events sharing a timestamp with
// others and many scheduling more, must fire in the same order with the
// same errors, counts and clocks.
func FuzzQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 255})
	f.Add([]byte{7, 7, 7, 7, 201, 15, 8, 0, 220, 3, 3, 3, 210})
	f.Add([]byte("a schedule of events at nearby times, run in pieces \xff\xd0\xe7"))
	seed := make([]byte, 512)
	r := rng.New(5)
	for i := range seed {
		seed[i] = byte(r.Intn(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 { // up to 512 roots, each with at most 30 descendants
			script = script[:512]
		}
		got := runScript(New(), script)
		want := runScript(&refSim{}, script)
		if len(got) != len(want) {
			t.Fatalf("trace has %d entries, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace entry %d = %q, reference %q", i, got[i], want[i])
			}
		}
	})
}
