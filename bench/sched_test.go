package main

import (
	"testing"
	"time"
)

// fakeClock only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// oversleepClock wakes late from every sleep, like a real timer.
type oversleepClock struct {
	fakeClock
	late time.Duration
}

func (c *oversleepClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.late) }

// An open loop keeps its schedule and times every request from when it
// was due: a 25 ms stall on request 1 makes requests 2 and 3 late, and
// their latency includes the wait the stall imposed on them — but that
// wait is the node's doing, so it is not generator lag.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ck := &fakeClock{now: time.Unix(0, 0)}
	service := []time.Duration{2, 25, 2, 2, 2}
	for i := range service {
		service[i] *= time.Millisecond
	}
	got := openLoop(ck, 10*time.Millisecond, time.Second, len(service), func(i int) bool {
		ck.Sleep(service[i])
		return true
	})
	wantLatency := []float64{2, 25, 17, 9, 2} // ms from due time
	wantLag := []float64{0, 0, 0, 0, 0}       // the generator itself was never late
	if len(got) != len(service) {
		t.Fatalf("sent %d requests, want %d", len(got), len(service))
	}
	for i, s := range got {
		if s.latencyMS() != wantLatency[i] || s.lagMS() != wantLag[i] {
			t.Errorf("request %d: latency %g ms lag %g ms, want %g and %g", i, s.latencyMS(), s.lagMS(), wantLatency[i], wantLag[i])
		}
		if want := ms(service[i]); s.serviceMS() != want {
			t.Errorf("request %d: service %g ms, want %g", i, s.serviceMS(), want)
		}
	}
}

// Generator lag is the generator's own lateness: a timer that wakes 1 ms
// late makes every scheduled send 1 ms late, and that shows as lag (and,
// because latency runs from the due time, in the latency too).
func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	ck := &oversleepClock{fakeClock: fakeClock{now: time.Unix(0, 0)}, late: time.Millisecond}
	got := openLoop(ck, 10*time.Millisecond, time.Second, 3, func(int) bool {
		ck.now = ck.now.Add(2 * time.Millisecond)
		return true
	})
	for i, s := range got[1:] {
		if s.lagMS() != 1 || s.latencyMS() != 3 || s.serviceMS() != 2 {
			t.Errorf("request %d: lag %g ms latency %g ms service %g ms, want 1, 3, 2", i+1, s.lagMS(), s.latencyMS(), s.serviceMS())
		}
	}
	if got[0].lagMS() != 0 {
		t.Errorf("request 0 is due at the start and cannot be late, got lag %g", got[0].lagMS())
	}
}

func TestOpenLoopStopsAtDuration(t *testing.T) {
	ck := &fakeClock{now: time.Unix(0, 0)}
	got := openLoop(ck, 10*time.Millisecond, 35*time.Millisecond, 100, func(int) bool { return true })
	if len(got) != 4 { // due at 0, 10, 20, 30 ms
		t.Fatalf("sent %d requests in 35 ms at 10 ms spacing, want 4", len(got))
	}
}

func TestClosedLoopSendsOnReply(t *testing.T) {
	ck := &fakeClock{now: time.Unix(0, 0)}
	got := closedLoop(ck, 10*time.Millisecond, 100, func(i int) bool {
		ck.Sleep(3 * time.Millisecond)
		return i != 1
	})
	if len(got) != 4 { // sent at 0, 3, 6, 9 ms
		t.Fatalf("sent %d requests, want 4", len(got))
	}
	lat, failed := latencies(got)
	if failed != 1 || len(lat) != 3 || lat[0] != 3 {
		t.Fatalf("latencies = %v failed = %d; a failed request has no latency", lat, failed)
	}
}

func TestBacklogGrew(t *testing.T) {
	if !backlogGrew([]int{0, 2, 2, 5, 9}) {
		t.Error("a queue that never shrinks and ends higher is a growing backlog")
	}
	if backlogGrew([]int{0, 4, 1, 5}) || backlogGrew([]int{3, 3, 3}) || backlogGrew([]int{0, 9}) {
		t.Error("a queue that drains, stays flat, or has too few readings is not")
	}
}
