package main

import (
	"runtime"
	"time"
)

// clock is the time source the load loops run on; tests drive them with a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// wallClock is real time. Its Sleep is exact to a few microseconds: the
// runtime's timers wake a millisecond or so late, which an open loop
// would charge to the node as latency, so the last stretch of every wait
// is spent yielding in a loop instead.
type wallClock struct{}

// spinWindow is the part of a wait spent spinning; it must exceed the
// runtime's worst usual oversleep.
const spinWindow = 2 * time.Millisecond

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// sample is one timed request. In an open loop due is when the schedule
// wanted it sent and free is when the connection could first have sent it
// (the later of due and the previous reply); in a closed loop all three
// send times coincide.
type sample struct {
	due, free, sent, done time.Time
	ok                    bool
}

// latencyMS is the user-visible latency: from when the request was due,
// so a stall charges every request it delayed, not only the one it hit.
func (s sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// serviceMS is send → reply, the figure comparable with a server span.
func (s sample) serviceMS() float64 { return ms(s.done.Sub(s.sent)) }

// lagMS is how late the generator itself ran: from the moment the
// request was due and the connection free to the moment it was sent. The
// wait behind a slow earlier reply is not in it — that is the node's
// doing and is already in latencyMS.
func (s sample) lagMS() float64 { return ms(s.sent.Sub(s.free)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop issues do(0), do(1), … on a fixed schedule — request i is due
// at start + i*interval whether or not earlier ones were slow — until
// the schedule passes dur or n requests were sent. The requests share one
// connection, so a late reply delays the sends behind it; that delay is
// in each delayed sample's latency, and only the generator's own
// lateness is in its lag.
func openLoop(ck clock, interval, dur time.Duration, n int, do func(i int) bool) []sample {
	start := ck.Now()
	var out []sample
	for i := 0; i < n; i++ {
		offset := time.Duration(i) * interval
		if offset >= dur {
			break
		}
		due := start.Add(offset)
		free := ck.Now() // the previous reply has just arrived
		if wait := due.Sub(free); wait > 0 {
			ck.Sleep(wait)
			free = due
		}
		s := sample{due: due, free: free, sent: ck.Now()}
		s.ok = do(i)
		s.done = ck.Now()
		out = append(out, s)
	}
	return out
}

// closedLoop issues do(0), do(1), … back to back from a single client —
// the next request leaves when the previous reply arrived — until dur has
// passed or n requests were sent.
func closedLoop(ck clock, dur time.Duration, n int, do func(i int) bool) []sample {
	start := ck.Now()
	var out []sample
	for i := 0; i < n; i++ {
		sent := ck.Now()
		if sent.Sub(start) >= dur {
			break
		}
		s := sample{due: sent, free: sent, sent: sent}
		s.ok = do(i)
		s.done = ck.Now()
		out = append(out, s)
	}
	return out
}

// latencies extracts the due-time latencies of the successful samples and
// counts the failed ones; a failed request has no latency to report and
// is charged to fail_ratio instead.
func latencies(samples []sample) (lat []float64, failed int) {
	lat = make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.ok {
			failed++
			continue
		}
		lat = append(lat, s.latencyMS())
	}
	return lat, failed
}

// lags extracts the generator lateness of every sample.
func lags(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.lagMS()
	}
	return out
}
