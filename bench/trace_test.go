package main

import "testing"

// Self time is the span minus the part of it its children cover:
// overlapping children count once, a child is credited only for the part
// inside its parent, and grandchildren belong to the child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wal.write", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "live.append", Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},       // 20 of it lies outside
		{ID: 5, Parent: 2, Name: "fsync", Start: 15, End: 25},       // grandchild of 1
		{ID: 6, Name: "orphan", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - (30 + 20 + 10), // children cover [10,60) and [90,100)
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfSharesSumToOne(t *testing.T) {
	tr := newTracer()
	tr.marks = []phaseMark{{Name: "rate", At: 0}, {Name: "oracle", At: 1000}}
	tr.spans = []span{
		{ID: 1, Req: 1, Name: "http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "wal.write", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "live.append", Start: 40, End: 60},
		{ID: 4, Req: 4, Name: "http", Start: 2000, End: 2100}, // another phase
	}
	shares := tr.selfShares("rate", "http")
	if shares["http"] != 0.5 || shares["wal.write"] != 0.3 || shares["live.append"] != 0.2 {
		t.Fatalf("shares = %v, want http 0.5, wal.write 0.3, live.append 0.2", shares)
	}
	if got := tr.in("rate", "http"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("phase selection returned %v", got)
	}
}
