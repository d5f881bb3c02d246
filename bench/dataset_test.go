package main

import (
	"bytes"
	"testing"

	"autosens/internal/timeutil"
)

var tinySpec = datasetSpec{days: 1, business: 6, consumer: 6}

func TestDatasetAndBatchesAreAFunctionOfTheSeed(t *testing.T) {
	a, err := generate(tinySpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(tinySpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(tinySpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := encodeTBIN(a)
	eb, _ := encodeTBIN(b)
	ec, _ := encodeTBIN(c)
	if len(ea) == 0 || !bytes.Equal(ea, eb) {
		t.Fatal("equal seeds must give byte-identical datasets")
	}
	if bytes.Equal(ea, ec) {
		t.Fatal("different seeds must give different datasets")
	}
	horizon := timeutil.Millis(tinySpec.days) * timeutil.MillisPerDay
	sa := stream{d: &dataset{recs: a, horizon: horizon}}
	sb := stream{d: &dataset{recs: b, horizon: horizon}}
	sc := stream{d: &dataset{recs: c, horizon: horizon}}
	wa, err := sa.encodeBatches(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := sb.encodeBatches(0, 3, 0)
	wc, _ := sc.encodeBatches(0, 3, 0)
	for i := range wa {
		if !bytes.Equal(wa[i].body, wb[i].body) {
			t.Fatalf("batch %d differs between equal seeds", i)
		}
	}
	if bytes.Equal(wa[0].body, wc[0].body) {
		t.Fatal("batch 0 is identical across different seeds")
	}
}

func TestStreamAdvancesAcrossRepetitionsAndBackfillsWholeDays(t *testing.T) {
	recs, err := generate(tinySpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	horizon := timeutil.Millis(tinySpec.days) * timeutil.MillisPerDay
	s := stream{d: &dataset{recs: recs, horizon: horizon}}
	n := len(recs)/batchRecords + 2 // runs past the end of D
	prev := timeutil.Millis(-1)
	for i := 0; i < n; i++ {
		for _, r := range s.batch(i) {
			if r.Time < prev {
				t.Fatalf("batch %d: the advancing stream went back in time", i)
			}
			prev = r.Time
		}
	}
	if prev < horizon {
		t.Fatal("the second repetition of D must be shifted past the horizon")
	}
	loaded := s.lastTime(n - 1)
	shift, err := s.backfillShift(n-1, n, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if shift <= 0 || shift%timeutil.MillisPerDay != 0 {
		t.Fatalf("backfill shift %d is not a positive whole number of days", shift)
	}
	b := wireBatch{index: n - 1, shift: shift}
	for _, r := range s.records(b) {
		if r.Time > loaded || r.Time < 0 {
			t.Fatalf("backfilled record at %d falls outside the loaded range [0, %d]", r.Time, loaded)
		}
	}
}
