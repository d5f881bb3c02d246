package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestStdoutCarriesNoTiming pins that stdout is byte-stable: the timing
// lines go to stderr, and two runs of the same flags print the same bytes
// (fig8 included, whose α once depended on map order).
func TestStdoutCarriesNoTiming(t *testing.T) {
	args := []string{"-run", "table1,fig8"}
	var out1, out2, errs bytes.Buffer
	if err := run(args, &out1, &errs); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if timing := regexp.MustCompile(`completed in|records in|[0-9](ms|µs|s)\b`); timing.Match(out1.Bytes()) {
		t.Fatalf("stdout carries timing text: %q", timing.Find(out1.Bytes()))
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("two runs of the same flags printed different stdout")
	}
	for _, want := range []string{"records in", "table1 completed in", "fig8 completed in"} {
		if !strings.Contains(errs.String(), want) {
			t.Fatalf("stderr lacks %q:\n%s", want, errs.String())
		}
	}
}
