package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"autosens/internal/experiments"
)

// referenceFile is the committed stdout of
// `go run ./cmd/experiments -scale small -seed 1`; `make reference` diffs a
// fresh full run against it.
const referenceFile = "../../results_small.txt"

// slowExperiment takes most of the full run's wall time; the test leaves
// its section to `make reference`.
const slowExperiment = "ext-coverage"

// sectionHeader matches the banner run prints before each experiment.
var sectionHeader = regexp.MustCompile(`(?m)^\n={80}\n(\S+) — `)

// sections splits experiments stdout into its per-experiment sections,
// keyed by experiment ID, each from its banner up to the next one.
func sections(out []byte) map[string][]byte {
	idx := sectionHeader.FindAllSubmatchIndex(out, -1)
	secs := make(map[string][]byte, len(idx))
	for i, m := range idx {
		end := len(out)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		secs[string(out[m[2]:m[3]])] = out[m[0]:end]
	}
	return secs
}

// TestReferenceRunMatchesCommitted reruns every experiment but the slow
// one at the reference flags and requires each section to be byte for byte
// the committed reference run's: the paper's figures, tables and
// validations are pinned like any other golden. A change that moves them on
// purpose regenerates results_small.txt in the same commit.
func TestReferenceRunMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	wantSecs := sections(want)
	var ids []string
	for _, e := range experiments.All() {
		if _, ok := wantSecs[e.ID]; !ok {
			t.Errorf("%s has no section in %s", e.ID, referenceFile)
		}
		if e.ID != slowExperiment {
			ids = append(ids, e.ID)
		}
	}
	if len(wantSecs) != len(experiments.All()) {
		t.Errorf("%s has %d sections for %d experiments", referenceFile, len(wantSecs), len(experiments.All()))
	}

	var out bytes.Buffer
	if err := run([]string{"-scale", "small", "-seed", "1", "-run", strings.Join(ids, ",")}, &out, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	gotSecs := sections(out.Bytes())
	if len(gotSecs) != len(ids) {
		t.Fatalf("run printed %d sections for %d experiments", len(gotSecs), len(ids))
	}
	for _, id := range ids {
		got, want := gotSecs[id], wantSecs[id]
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		n := 0
		for n < len(gl) && n < len(wl) && gl[n] == wl[n] {
			n++
		}
		t.Errorf("%s: section differs from %s at its line %d:\n got  %q\n want %q",
			id, referenceFile, n+1, lineAt(gl, n), lineAt(wl, n))
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of section>"
}
