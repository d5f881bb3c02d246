package pipeline

import (
	"strings"
	"testing"

	"autosens/internal/obs"
	"autosens/internal/telemetry"
)

func TestRunRecordsPerSliceSpans(t *testing.T) {
	slices := NewPartition(records(t)).ByActionType()
	tr := obs.NewTracer("pipeline")
	results, err := Run(Request{Options: testOptions(), Slices: slices, Trace: tr.Root(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()

	kids := root.Children()
	if len(kids) != len(slices) {
		t.Fatalf("%d spans for %d slices", len(kids), len(slices))
	}
	seen := map[string]bool{}
	for _, sp := range kids {
		if !strings.HasPrefix(sp.Name(), "slice:") {
			t.Fatalf("span name %q", sp.Name())
		}
		seen[strings.TrimPrefix(sp.Name(), "slice:")] = true
		w, ok := sp.Attr("worker")
		if !ok {
			t.Fatalf("span %s lacks worker attr", sp.Name())
		}
		if wi := w.(int); wi < 0 || wi > 1 {
			t.Fatalf("worker id %v out of range", w)
		}
		if qw, ok := sp.Attr("queue_wait_ms"); !ok || qw.(float64) < 0 {
			t.Fatalf("queue_wait_ms = %v, %v", qw, ok)
		}
		if _, ok := sp.Attr("records"); !ok {
			t.Fatalf("span %s lacks records attr", sp.Name())
		}
		// The estimator's stage spans nest under the slice span.
		if sp.Find("estimate") == nil {
			t.Fatalf("no estimator span under %s", sp.Name())
		}
	}
	for _, s := range slices {
		if !seen[s.Name] {
			t.Fatalf("no span for slice %s", s.Name)
		}
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestRunUntracedMatchesTraced(t *testing.T) {
	slices := []Slice{SliceOf("sm", telemetry.ByAction(records(t), telemetry.SelectMail))}
	plain, err := Run(Request{Options: testOptions(), Slices: slices})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("pipeline")
	traced, err := Run(Request{Options: testOptions(), Slices: slices, Trace: tr.Root()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain[0].Curve, traced[0].Curve
	for i := range a.NLP {
		if a.NLP[i] != b.NLP[i] {
			t.Fatalf("bin %d diverged under tracing", i)
		}
	}
}

// benchRequest builds a realistic multi-slice request over the shared
// simulated workload.
func benchRequest(b *testing.B) Request {
	b.Helper()
	return Request{Options: testOptions(), Slices: NewPartition(records(b)).ByActionType()}
}

// BenchmarkPipelineRun vs BenchmarkPipelineRunTraced price the span layer:
// the traced run adds a handful of clock reads and child appends per slice,
// which must be negligible against the estimation itself.
func BenchmarkPipelineRun(b *testing.B) {
	req := benchRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRunTraced(b *testing.B) {
	req := benchRequest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer("bench")
		req.Trace = tr.Root()
		if _, err := Run(req); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}
