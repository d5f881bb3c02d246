package telemetry_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"autosens/internal/pipeline"
	"autosens/internal/telemetry"
)

// The column build is the pipeline's, which imports this package, so its
// parity check is wired into checkDecodeTBIN from here.
func init() { telemetry.CheckColumnBuild = checkColumnBuild }

// checkColumnBuild requires pipeline.Load.TBIN, at one worker and at four,
// to build from data the partition pipeline.NewPartition builds from want,
// the records a reference decode of data gives — every family's slices
// equal for every action — or to fail with wantErr's text.
func checkColumnBuild(t testing.TB, data []byte, want []telemetry.Record, wantErr error) {
	t.Helper()
	ref := pipeline.NewPartition(want)
	for _, workers := range []int{1, 4} {
		got, seen, err := pipeline.Load{Workers: workers}.TBIN(data)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("workers=%d over %q: column build err = %v, streaming reader says %v", workers, data, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d over %q: column build: %v, streaming reader decodes %d records", workers, data, err, len(want))
		}
		if seen.Records != len(want) || got.Len() != len(want) {
			t.Fatalf("workers=%d: column build read %d records into %d rows, streaming reader %d", workers, seen.Records, got.Len(), len(want))
		}
		families := func(p *pipeline.Partition) []pipeline.Slice {
			out := p.ByActionType()
			for _, a := range telemetry.ActionTypes() {
				out = append(out, p.BySegment(a)...)
				out = append(out, p.ByPeriod(a)...)
				out = append(out, p.ByMonth(a)...)
				qs, err := p.ByQuartile(a)
				out = append(out, qs...)
				out = append(out, pipeline.Slice{Name: fmt.Sprint(err)})
			}
			return out
		}
		g, w := families(got), families(ref)
		if len(g) != len(w) {
			t.Fatalf("workers=%d: %d slices, records give %d", workers, len(g), len(w))
		}
		for i := range w {
			if g[i].Name != w[i].Name || g[i].Rows != w[i].Rows || len(g[i].Times) != len(w[i].Times) {
				t.Fatalf("workers=%d: slice %q (%d rows, %d usable), records give %q (%d, %d)",
					workers, g[i].Name, g[i].Rows, len(g[i].Times), w[i].Name, w[i].Rows, len(w[i].Times))
			}
			for j := range w[i].Times {
				if g[i].Times[j] != w[i].Times[j] || math.Float64bits(g[i].Lats[j]) != math.Float64bits(w[i].Lats[j]) {
					t.Fatalf("workers=%d: slice %q row %d differs", workers, w[i].Name, j)
				}
			}
		}
	}
}

// TestDecodeTBINOverclaimingFrameAllocatesNothing: a frame whose record
// count its payload cannot hold is refused from its header, before the
// column build is sized by it.
func TestDecodeTBINOverclaimingFrameAllocatesNothing(t *testing.T) {
	const claimed = 1 << 20 // 56 MiB of records, in a 1 MiB payload
	data := binary.AppendUvarint([]byte("TBN1"), claimed)
	data = binary.AppendUvarint(data, claimed)
	data = append(data, make([]byte, claimed)...)
	r := telemetry.NewReader(bytes.NewReader(data), telemetry.TBIN)
	want, wantErr := r.ReadAll()
	r.Close()
	checkColumnBuild(t, data, want, wantErr)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := pipeline.Load{Workers: 2}.TBIN(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible record count") {
		t.Fatalf("err = %v, want an implausible-count refusal", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusal allocated %d bytes", alloc)
	}
}
