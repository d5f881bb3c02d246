package live

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"autosens/internal/obs"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// TestMetricsExposition is the exposition golden for autosens_live_*: the
// full set of series names and types is pinned, known windowed traffic
// — one first-seen window, promoted on its second recompute, resumed on its
// third — must read back through the autosens_live_window_* series, and
// two normalized recomputes through autosens_live_normalized_*.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(Config{Options: testOptions(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	stream := telemetry.Successful(genStream(31, 3000, 2*timeutil.MillisPerDay))
	e.Append(stream[:2990])
	win := Window{From: timeutil.MillisPerDay / 2}
	for i := 0; i < 3; i++ {
		e.Append(stream[2990+i : 2991+i])
		if _, err := e.QueryWindow(AllSlices, ModePlain, false, win); err != nil {
			t.Fatal(err)
		}
	}
	// Normalized: the first recompute draws every retained slot's table,
	// the second (one more record, inside the window) re-sweeps its slot.
	for i := 3; i < 5; i++ {
		e.Append(stream[2990+i : 2991+i])
		if _, err := e.Query(AllSlices, ModeNormalized, false); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var types []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE autosens_live_") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	want := []string{
		"autosens_live_cache_hits_total counter",
		"autosens_live_cache_misses_total counter",
		"autosens_live_cached_curves gauge",
		"autosens_live_delta_records counter",
		"autosens_live_epoch gauge",
		"autosens_live_normalized_slots_fallback_total counter",
		"autosens_live_normalized_slots_regenerated_total counter",
		"autosens_live_normalized_slots_reswept_total counter",
		"autosens_live_normalized_slots_reused_total counter",
		"autosens_live_normalized_table_bytes gauge",
		"autosens_live_queries_total counter",
		"autosens_live_query_duration_seconds histogram",
		"autosens_live_recompute_dirty_combos counter",
		"autosens_live_recompute_dirty_shards histogram",
		"autosens_live_recompute_duration_seconds histogram",
		"autosens_live_records_skipped gauge",
		"autosens_live_records_total counter",
		"autosens_live_shards gauge",
		"autosens_live_store_bytes gauge",
		"autosens_live_store_records gauge",
		"autosens_live_window_recomputes_delta gauge",
		"autosens_live_window_recomputes_seeded gauge",
		"autosens_live_window_recomputes_stateless gauge",
		"autosens_live_window_scratch_pool_bytes gauge",
		"autosens_live_window_state_bytes gauge",
		"autosens_live_window_states gauge",
	}
	if got := strings.Join(types, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("autosens_live_* series:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	for _, sample := range []string{
		"autosens_live_window_recomputes_stateless 1",
		"autosens_live_window_recomputes_seeded 1",
		"autosens_live_window_recomputes_delta 1",
		"autosens_live_window_states 1",
		"autosens_live_queries_total 5",
		"autosens_live_normalized_slots_fallback_total 0",
	} {
		if !strings.Contains(text, sample+"\n") {
			t.Fatalf("scrape missing %q:\n%s", sample, text)
		}
	}
	st := e.LiveStats()
	if st.WindowStateBytes <= 0 || st.ScratchPoolBytes <= 0 {
		t.Fatalf("retained bytes not reported: %+v", st)
	}
	if !strings.Contains(text, "autosens_live_window_state_bytes "+strconv.FormatFloat(float64(st.WindowStateBytes), 'g', -1, 64)+"\n") {
		t.Fatalf("window_state_bytes disagrees with /v1/status (%d):\n%s", st.WindowStateBytes, text)
	}
	slots := st.NormalizedRegenerated
	if st.NormalizedRecomputes != 2 || slots < 24 || st.NormalizedReused != slots-1 ||
		st.NormalizedReswept != 1 || st.NormalizedTableBytes <= 0 {
		t.Fatalf("normalized slot paths not reported: %+v", st)
	}
	for name, v := range map[string]uint64{
		"slots_regenerated_total": st.NormalizedRegenerated,
		"slots_reused_total":      st.NormalizedReused,
		"table_bytes":             uint64(st.NormalizedTableBytes),
	} {
		if !strings.Contains(text, "autosens_live_normalized_"+name+" "+strconv.FormatUint(v, 10)+"\n") {
			t.Fatalf("normalized_%s disagrees with /v1/status (%d):\n%s", name, v, text)
		}
	}
}
