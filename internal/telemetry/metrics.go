package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"

	"autosens/internal/obs"
)

// Ingest metrics follow the core package's pattern: process wide (the
// codecs are constructed ad hoc all over the ingest path, so per-instance
// registries would fragment the numbers) and disabled until EnableMetrics
// is called, after which every Reader/Writer in the process reports into
// every registry enabled.

type ingestMetrics struct {
	decoded   obs.Counters
	encoded   obs.Counters
	fallbacks obs.Counters
	blocks    obs.Counters
}

var (
	ingestPtr  atomic.Pointer[ingestMetrics]
	ingestMu   sync.Mutex // serializes EnableMetrics
	ingestRegs []*obs.Registry
)

// EnableMetrics registers the ingest-path autosens_ingest_* metrics on reg
// and turns on reporting for every telemetry Reader and Writer in the
// process, into reg beside every registry enabled before it. Enabling a
// registry twice changes nothing.
func EnableMetrics(reg *obs.Registry) {
	ingestMu.Lock()
	defer ingestMu.Unlock()
	if slices.Contains(ingestRegs, reg) {
		return
	}
	ingestRegs = append(ingestRegs, reg)
	var m ingestMetrics
	if old := ingestPtr.Load(); old != nil {
		m = *old
	}
	// Clip, so that no reader's slice shares the array appended to.
	m.decoded = append(slices.Clip(m.decoded), reg.Counter("autosens_ingest_records_decoded_total",
		"records decoded from any telemetry format"))
	m.encoded = append(slices.Clip(m.encoded), reg.Counter("autosens_ingest_records_encoded_total",
		"records encoded to any telemetry format"))
	m.fallbacks = append(slices.Clip(m.fallbacks), reg.Counter("autosens_ingest_jsonl_fallbacks_total",
		"JSONL lines that left the zero-allocation fast path for encoding/json"))
	m.blocks = append(slices.Clip(m.blocks), reg.Counter("autosens_ingest_tbin_blocks_total",
		"TBIN blocks framed and written"))
	ingestPtr.Store(&m)
}

func observeDecoded(n int) {
	if m := ingestPtr.Load(); m != nil {
		m.decoded.Add(uint64(n))
	}
}

func observeEncoded(n int) {
	if m := ingestPtr.Load(); m != nil {
		m.encoded.Add(uint64(n))
	}
}

func observeJSONLFallback() {
	if m := ingestPtr.Load(); m != nil {
		m.fallbacks.Inc()
	}
}

func observeTBINBlock() {
	if m := ingestPtr.Load(); m != nil {
		m.blocks.Inc()
	}
}
