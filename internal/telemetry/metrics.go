package telemetry

import (
	"sync/atomic"

	"autosens/internal/obs"
)

// Ingest metrics follow the core package's pattern: package-scoped (the
// codecs are constructed ad hoc all over the ingest path, so per-instance
// registries would fragment the numbers) and disabled until EnableMetrics
// is called, after which every Reader/Writer in the process reports.

type ingestMetrics struct {
	decoded   *obs.Counter
	encoded   *obs.Counter
	fallbacks *obs.Counter
	blocks    *obs.Counter
}

var ingestPtr atomic.Pointer[ingestMetrics]

// EnableMetrics registers the ingest-path autosens_ingest_* metrics on reg
// and turns on reporting for every telemetry Reader and Writer in the
// process. Call once at startup.
func EnableMetrics(reg *obs.Registry) {
	m := &ingestMetrics{
		decoded: reg.Counter("autosens_ingest_records_decoded_total",
			"records decoded from any telemetry format"),
		encoded: reg.Counter("autosens_ingest_records_encoded_total",
			"records encoded to any telemetry format"),
		fallbacks: reg.Counter("autosens_ingest_jsonl_fallbacks_total",
			"JSONL lines that left the zero-allocation fast path for encoding/json"),
		blocks: reg.Counter("autosens_ingest_tbin_blocks_total",
			"TBIN blocks framed and written"),
	}
	ingestPtr.Store(m)
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
