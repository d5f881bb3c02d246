// Package api is the versioned wire contract of the beacon collector:
// endpoint paths, request/response bodies, and the single typed error
// schema every 4xx/5xx response uses. It is imported by both ends — the
// server renders these types, the client decodes them — and by nothing
// else in the estimator, so the collector's HTTP surface can evolve
// without touching analysis code.
//
// # Endpoints (v1)
//
//	POST /v1/beacons   ingest one batch of records (JSON array or TBIN)
//	GET  /v1/status    operational snapshot: queue, counters, WAL recovery
//	GET  /v1/formats   the wire encodings this server accepts
//
// # Error schema
//
// Every non-2xx response from a /v1 endpoint carries
//
//	{"error":{"code":"queue_full","message":"...","retry_after_ms":500}}
//
// with Content-Type application/json. Codes are stable identifiers for
// programmatic handling; messages are human-readable and may change.
// retry_after_ms is present only on shed-load responses (429, 503) where
// the server advises when to retry; the Retry-After header carries the
// same advice rounded up to whole seconds for generic HTTP clients.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Endpoint paths. PathBeacons accepts POST only; the others accept GET.
const (
	PathBeacons = "/v1/beacons"
	PathStatus  = "/v1/status"
	PathFormats = "/v1/formats"
	// PathCurves serves live NLP curves (GET, query params slice=, mode=,
	// ci=). Mounted only when the server runs a live query engine; servers
	// without one answer 404 CodeNotFound here.
	PathCurves = "/v1/curves"
	// PathAlerts serves the sensitivity-ops alert set (GET, optional
	// state= filter). Mounted only when the server runs a watcher; servers
	// without one answer 404 CodeNotFound here.
	PathAlerts = "/v1/alerts"
	// PathReport serves the per-slice sensitivity report (GET, format=
	// json or html). Mounted only when the server runs a watcher.
	PathReport = "/v1/report"
	// PathBlocks serves the cold tier's block manifest listing (GET).
	// Mounted only when the server runs a tiered store; servers without
	// one answer 404 CodeNotFound here.
	PathBlocks = "/v1/blocks"
)

// Error codes. These are the stable, programmatic half of the error
// schema; clients switch on Code, never on Message.
const (
	// CodeBadRequest: the body was structurally invalid for the declared
	// content type (malformed JSON, corrupt TBIN, trailing garbage).
	CodeBadRequest = "bad_request"
	// CodeTooLarge: the body exceeded the byte or record limit.
	CodeTooLarge = "too_large"
	// CodeQueueFull: the ingest queue is full; the batch was NOT accepted
	// and should be retried after RetryAfterMS.
	CodeQueueFull = "queue_full"
	// CodeSinkUnavailable: the durable sink rejected the write; the batch
	// may be partially persisted and should be retried.
	CodeSinkUnavailable = "sink_unavailable"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: unknown /v1 path.
	CodeNotFound = "not_found"
	// CodeEstimateFailed: the live engine failed to estimate a curve for
	// the slice for a reason other than thin input (see
	// CodeUnderIdentified).
	CodeEstimateFailed = "estimate_failed"
	// CodeUnderIdentified: the slice's records cannot identify the
	// estimate asked for — no hourly slot holds enough actions or no
	// reference slot is usable (normalized), no latency bin gathers enough
	// unbiased draws (plain), the window is shorter than two bootstrap
	// blocks or too few replicates could be estimated (ci=1). The request is
	// well-formed and the server healthy; ask again over a longer window or
	// once more data arrived.
	CodeUnderIdentified = "under_identified"
	// CodeInvalidWindow: the window/at query parameters were malformed —
	// an unparseable or non-positive window duration, an unparseable at
	// timestamp, or at without window.
	CodeInvalidWindow = "invalid_window"
	// CodeWindowExceedsRetention: the requested window is longer than the
	// server's configured cold-tier retention, so part of it can never be
	// served. Shorten the window (or raise -retention on the server).
	CodeWindowExceedsRetention = "window_exceeds_retention"
)

// Error is the typed error payload. It implements error so the client can
// return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS advises when to retry, in milliseconds; zero means the
	// server gave no advice (omitted on the wire).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// HTTPStatus is the status code the error arrived with. Not part of
	// the wire body (the status line carries it); filled by ReadError.
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.HTTPStatus != 0 {
		return fmt.Sprintf("collector: %s (%d): %s", e.Code, e.HTTPStatus, e.Message)
	}
	return fmt.Sprintf("collector: %s: %s", e.Code, e.Message)
}

// ErrorResponse is the envelope every non-2xx /v1 response body uses.
type ErrorResponse struct {
	Err Error `json:"error"`
}

// BatchResponse is the body of a 202 from POST /v1/beacons.
type BatchResponse struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// FormatInfo describes one accepted wire encoding.
type FormatInfo struct {
	Name        string `json:"name"`
	ContentType string `json:"content_type"`
}

// FormatsResponse is the body of GET /v1/formats.
type FormatsResponse struct {
	Formats []FormatInfo `json:"formats"`
}

// CurvesResponse is the body of a 200 from GET /v1/curves. Curve and CI
// are raw JSON so this contract package does not depend on the estimator:
// Curve is a core.Curve (bin_centers/nlp/valid/…) and CI, present only
// when ci=1 was requested, carries {lower, upper, replicates} with null
// for unsupported bins.
type CurvesResponse struct {
	// Slice is the canonical slice key the server answered for.
	Slice string `json:"slice"`
	// Mode is the estimator used: "plain" or "normalized".
	Mode string `json:"mode"`
	// Epoch is the recompute that produced the curve; unchanged epoch
	// across two responses means the same cached curve answered both.
	Epoch uint64 `json:"epoch"`
	// Version is the slice's ingest version the curve reflects.
	Version uint64 `json:"version"`
	// Records is the number of usable records behind the curve.
	Records int `json:"records"`
	// Cached reports whether the response was served from the epoch cache.
	Cached bool `json:"cached"`
	// Curve is the point estimate (core.Curve JSON).
	Curve json.RawMessage `json:"curve"`
	// CI is the bootstrap bounds payload, when requested.
	CI json.RawMessage `json:"ci,omitempty"`
	// WindowMS / WindowFromMS / WindowToMS echo the EFFECTIVE half-open
	// record-time window [from, to) a windowed query was answered over,
	// after any clamping to the oldest retained data — so a client always
	// sees the span its curve actually covers. All zero (and absent on the
	// wire) for unwindowed queries, keeping no-param responses byte-
	// identical to the pre-windowing contract.
	WindowMS     int64 `json:"window_ms,omitempty"`
	WindowFromMS int64 `json:"window_from_ms,omitempty"`
	WindowToMS   int64 `json:"window_to_ms,omitempty"`
}

// Alert states, in lifecycle order. A condition first observed is
// pending; observed for enough consecutive watcher ticks it becomes
// firing; once the condition clears for enough ticks the alert resolves
// and is retained for a while so operators see what just happened.
const (
	AlertPending  = "pending"
	AlertFiring   = "firing"
	AlertResolved = "resolved"
)

// Alert types.
const (
	// AlertNLPDrift: a slice's rolling-window NLP series moved away from
	// its own baseline by more than the CI-aware threshold — the planted
	// sensitivity of the population changed, not just the latency.
	AlertNLPDrift = "nlp_drift"
	// AlertLatencyIncident: a correlated latency regression — many user
	// shards slowed together, which is one service incident rather than
	// many independent user anomalies.
	AlertLatencyIncident = "latency_incident"
	// AlertShardLatency: an isolated shard-level latency regression that
	// did NOT clear the correlation bar — a localized anomaly (one user
	// cohort, one network) rather than a service incident.
	AlertShardLatency = "shard_latency"
)

// Alert severities.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Alert is one sensitivity-ops alert in the typed v1 schema. ID is the
// dedupe key: the same condition observed across many ticks is one alert
// whose state advances, never a new alert per tick.
type Alert struct {
	// ID is the stable dedupe key, e.g. "nlp_drift:all:p1000".
	ID string `json:"id"`
	// Type is one of the Alert* type constants.
	Type string `json:"type"`
	// Slice is the canonical slice key the alert is about.
	Slice string `json:"slice"`
	// Severity is "warning" or "critical".
	Severity string `json:"severity"`
	// State is "pending", "firing" or "resolved".
	State string `json:"state"`
	// Value is the detector's observed statistic (NLP deviation, latency
	// ratio) at the last tick that saw the condition.
	Value float64 `json:"value"`
	// Threshold is the bar Value cleared when the alert was raised.
	Threshold float64 `json:"threshold"`
	// Message is a human-readable description; not stable, do not parse.
	Message string `json:"message"`
	// DataTime is the record-stream timestamp (telemetry clock, ms) the
	// detection was made at — the max record time the detector saw.
	DataTime int64 `json:"data_time_ms"`
	// FirstSeenTick/LastSeenTick/FiringTick/ResolvedTick are watcher tick
	// numbers: detection is driven by data arrival, so lifecycle history
	// is recorded in ticks (deterministic), not wall clock.
	FirstSeenTick uint64 `json:"first_seen_tick"`
	LastSeenTick  uint64 `json:"last_seen_tick"`
	FiringTick    uint64 `json:"firing_tick,omitempty"`
	ResolvedTick  uint64 `json:"resolved_tick,omitempty"`
}

// AlertsResponse is the body of GET /v1/alerts.
type AlertsResponse struct {
	// Tick is the watcher tick the response reflects.
	Tick uint64 `json:"tick"`
	// Pending/Firing/Resolved count alerts by state (before any filter).
	Pending  int `json:"pending"`
	Firing   int `json:"firing"`
	Resolved int `json:"resolved"`
	// Alerts is the retained alert set, firing first, then pending, then
	// resolved, newest first within a state. With ?state= only matching
	// alerts are listed (the counts above stay global).
	Alerts []Alert `json:"alerts"`
}

// LiveStats is the live query engine's operational snapshot, embedded in
// GET /v1/status when the server runs one.
type LiveStats struct {
	Shards       int    `json:"shards"`
	Records      int    `json:"records"`
	StoreBytes   int    `json:"store_bytes"`
	Epoch        uint64 `json:"epoch"`
	Queries      uint64 `json:"queries_total"`
	CacheHits    uint64 `json:"cache_hits_total"`
	CacheMisses  uint64 `json:"cache_misses_total"`
	CachedCurves int    `json:"cached_curves"`
	// DirtyCombos counts combo recomputes run by dirty queries;
	// DeltaRecords counts the store records they delta-folded into combo
	// estimation state (a recompute's cost scales with its share of these,
	// not with the store size).
	DirtyCombos  uint64 `json:"recompute_dirty_combos"`
	DeltaRecords uint64 `json:"delta_records"`
	// Windowed recomputes by the estimator path that answered: stateless
	// (first-seen window, estimated from a view, nothing retained), seeded
	// (repeated window, delta-maintained state built) and delta (state
	// resumed, only new records folded). WindowStates / WindowStateBytes
	// are the states retained and the bytes they hold; ScratchPoolBytes is
	// what the idle recompute scratch retains.
	WindowStateless  uint64 `json:"window_stateless_total,omitempty"`
	WindowSeeded     uint64 `json:"window_seeded_total,omitempty"`
	WindowDelta      uint64 `json:"window_delta_total,omitempty"`
	WindowStates     int    `json:"window_states,omitempty"`
	WindowStateBytes int    `json:"window_state_bytes,omitempty"`
	ScratchPoolBytes int    `json:"scratch_pool_bytes,omitempty"`
	// Delta-maintained mode=normalized recomputes, and the retained hourly
	// slots they went over by what each slot cost: reused (keys and
	// adoptions kept; at most re-filtered for a new draw quota), reswept
	// (the slot received records: keys kept, adoptions redone), regenerated
	// (keys redrawn and sorted: the slot's bounds or stream index moved, or
	// its quota outgrew the table) and fallback (no table possible; filled
	// by the batch kernel). NormalizedTableBytes is what the draw tables
	// retain.
	NormalizedRecomputes  uint64 `json:"normalized_recomputes_total,omitempty"`
	NormalizedReused      uint64 `json:"normalized_slots_reused_total,omitempty"`
	NormalizedReswept     uint64 `json:"normalized_slots_reswept_total,omitempty"`
	NormalizedRegenerated uint64 `json:"normalized_slots_regenerated_total,omitempty"`
	NormalizedFallback    uint64 `json:"normalized_slots_fallback_total,omitempty"`
	NormalizedTableBytes  int    `json:"normalized_table_bytes,omitempty"`
}

// WatchStats is the watcher's operational snapshot, embedded in GET
// /v1/status when the server runs one.
type WatchStats struct {
	Ticks        uint64 `json:"ticks"`
	Slices       int    `json:"slices"`
	Recomputes   uint64 `json:"slice_recomputes_total"`
	Skips        uint64 `json:"slice_skips_total"`
	AlertsRaised uint64 `json:"alerts_raised_total"`
	Pending      int    `json:"alerts_pending"`
	Firing       int    `json:"alerts_firing"`
	Resolved     int    `json:"alerts_resolved"`
}

// BlockInfo is one cold-tier block's manifest entry as listed by GET
// /v1/blocks: identity, extent, and the zone maps the scanner prunes on.
type BlockInfo struct {
	// ID is the block's stable identifier; File is its file name inside
	// the cold directory.
	ID   uint64 `json:"id"`
	File string `json:"file"`
	// Records is the number of stored (usable) records; Bytes the file
	// size on disk.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// MinTimeMS/MaxTimeMS, MinUser/MaxUser and MinSeq/MaxSeq are the
	// block's zone maps: closed ranges over record time, user ID and ack
	// sequence number.
	MinTimeMS int64  `json:"min_time_ms"`
	MaxTimeMS int64  `json:"max_time_ms"`
	MinUser   uint64 `json:"min_user"`
	MaxUser   uint64 `json:"max_user"`
	MinSeq    uint64 `json:"min_seq"`
	MaxSeq    uint64 `json:"max_seq"`
	// Actions and UserTypes are presence bitmasks (bit i set ⇔ the block
	// holds at least one record with that enum value).
	Actions   uint32 `json:"actions_mask"`
	UserTypes uint32 `json:"user_types_mask"`
}

// BlocksResponse is the body of GET /v1/blocks: the installed manifest's
// block listing, oldest first.
type BlocksResponse struct {
	// NextSeq is the ack sequence number compaction has folded the WAL
	// through; CompactedThrough the highest folded segment index (-1 when
	// nothing has been compacted yet).
	NextSeq          uint64 `json:"next_seq"`
	CompactedThrough int    `json:"compacted_through"`
	// CutoverSeq is the hot/cold watermark this process serves at: cold
	// reads include only blocks entirely below it.
	CutoverSeq uint64 `json:"cutover_seq"`
	// ScannedBlocks / PrunedBlocks / CacheHits / CacheMisses are the scan
	// counters (also in /v1/status), listed here so a prune-rate or
	// cache-rate regression is visible next to the zone maps causing it.
	ScannedBlocks uint64      `json:"scanned_blocks_total"`
	PrunedBlocks  uint64      `json:"pruned_blocks_total"`
	CacheHits     uint64      `json:"cache_hits_total"`
	CacheMisses   uint64      `json:"cache_misses_total"`
	Blocks        []BlockInfo `json:"blocks"`
}

// CacheStats snapshots the decoded-block cache for /v1/status; a nil
// pointer in StorageStats means the cache is disabled.
type CacheStats struct {
	// Bytes / MaxBytes are the decoded footprint and its configured bound;
	// Entries the number of blocks held.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	Entries  int   `json:"entries"`
	// Hits / Misses / Evictions are cumulative since process start.
	Hits      uint64 `json:"hits_total"`
	Misses    uint64 `json:"misses_total"`
	Evictions uint64 `json:"evictions_total"`
}

// StorageStats is the tiered store's operational snapshot, embedded in
// GET /v1/status as the "storage" block when the server runs one.
type StorageStats struct {
	// HotBytes is the live engine's in-memory store footprint; ColdBytes
	// the cold tier's on-disk block bytes.
	HotBytes  int   `json:"hot_bytes"`
	ColdBytes int64 `json:"cold_bytes"`
	// Blocks and ColdRecords size the installed manifest.
	Blocks      int `json:"blocks"`
	ColdRecords int `json:"cold_records"`
	// OldestRetainedMS is the oldest record time the cold tier still
	// holds (0 when it holds nothing).
	OldestRetainedMS int64 `json:"oldest_retained_ms,omitempty"`
	// LastCompactionMS is the wall-clock unix-millis stamp of the last
	// manifest install (0 before the first one this incarnation).
	LastCompactionMS int64 `json:"last_compaction_ms,omitempty"`
	// Compactions counts manifest installs this incarnation.
	Compactions uint64 `json:"compactions_total"`
	// NextSeq / CompactedThrough mirror the manifest (see BlocksResponse).
	NextSeq          uint64 `json:"next_seq"`
	CompactedThrough int    `json:"compacted_through"`
	// ScannedBlocks / PrunedBlocks count cold-scan zone-map decisions:
	// candidate blocks considered and the subset skipped without a read.
	ScannedBlocks uint64 `json:"scanned_blocks_total"`
	PrunedBlocks  uint64 `json:"pruned_blocks_total"`
	// CorruptBlocks counts block reads a scan skipped because the file
	// failed validation; Quarantined names those files so an operator can
	// move them aside and re-fold the window from the WAL or a peer.
	CorruptBlocks uint64   `json:"corrupt_blocks_total,omitempty"`
	Quarantined   []string `json:"quarantined,omitempty"`
	// Cache is the decoded-block cache snapshot (nil when disabled).
	Cache *CacheStats `json:"cache,omitempty"`
}

// RecoveryReport mirrors the WAL's startup scan for GET /v1/status: what
// survived the previous incarnation and what a crash tore off.
type RecoveryReport struct {
	// Segments scanned on startup (not counting the fresh active one).
	Segments int `json:"segments"`
	// RecordsRecovered is the number of records in intact frames.
	RecordsRecovered uint64 `json:"records_recovered"`
	// RecordsLost counts records in torn frames whose frame header was
	// still readable; bytes torn off before a header are only in TornBytes.
	RecordsLost uint64 `json:"records_lost"`
	// TornBytes is the total size of truncated torn tails.
	TornBytes uint64 `json:"torn_bytes"`
	// TruncatedSegments names the segments that had a torn tail removed.
	TruncatedSegments []string `json:"truncated_segments,omitempty"`
	// ActiveSegment is the segment new appends go to.
	ActiveSegment string `json:"active_segment"`
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	Status          string          `json:"status"` // "ok" or "degraded"
	UptimeSeconds   float64         `json:"uptime_seconds"`
	Sink            string          `json:"sink"` // "file" or "wal"
	QueueDepth      int             `json:"queue_depth"`
	QueueLength     int             `json:"queue_length"`
	Batches         uint64          `json:"batches_total"`
	RecordsAccepted uint64          `json:"records_accepted_total"`
	RecordsRejected uint64          `json:"records_rejected_total"`
	BatchesShed     uint64          `json:"batches_shed_total"`
	SinkFailures    uint64          `json:"sink_failures_total"`
	LastSinkError   string          `json:"last_sink_error,omitempty"`
	Recovery        *RecoveryReport `json:"recovery,omitempty"`
	// Live is the query engine's snapshot, when the server runs one.
	Live *LiveStats `json:"live,omitempty"`
	// Watch is the sensitivity watcher's snapshot, when the server runs
	// one.
	Watch *WatchStats `json:"watch,omitempty"`
	// Storage is the tiered store's snapshot, when the server runs one.
	Storage *StorageStats `json:"storage,omitempty"`
}

// WriteError renders err as the typed schema with the given HTTP status.
// A positive retryAfter also sets the Retry-After header, rounded up to
// whole seconds as RFC 9110 requires.
func WriteError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	body := ErrorResponse{Err: Error{Code: code, Message: message}}
	if retryAfter > 0 {
		body.Err.RetryAfterMS = retryAfter.Milliseconds()
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// maxErrorBody bounds how much of an error response body ReadError reads.
const maxErrorBody = 16 << 10

// ReadError decodes the typed error from a non-2xx response. Bodies that
// are not the v1 schema (a proxy's HTML 502, a plain-text error from an
// old server) degrade to CodeBadRequest/CodeSinkUnavailable classified by
// status, so callers can always rely on Code.
func ReadError(resp *http.Response) *Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err == nil && er.Err.Code != "" {
		er.Err.HTTPStatus = resp.StatusCode
		if er.Err.RetryAfterMS == 0 {
			er.Err.RetryAfterMS = retryAfterHeaderMS(resp)
		}
		return &er.Err
	}
	e := &Error{HTTPStatus: resp.StatusCode, Message: http.StatusText(resp.StatusCode)}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		e.Code = CodeQueueFull
	case resp.StatusCode >= 500:
		e.Code = CodeSinkUnavailable
	case resp.StatusCode == http.StatusRequestEntityTooLarge:
		e.Code = CodeTooLarge
	default:
		e.Code = CodeBadRequest
	}
	e.RetryAfterMS = retryAfterHeaderMS(resp)
	return e
}

// retryAfterHeaderMS parses a delay-seconds Retry-After header; HTTP-date
// forms and garbage return 0 (no advice).
func retryAfterHeaderMS(resp *http.Response) int64 {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return secs * 1000
}
