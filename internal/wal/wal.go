// Package wal is the collector's durable ingest log: a segmented
// write-ahead log of telemetry record batches with CRC-framed records,
// size/age-based segment rotation, a configurable fsync policy, and crash
// recovery that truncates torn tails and reports exactly what survived.
//
// Durability matters more here than in a generic message log because
// beacons lost to crashes or disk pressure are not missing at random:
// they cluster in overload episodes — exactly the high-latency tail the
// natural-experiment estimator needs — so silent loss biases the inferred
// preference curve. The WAL turns "process died mid-write" into "at most
// the torn tail of the active segment is lost, and the loss is measured".
//
// # On-disk layout
//
// A WAL directory holds numbered segment files seg-00000000.wal,
// seg-00000001.wal, … Each segment is:
//
//	header:  8-byte magic "ASWALv1\n", 1 format byte (telemetry.Format)
//	frames:  repeated [u32le payload len][u32le record count]
//	         [u32le CRC32-C of payload][payload]
//
// A frame's payload is one appended batch in the segment's telemetry
// encoding (JSONL lines or a self-contained TBIN stream). Frames are
// written with a single Write call and validated by CRC on recovery, so
// a frame is atomic: it is either fully readable or it is the torn tail.
//
// # Recovery invariants
//
//   - Open scans every segment and truncates each torn tail, so replay
//     after recovery never sees a partial frame.
//   - A crash loses at most the frames after the last intact frame of the
//     segment being written (with SyncBatch: at most the frame being
//     written when the process died).
//   - Acked data is never silently dropped: the recovery report counts
//     recovered records, lost records (when the torn frame's header
//     survived), and torn bytes, and exports them as autosens_wal_*.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"autosens/internal/obs"
	"autosens/internal/telemetry"
)

// Segment header: magic then one format byte.
var segMagic = [8]byte{'A', 'S', 'W', 'A', 'L', 'v', '1', '\n'}

const (
	segHeaderLen = len(segMagic) + 1
	frameHdrLen  = 12 // payload len + record count + CRC32-C
	// maxFramePayload is a sanity bound on one frame; a length field above
	// it means the header bytes are garbage (torn or corrupt).
	maxFramePayload = 64 << 20
)

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on amd64/arm64, the same one used by iSCSI and ext4).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy controls when appended frames are fsynced.
type SyncPolicy int

const (
	// SyncBatch fsyncs after every append: an acked batch survives any
	// crash. The slowest and safest policy.
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs at most every Options.SyncEvery: a crash loses
	// at most the last interval's acked batches. The throughput default.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS page cache decides. A crash
	// of the machine (not just the process) can lose buffered frames.
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy converts a -fsync flag value: "batch", "off", or a Go
// duration like "250ms" selecting interval syncing at that cadence.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "batch":
		return SyncBatch, 0, nil
	case "off":
		return SyncOff, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: fsync policy %q (want batch, off, or a positive duration)", s)
	}
	return SyncInterval, d, nil
}

// Options parameterizes Open. The zero value of every field except Dir is
// usable: JSONL payloads, 64 MiB segments, per-batch fsync, the real
// filesystem, and a private metrics registry.
type Options struct {
	// Dir is the WAL directory; created if absent. Required.
	Dir string
	// Format encodes frame payloads: telemetry.JSONL (default) or TBIN.
	Format telemetry.Format
	// SegmentMaxBytes rotates the active segment when it would exceed
	// this size. Default 64 MiB.
	SegmentMaxBytes int64
	// SegmentMaxAge rotates the active segment when it has been open this
	// long, bounding how stale a segment's contents can be. Zero disables
	// age rotation.
	SegmentMaxAge time.Duration
	// Sync selects the fsync policy. Default SyncBatch.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval cadence. Default 250ms.
	SyncEvery time.Duration
	// FS overrides the filesystem (fault-injection tests). Default OSFS.
	FS FS
	// Registry exports autosens_wal_* metrics; nil uses a private one.
	Registry *obs.Registry
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Dir == "" {
		return out, fmt.Errorf("wal: Dir is required")
	}
	if out.Format != telemetry.JSONL && out.Format != telemetry.TBIN {
		return out, fmt.Errorf("wal: unsupported payload format %v (want jsonl or tbin)", out.Format)
	}
	if out.SegmentMaxBytes == 0 {
		out.SegmentMaxBytes = 64 << 20
	}
	if out.SegmentMaxBytes < int64(segHeaderLen+frameHdrLen) {
		return out, fmt.Errorf("wal: SegmentMaxBytes %d too small", out.SegmentMaxBytes)
	}
	if out.SegmentMaxAge < 0 {
		return out, fmt.Errorf("wal: negative SegmentMaxAge")
	}
	if out.SyncEvery == 0 {
		out.SyncEvery = 250 * time.Millisecond
	}
	if out.SyncEvery < 0 {
		return out, fmt.Errorf("wal: negative SyncEvery")
	}
	if out.FS == nil {
		out.FS = OSFS()
	}
	if out.Registry == nil {
		out.Registry = obs.NewRegistry()
	}
	return out, nil
}

// walMetrics bundles the registry handles of the append path.
type walMetrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	records      *obs.Counter
	bytes        *obs.Counter
	fsyncs       *obs.Counter
	fsyncErrors  *obs.Counter
	segments     *obs.Counter
	recovered    *obs.Counter
	lost         *obs.Counter
	torn         *obs.Counter
	frameBytes   *obs.Histogram
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	return walMetrics{
		appends:      reg.Counter("autosens_wal_appends_total", "batches appended to the WAL"),
		appendErrors: reg.Counter("autosens_wal_append_errors_total", "appends that failed and forced a segment rotation"),
		records:      reg.Counter("autosens_wal_records_total", "records appended to the WAL"),
		bytes:        reg.Counter("autosens_wal_bytes_total", "frame bytes written, headers included"),
		fsyncs:       reg.Counter("autosens_wal_fsyncs_total", "fsync calls issued"),
		fsyncErrors:  reg.Counter("autosens_wal_fsync_errors_total", "fsync calls that failed"),
		segments:     reg.Counter("autosens_wal_segments_created_total", "segment files created"),
		recovered:    reg.Counter("autosens_wal_recovered_records_total", "records found intact by the startup scan"),
		lost:         reg.Counter("autosens_wal_lost_records_total", "records in torn frames whose header survived"),
		torn:         reg.Counter("autosens_wal_torn_bytes_total", "bytes truncated from torn segment tails"),
		frameBytes: reg.Histogram("autosens_wal_frame_bytes",
			"size of appended frames, header included", obs.DefBytesBuckets()),
	}
}

// Recovery reports what the startup scan found: how much of the previous
// incarnation's data survived, and what a crash tore off.
type Recovery struct {
	// Segments scanned (the segments that existed before Open).
	Segments int
	// RecordsRecovered counts records in intact frames.
	RecordsRecovered uint64
	// RecordsLost counts records in torn frames whose 12-byte frame
	// header was still readable; tails torn before the header contribute
	// only to TornBytes.
	RecordsLost uint64
	// TornBytes is the total size of the truncated torn tails.
	TornBytes uint64
	// TruncatedSegments names segments that had a torn tail removed
	// (including unreadable segments that were deleted outright).
	TruncatedSegments []string
	// ActiveSegment is the fresh segment new appends go to.
	ActiveSegment string
}

// WAL is a segmented write-ahead log of telemetry batches. Safe for
// concurrent use; appends are serialized.
type WAL struct {
	opts Options
	m    walMetrics

	mu     sync.Mutex
	f      File
	name   string // active segment file name
	size   int64
	opened time.Time
	seq    int
	broken bool // active segment took a write error; rotate before reuse
	closed bool

	scratch []byte                // frame assembly buffer
	tbin    telemetry.TBINEncoder // TBIN payload encoder, kept for its scratch

	activeBytes atomic.Int64
	dirty       atomic.Bool // frames written since the last fsync

	stopSync chan struct{}
	syncWG   sync.WaitGroup
}

// Open scans dir, truncates any torn tails, opens a fresh active segment,
// and returns the WAL with its recovery report. Previously written
// segments are never appended to again: recovered segments are immutable,
// which is what makes the truncate-once recovery sound.
func Open(opts Options) (*WAL, *Recovery, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
	}
	w := &WAL{opts: o, m: newWALMetrics(o.Registry), stopSync: make(chan struct{})}
	o.Registry.GaugeFunc("autosens_wal_active_segment_bytes",
		"bytes in the segment currently being appended to",
		func() float64 { return float64(w.activeBytes.Load()) })

	rec, lastSeq, err := recover_(o.FS, o.Dir)
	if err != nil {
		return nil, nil, err
	}
	w.seq = lastSeq + 1
	w.m.recovered.Add(rec.RecordsRecovered)
	w.m.lost.Add(rec.RecordsLost)
	w.m.torn.Add(rec.TornBytes)

	w.mu.Lock()
	err = w.openSegmentLocked()
	w.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	rec.ActiveSegment = w.name

	if o.Sync == SyncInterval {
		w.syncWG.Add(1)
		go w.syncLoop()
	}
	return w, rec, nil
}

// syncLoop is the SyncInterval background syncer.
func (w *WAL) syncLoop() {
	defer w.syncWG.Done()
	ticker := time.NewTicker(w.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if w.dirty.Swap(false) {
				_ = w.Sync() // failure is counted in fsync_errors
			}
		case <-w.stopSync:
			return
		}
	}
}

// segName formats the file name of segment i.
func segName(i int) string { return fmt.Sprintf("seg-%08d.wal", i) }

// openSegmentLocked rotates to a fresh segment: syncs and closes the
// active one, then creates the next in sequence and writes its header.
func (w *WAL) openSegmentLocked() error {
	if w.f != nil {
		w.syncLocked() // best effort; failure counted in fsync_errors
		_ = w.f.Close()
		w.f = nil
	}
	name := segName(w.seq)
	f, err := w.opts.FS.Create(join(w.opts.Dir, name))
	if err != nil {
		w.broken = true
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	hdr := append(append(make([]byte, 0, segHeaderLen), segMagic[:]...), byte(w.opts.Format))
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		w.broken = true
		return fmt.Errorf("wal: write segment header %s: %w", name, err)
	}
	w.seq++
	w.f = f
	w.name = name
	w.size = int64(segHeaderLen)
	w.opened = time.Now()
	w.broken = false
	w.activeBytes.Store(w.size)
	w.m.segments.Inc()
	return nil
}

// syncLocked fsyncs the active segment if the policy ever syncs.
func (w *WAL) syncLocked() {
	if w.f == nil || w.opts.Sync == SyncOff {
		return
	}
	w.m.fsyncs.Inc()
	if err := w.f.Sync(); err != nil {
		w.m.fsyncErrors.Inc()
	}
}

// Append encodes batch as one frame and writes it to the active segment,
// rotating first if the segment is full or old, and fsyncing per the
// policy. On error the active segment is abandoned (the torn frame is
// removed by the next recovery scan) and the next append rotates to a
// fresh segment, so a failed append never corrupts later ones. The
// records are validated; an invalid record fails the whole batch before
// any bytes are written.
func (w *WAL) Append(batch []telemetry.Record) error {
	if len(batch) == 0 {
		return nil
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	frame, err := w.encodeFrameLocked(batch)
	if err != nil {
		return err
	}
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if w.broken || w.f == nil ||
		(w.size > int64(segHeaderLen) && w.size+int64(len(frame)) > w.opts.SegmentMaxBytes) ||
		(w.opts.SegmentMaxAge > 0 && w.size > int64(segHeaderLen) && time.Since(w.opened) > w.opts.SegmentMaxAge) {
		if err := w.openSegmentLocked(); err != nil {
			w.m.appendErrors.Inc()
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		// The segment now ends in a torn frame. Abandon it: close the
		// file and force rotation, so nothing valid ever follows the
		// tear and recovery's truncate-at-first-bad-frame scan is exact.
		_ = w.f.Close()
		w.f = nil
		w.broken = true
		w.m.appendErrors.Inc()
		return fmt.Errorf("wal: append to %s: %w", w.name, err)
	}
	w.size += int64(len(frame))
	w.activeBytes.Store(w.size)

	switch w.opts.Sync {
	case SyncBatch:
		w.m.fsyncs.Inc()
		if err := w.f.Sync(); err != nil {
			w.m.fsyncErrors.Inc()
			// Durability of this frame is unknown; abandon the segment
			// like a failed write so the caller's retry lands on a fresh
			// one, and let recovery count what actually reached disk.
			_ = w.f.Close()
			w.f = nil
			w.broken = true
			w.m.appendErrors.Inc()
			return fmt.Errorf("wal: fsync %s: %w", w.name, err)
		}
	case SyncInterval:
		w.dirty.Store(true)
	}

	w.m.appends.Inc()
	w.m.records.Add(uint64(len(batch)))
	w.m.bytes.Add(uint64(len(frame)))
	w.m.frameBytes.Observe(float64(len(frame)))
	return nil
}

// encodeFrameLocked builds [header][payload] for batch in w.scratch, the
// payload encoded in place after the header. It validates every record
// first: the first invalid one fails the batch.
func (w *WAL) encodeFrameLocked(batch []telemetry.Record) ([]byte, error) {
	buf := append(w.scratch[:0], make([]byte, frameHdrLen)...)
	var err error
	switch w.opts.Format {
	case telemetry.TBIN:
		if buf, err = w.tbin.Append(buf, batch); err != nil {
			return nil, err
		}
	default: // JSONL
		for i := range batch {
			if err := batch[i].Validate(); err != nil {
				return nil, err
			}
		}
		for _, rec := range batch {
			if buf, err = telemetry.AppendRecordJSON(buf, rec); err != nil {
				return nil, err
			}
			buf = append(buf, '\n')
		}
	}
	payload := buf[frameHdrLen:]
	if len(payload) > maxFramePayload {
		return nil, fmt.Errorf("wal: frame payload %d bytes exceeds %d", len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(batch)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(payload, castagnoli))
	w.scratch = buf
	return buf, nil
}

// WriteBatch implements the collector's Sink: a frame is atomic, so a
// failed append persisted nothing that recovery will keep.
func (w *WAL) WriteBatch(batch []telemetry.Record) (int, error) {
	if err := w.Append(batch); err != nil {
		return 0, err
	}
	return len(batch), nil
}

// Sync fsyncs the active segment now, regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.m.fsyncs.Inc()
	if err := w.f.Sync(); err != nil {
		w.m.fsyncErrors.Inc()
		return err
	}
	return nil
}

// Rotate forces a segment rotation now (exposed for tests and tools).
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	return w.openSegmentLocked()
}

// ActiveSegment returns the file name new appends go to.
func (w *WAL) ActiveSegment() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.name
}

// Close syncs and closes the active segment. The WAL must not be used
// after Close.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stopSync)
	w.syncWG.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.opts.Sync != SyncOff {
		w.m.fsyncs.Inc()
		if err = w.f.Sync(); err != nil {
			w.m.fsyncErrors.Inc()
		}
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
