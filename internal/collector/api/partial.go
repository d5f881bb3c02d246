package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"autosens/internal/colcodec"
	"autosens/internal/histogram"
	"autosens/internal/timeutil"
)

// PathPartials serves one slice's mergeable curve partial (GET, query
// params slice=, versions=). Mounted only when the server runs a live
// query engine in cluster mode; the body is the binary form below unless
// versions=1, which answers with a small JSON {slice, version} document
// for cheap staleness polls.
const PathPartials = "/v1/partials"

// ContentTypePartial is the media type of the binary partial encoding.
const ContentTypePartial = "application/x-autosens-partial"

// Partial is one node's mergeable contribution to a slice curve: the
// node's matching records as (time, seq)-sorted parallel columns, their
// biased latency histogram, and the node-local slice version the columns
// reflect. Any subset of partials with compatible histogram binning can
// be k-way merged and finished into a curve exactly once — the
// scatter-gather primitive behind distributed /v1/curves.
//
// Version is stamped by the producing node BEFORE it gathers the columns,
// so like every version in the system it can only understate: a
// coordinator that caches a curve under the per-node version vector it
// merged recomputes as soon as any node's polled version moves past the
// cached one, never serves a curve newer than its stamp claims.
type Partial struct {
	// Version is the producing node's slice version (monotone count of
	// matching appends on that node), stamped before gathering.
	Version uint64
	// Times, Lats and Seqs are the matching records as parallel columns
	// sorted by (time, seq). Seqs carry the producing node's global ack
	// sequence numbers, which break time ties in ack order.
	Times []timeutil.Millis
	Lats  []float64
	Seqs  []uint64
	// Hist is the biased latency histogram over Lats (weight-1 adds, so
	// summing per-node histograms is bit-identical to a global build).
	// May be nil, in which case consumers rebuild it from Lats.
	Hist *histogram.Histogram
	// Windowed marks a partial restricted to the half-open time window
	// [WindowFrom, WindowTo); WindowTo == 0 means unbounded above. An
	// unwindowed partial (Windowed false) encodes as wire version 1,
	// byte-identical to pre-window builds; a windowed one as version 2.
	// Partials merge correctly only across identical windows — the
	// coordinator keys its cache on the window, so mixing cannot happen.
	Windowed   bool
	WindowFrom timeutil.Millis
	WindowTo   timeutil.Millis
}

// Len returns the number of records the partial carries.
func (p *Partial) Len() int { return len(p.Times) }

// Partial wire form, version 1 (the columns are defined once, in package
// colcodec):
//
//	magic "ASPA" + 1 version byte
//	u64le  slice version
//	if version 2: zigzag-varint window from, zigzag-varint window to
//	    (half-open [from, to) in unix millis; to == 0 means unbounded)
//	uvarint record count n
//	n times      colcodec delta column
//	n latencies  colcodec float column
//	n seqs       colcodec delta column
//	1 byte histogram flag
//	if 1: f64le min, f64le max, f64le width, uvarint bin count,
//	      bins × f64le counts
//
// The column sort order and the histogram's validity (constructible
// binning, finite non-negative counts, bin count matching the binning)
// are part of the format: DecodePartial rejects bodies that violate them,
// so a decoded partial is always safe to merge.
var partialMagic = [4]byte{'A', 'S', 'P', 'A'}

const (
	partialVersion = 1
	// partialVersionWindowed adds the window bounds after the slice
	// version; everything else is identical to version 1.
	partialVersionWindowed = 2
)

// maxPartialBins is a sanity bound on the encoded bin count; a value
// above it means the header bytes are garbage.
const maxPartialBins = 1 << 20

// ErrPartialCorrupt is wrapped by every DecodePartial failure.
var ErrPartialCorrupt = errors.New("api: corrupt partial")

// AppendPartial appends p's versioned binary encoding to dst.
func AppendPartial(dst []byte, p *Partial) []byte {
	dst = append(dst, partialMagic[:]...)
	if p.Windowed {
		dst = append(dst, partialVersionWindowed)
	} else {
		dst = append(dst, partialVersion)
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.Version)
	if p.Windowed {
		dst = binary.AppendVarint(dst, int64(p.WindowFrom))
		dst = binary.AppendVarint(dst, int64(p.WindowTo))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Times)))
	dst = colcodec.AppendDeltas(dst, p.Times)
	dst = colcodec.AppendFloats(dst, p.Lats)
	dst = colcodec.AppendDeltas(dst, p.Seqs)
	if p.Hist == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Hist.Min()))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Hist.Max()))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Hist.Width()))
	dst = binary.AppendUvarint(dst, uint64(p.Hist.Bins()))
	for i := 0; i < p.Hist.Bins(); i++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Hist.Count(i)))
	}
	return dst
}

// partialReader is a bounds-checked cursor over an encoded partial.
type partialReader struct {
	data []byte
	off  int
}

func (r *partialReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated at byte %d", ErrPartialCorrupt, r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *partialReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *partialReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// advance moves the cursor past a column a colcodec decoder read.
func (r *partialReader) advance(n int, err error) error {
	r.off += n
	return err
}

// uvarint and varint accept only the minimal encoding (no zero-padded
// final group): the format has exactly one encoding per value, as in the
// colcodec columns.
func (r *partialReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		return 0, fmt.Errorf("%w: bad uvarint at byte %d", ErrPartialCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

func (r *partialReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 || (n > 1 && r.data[r.off+n-1] == 0) {
		return 0, fmt.Errorf("%w: bad varint at byte %d", ErrPartialCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// DecodePartial parses one encoded partial, validating every format
// invariant (see the wire-form comment). The returned partial owns its
// storage; data is not retained.
func DecodePartial(data []byte) (*Partial, error) {
	r := &partialReader{data: data}
	magic, err := r.bytes(len(partialMagic) + 1)
	if err != nil {
		return nil, err
	}
	if [4]byte(magic[:4]) != partialMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrPartialCorrupt)
	}
	if magic[4] != partialVersion && magic[4] != partialVersionWindowed {
		return nil, fmt.Errorf("%w: unsupported wire version %d", ErrPartialCorrupt, magic[4])
	}
	p := &Partial{}
	if p.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if magic[4] == partialVersionWindowed {
		p.Windowed = true
		from, err := r.varint()
		if err != nil {
			return nil, err
		}
		to, err := r.varint()
		if err != nil {
			return nil, err
		}
		if to != 0 && to <= from {
			return nil, fmt.Errorf("%w: empty window [%d, %d)", ErrPartialCorrupt, from, to)
		}
		p.WindowFrom = timeutil.Millis(from)
		p.WindowTo = timeutil.Millis(to)
	}
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each record costs at least 1+8+1 encoded bytes; reject counts the
	// remaining body cannot possibly hold before allocating columns.
	if n64 > uint64(len(data)-r.off)/10+1 {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrPartialCorrupt, n64)
	}
	n := int(n64)
	p.Times = make([]timeutil.Millis, n)
	p.Lats = make([]float64, n)
	p.Seqs = make([]uint64, n)
	if err := r.advance(colcodec.Deltas(p.Times, data[r.off:])); err != nil {
		return nil, fmt.Errorf("%w: time column: %w", ErrPartialCorrupt, err)
	}
	if err := r.advance(colcodec.Floats(p.Lats, data[r.off:])); err != nil {
		return nil, fmt.Errorf("%w: latency column: %w", ErrPartialCorrupt, err)
	}
	if err := r.advance(colcodec.Deltas(p.Seqs, data[r.off:])); err != nil {
		return nil, fmt.Errorf("%w: seq column: %w", ErrPartialCorrupt, err)
	}
	for i := 1; i < n; i++ {
		if p.Times[i] < p.Times[i-1] ||
			(p.Times[i] == p.Times[i-1] && p.Seqs[i] <= p.Seqs[i-1]) {
			return nil, fmt.Errorf("%w: columns not (time, seq)-sorted at record %d", ErrPartialCorrupt, i)
		}
	}
	flag, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	switch flag[0] {
	case 0:
	case 1:
		min, err := r.f64()
		if err != nil {
			return nil, err
		}
		max, err := r.f64()
		if err != nil {
			return nil, err
		}
		width, err := r.f64()
		if err != nil {
			return nil, err
		}
		bins, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if bins > maxPartialBins {
			return nil, fmt.Errorf("%w: %d histogram bins exceeds %d", ErrPartialCorrupt, bins, maxPartialBins)
		}
		if math.IsNaN(min) || math.IsNaN(max) || math.IsNaN(width) ||
			math.IsInf(min, 0) || math.IsInf(max, 0) || math.IsInf(width, 0) {
			return nil, fmt.Errorf("%w: non-finite histogram binning", ErrPartialCorrupt)
		}
		// The binning, not the header, sizes the histogram: hold it to the
		// bounded header count before histogram.New allocates.
		if n := math.Ceil((max - min) / width); n != float64(bins) {
			return nil, fmt.Errorf("%w: binning yields %v bins, header says %d",
				ErrPartialCorrupt, n, bins)
		}
		h, err := histogram.New(min, max, width)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPartialCorrupt, err)
		}
		for i := 0; i < int(bins); i++ {
			c, err := r.f64()
			if err != nil {
				return nil, err
			}
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("%w: invalid histogram count %v in bin %d", ErrPartialCorrupt, c, i)
			}
			h.SetCount(i, c)
		}
		p.Hist = h
	default:
		return nil, fmt.Errorf("%w: bad histogram flag %d", ErrPartialCorrupt, flag[0])
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrPartialCorrupt, len(data)-r.off)
	}
	return p, nil
}

// PartialVersionResponse is the JSON body of GET /v1/partials?versions=1:
// the slice's current node-local version, for coordinator staleness polls
// that must not pay a column transfer.
type PartialVersionResponse struct {
	Slice   string `json:"slice"`
	Version uint64 `json:"version"`
}
