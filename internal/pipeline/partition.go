package pipeline

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"autosens/internal/cell"
	"autosens/internal/core"
	"autosens/internal/parallel"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// Partition classifies every record once — action type, user segment and
// local-time period — and serves all of the paper's slicings from that
// single pass, as the columns the estimator reads. It holds ~25 bytes a
// row (time, latency, user and the record's cell byte), action-major: one
// region per action type in input order, successful rows before failed
// ones, and a last region for out-of-range action values. A slice gathers the
// successful rows of its group and sorts them stably by time, exactly the
// columns the record entry points of core would extract; an action's whole
// region is handed out without a copy when it is already in time order.
//
// Which slices exist, their names, their row counts and the quartile
// assignment are those of the legacy record slicers (pinned by tests), so
// downstream estimates are byte-for-byte unchanged.
type Partition struct {
	times []timeutil.Millis
	lats  []float64
	users []uint64
	class []cell.Cell
	// bound[b]..bound[b+1] holds bucket b's rows: bucket 2r the
	// successful rows of region r, bucket 2r+1 its failed ones.
	bound [numBuckets + 1]int
	// inputOrder puts every row in region 0, in input order.
	inputOrder bool
	// invalid holds the action of each row whose action is out of range
	// (no decoder yields one), by row index.
	invalid map[int]telemetry.ActionType
	workers int // for the quartile medians

	// Quartile assignment is computed once, on first use: it needs the
	// user-median pass, which not every caller wants to pay for.
	quartOnce  sync.Once
	quart      []uint8 // parallel to the rows
	quartCuts  [3]float64
	quartUsers int
	quartErr   error
}

const (
	// numRegions is one region per action type plus one for invalid
	// action values.
	numRegions = telemetry.NumActionTypes + 1
	numBuckets = 2 * numRegions
)

// monthOf is t's 1-based month of the simulated year, 0 outside it: the
// window starts on January 1st of a common year, as owasim.Months has it,
// and 1970 is one.
func monthOf(t timeutil.Millis) int {
	if t < 0 || t >= 365*timeutil.MillisPerDay {
		return 0
	}
	return int(time.UnixMilli(int64(t)).UTC().Month())
}

func actionIndex(a telemetry.ActionType) int {
	if a < 0 || int(a) >= telemetry.NumActionTypes {
		return telemetry.NumActionTypes
	}
	return int(a)
}

// Load says how a partition is built from an input's records.
type Load struct {
	// Keep selects the records that count; the zero Set counts every
	// record.
	Keep cell.Set
	// Store selects which counted records the partition holds; the zero
	// Set holds them all. The others only add to Loaded.Kept.
	Store cell.Set
	// InputOrder holds every row in one region, in input order, instead of
	// action-major: the layout whose Columns are one slice across actions.
	InputOrder bool
	// Workers bounds the goroutines that decode TBIN, place rows and select
	// per-user median latencies for quartiles; 0 means GOMAXPROCS.
	Workers int
}

// Loaded counts what a load read.
type Loaded struct {
	Records    int // records read
	Successful int // of those, not failed
	Kept       int // of those, accepted by Load.Keep
}

// What a load does with a record: counts it as read only (dropped), counts
// it as kept but does not hold it (kept), or holds it (held); byPeriod
// leaves it to the record's period.
const (
	dropped uint8 = iota
	kept
	held
	byPeriod
)

// filter is a load's two sets resolved once into what the load does with a
// record, by whether it failed and by its cell (byCell), or by its cell of
// period 0 where the period changes nothing (byTag): a TBIN load derives
// the period of a row it holds only.
type filter struct{ byCell, byTag [2][256]uint8 }

func (l Load) filter() *filter {
	f := new(filter)
	for failed := range 2 {
		for c := range 256 {
			cl, o := cell.Cell(c), dropped
			if l.Keep.Has(cl, failed == 1) {
				o = kept + uint8(b2i(l.Store.Has(cl, failed == 1)))
			}
			f.byCell[failed][c] = o
			if c >= cell.NumCells {
				continue // TBIN records' cells are all in range
			}
			// Period 0's cell of an action and user type seeds their entry.
			if tag := &f.byTag[failed][cell.Make(cl.Action(), cl.UserType(), 0)]; cl.Period() == 0 {
				*tag = o
			} else if *tag != o {
				*tag = byPeriod
			}
		}
	}
	return f
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// count counts into t a record the load does o with.
func (t *Loaded) count(o uint8, failed bool) {
	t.Records++
	t.Successful += 1 - b2i(failed)
	if o != dropped {
		t.Kept++
	}
}

// builder is the one row builder behind every partition. Each chunk of
// input — a TBIN block, or all of a record slice — stages the rows the
// load holds from the chunk's input position on, and chunks may stage
// concurrently. build then moves the rows into the layout, chunk-parallel,
// at offsets the per-chunk bucket counts fix, or, when they all fall in
// one bucket, closes the gaps in place.
type builder struct {
	l      Load
	f      *filter
	stage  *Partition // rows at their chunk's input position
	bucket []uint8    // parallel to stage
	chunks []chunk
}

// chunk is one chunk of input's staged rows and counts.
type chunk struct {
	n           [numBuckets]int
	first, held int
	Loaded
}

func (l Load) builder(rows, chunks int) *builder {
	b := &builder{l: l, f: l.filter(), stage: new(Partition), bucket: make([]uint8, rows), chunks: make([]chunk, chunks)}
	b.stage.makeRows(rows)
	return b
}

func (p *Partition) makeRows(n int) {
	p.times = make([]timeutil.Millis, n)
	p.lats = make([]float64, n)
	p.users = make([]uint64, n)
	p.class = make([]cell.Cell, n)
}

// add counts a record of chunk c that the load does o with, and stages its
// row if the load holds it; action is its raw action, kept for an
// out-of-range one. Only one-chunk builds meet invalid actions (TBIN
// decoding validates every record), so the invalid map is written by one
// goroutine, and a row in it is only moved by the scatter below, never by
// closing gaps.
func (b *builder) add(c *chunk, o uint8, cl cell.Cell, failed bool, action telemetry.ActionType, t timeutil.Millis, lat float64, user uint64) {
	c.count(o, failed)
	if o != held {
		return
	}
	region := 0
	if !b.l.InputOrder {
		region = actionIndex(cl.Action())
	}
	bk := 2*region + b2i(failed)
	j := c.first + c.held
	st := b.stage
	st.times[j], st.lats[j], st.users[j], st.class[j] = t, lat, user, cl
	if actionIndex(cl.Action()) == telemetry.NumActionTypes {
		if st.invalid == nil {
			st.invalid = make(map[int]telemetry.ActionType)
		}
		st.invalid[j] = action
	}
	b.bucket[j] = uint8(bk)
	c.n[bk]++
	c.held++
}

// build lays the staged rows out as a partition.
func (b *builder) build() (*Partition, Loaded) {
	var total chunk
	for _, c := range b.chunks {
		for bk, n := range c.n {
			total.n[bk] += n
		}
		total.Records += c.Records
		total.Successful += c.Successful
		total.Kept += c.Kept
	}
	p := &Partition{inputOrder: b.l.InputOrder, workers: b.l.Workers}
	used := 0
	for bk, n := range total.n {
		p.bound[bk+1] = p.bound[bk] + n
		used += min(n, 1)
	}
	st := b.stage
	if used <= 1 {
		// The staged rows are in their final order already.
		j := 0
		for _, c := range b.chunks {
			lo, hi := c.first, c.first+c.held
			copy(st.times[j:], st.times[lo:hi])
			copy(st.lats[j:], st.lats[lo:hi])
			copy(st.users[j:], st.users[lo:hi])
			copy(st.class[j:], st.class[lo:hi])
			j += c.held
		}
		p.times, p.lats, p.users, p.class = st.times[:j:j], st.lats[:j:j], st.users[:j:j], st.class[:j:j]
		p.invalid = st.invalid
		return p, total.Loaded
	}
	p.makeRows(p.bound[numBuckets])
	// Each chunk's counts become the index of its first row in every bucket.
	next := p.bound
	for k := range b.chunks {
		for bk, n := range b.chunks[k].n {
			b.chunks[k].n[bk] = next[bk]
			next[bk] += n
		}
	}
	parallel.ForEach(b.l.Workers, len(b.chunks), func(k int) {
		c := &b.chunks[k]
		for j := c.first; j < c.first+c.held; j++ {
			i := c.n[b.bucket[j]]
			c.n[b.bucket[j]]++
			p.times[i], p.lats[i], p.users[i], p.class[i] = st.times[j], st.lats[j], st.users[j], st.class[j]
			if a, ok := st.invalid[j]; ok {
				if p.invalid == nil {
					p.invalid = make(map[int]telemetry.ActionType)
				}
				p.invalid[i] = a
			}
		}
	})
	return p, total.Loaded
}

// NewPartition classifies records in one pass and holds them all,
// action-major. The input slice is not modified.
func NewPartition(records []telemetry.Record) *Partition {
	p, _ := Load{}.Records(records)
	return p
}

// Records builds a partition from records in memory.
func (l Load) Records(records []telemetry.Record) (*Partition, Loaded) {
	b := l.builder(len(records), 1)
	c := &b.chunks[0]
	for _, r := range records {
		cl, _ := cell.Of(r)
		b.add(c, b.f.byCell[b2i(r.Failed)][cl], cl, r.Failed, r.Action, r.Time, r.LatencyMS, r.UserID)
	}
	return b.build()
}

// Iterate builds a partition from an input read record by record (JSONL,
// CSV, a WAL): iter calls its argument on every record. Only the records
// the partition holds are kept until the build.
func (l Load) Iterate(iter func(fn func(telemetry.Record) error) error) (*Partition, Loaded, error) {
	var rows []telemetry.Record
	var seen Loaded
	f := l.filter()
	err := iter(func(r telemetry.Record) error {
		cl, _ := cell.Of(r)
		o := f.byCell[b2i(r.Failed)][cl]
		if seen.count(o, r.Failed); o == held {
			rows = append(rows, r)
		}
		return nil
	})
	if err != nil {
		return nil, Loaded{}, err
	}
	p, _ := Load{InputOrder: l.InputOrder, Workers: l.Workers}.Records(rows)
	return p, seen, nil
}

// TBIN builds a partition straight from a whole TBIN stream, with no
// record slice in between: every block is a chunk, decoded into columns
// and staged by one decode worker, which applies Keep and Store. Each
// row's cell is its tag's action and user type and the period of its local
// hour: cell.Of's, as every TBIN record's action and user type are in
// range. The period is derived only for a row the load may hold. The error
// is what draining the streaming TBIN reader over the same bytes returns
// first.
func (l Load) TBIN(data []byte) (*Partition, Loaded, error) {
	s := telemetry.SplitTBIN(data)
	b := l.builder(s.Records(), s.Blocks())
	err := s.Decode(l.Workers, func(k int, cols *telemetry.TBINColumns) {
		// Neighbouring blocks' chunks share cache lines: count in a local.
		c := chunk{first: cols.First}
		for i, t := range cols.Times {
			a, u, failed := cols.Action(i), cols.UserType(i), cols.Failed(i)
			cl := cell.Make(a, u, 0)
			o := b.f.byTag[b2i(failed)][cl]
			if o >= held {
				cl = cell.Make(a, u, timeutil.PeriodOf(t, cols.TZOffset(i)))
				o = b.f.byCell[b2i(failed)][cl]
			}
			b.add(&c, o, cl, failed, a, t, cols.Lats[i], cols.Users[i])
		}
		b.chunks[k] = c
	})
	if err != nil {
		return nil, Loaded{}, err
	}
	p, seen := b.build()
	return p, seen, nil
}

// Len returns the number of rows in the partition.
func (p *Partition) Len() int { return len(p.times) }

// region returns the rows of action a's region: [lo, mid) successful,
// [mid, hi) failed. filter reports that the region holds other actions
// too, so each row's action still needs checking against a.
func (p *Partition) region(a telemetry.ActionType) (lo, mid, hi int, filter bool) {
	r := actionIndex(a)
	if p.inputOrder {
		r = 0
	}
	return p.bound[2*r], p.bound[2*r+1], p.bound[2*r+2], p.inputOrder || r == telemetry.NumActionTypes
}

// is reports whether row i's action is a.
func (p *Partition) is(i int, a telemetry.ActionType) bool {
	if ca := p.class[i].Action(); int(ca) < telemetry.NumActionTypes {
		return ca == a
	}
	return p.invalid[i] == a
}

// Columns returns every successful row's time and latency, stably sorted
// by time from the partition's row order: with InputOrder, the columns of
// one slice over all the loaded records. Callers must not mutate them.
func (p *Partition) Columns() ([]timeutil.Millis, []float64) {
	return p.run(0, p.bound[numBuckets])
}

// run returns the successful rows of [lo, hi) as sorted columns, without
// a copy when there is no failed row among them and they are in order.
func (p *Partition) run(lo, hi int) ([]timeutil.Millis, []float64) {
	times, lats := p.times[lo:hi:hi], p.lats[lo:hi:hi]
	failed := false
	for b := 1; b < numBuckets; b += 2 {
		failed = failed || max(lo, p.bound[b]) < min(hi, p.bound[b+1])
	}
	if !failed && slices.IsSorted(times) {
		return times, lats
	}
	t, l := make([]timeutil.Millis, 0, hi-lo), make([]float64, 0, hi-lo)
	for b := 0; b < numBuckets; b += 2 {
		lo, hi := max(lo, p.bound[b]), min(hi, p.bound[b+1])
		if lo < hi {
			t, l = append(t, p.times[lo:hi]...), append(l, p.lats[lo:hi]...)
		}
	}
	core.SortColumns(t, l)
	return t, l
}

// Action returns action a's slice. In an action-major partition its
// columns alias the partition when the action's successful rows are
// already in time order. Callers must not mutate them.
func (p *Partition) Action(a telemetry.ActionType) Slice {
	lo, mid, hi, filter := p.region(a)
	if filter {
		return p.split(a, []string{a.String()}, func(int) uint8 { return 0 })[0]
	}
	s := Slice{Name: a.String(), Rows: hi - lo}
	s.Times, s.Lats = p.run(lo, mid)
	return s
}

// ByActionType builds one slice per action type.
func (p *Partition) ByActionType() []Slice {
	out := make([]Slice, 0, telemetry.NumActionTypes)
	for _, a := range telemetry.ActionTypes() {
		out = append(out, p.Action(a))
	}
	return out
}

// split builds one slice per name from action a's rows: row i belongs to
// group(i), if that is below len(names). Every row of a group counts toward
// its Rows; the successful ones are gathered into exactly sized columns and
// sorted stably by time.
func (p *Partition) split(a telemetry.ActionType, names []string, group func(i int) uint8) []Slice {
	lo, mid, hi, filter := p.region(a)
	groups := uint8(len(names))
	var n [16]int
	out := make([]Slice, len(names))
	for i := lo; i < hi; i++ {
		if g := group(i); g < groups && (!filter || p.is(i, a)) {
			out[g].Rows++
			if i < mid {
				n[g]++
			}
		}
	}
	for g := range out {
		out[g].Name = names[g]
		out[g].Times, out[g].Lats = make([]timeutil.Millis, n[g]), make([]float64, n[g])
		n[g] = 0
	}
	for i := lo; i < mid; i++ {
		if g := group(i); g < groups && (!filter || p.is(i, a)) {
			out[g].Times[n[g]], out[g].Lats[n[g]] = p.times[i], p.lats[i]
			n[g]++
		}
	}
	for g := range out {
		core.SortColumns(out[g].Times, out[g].Lats)
	}
	return out
}

// BySegment builds one slice per user segment within one action type.
func (p *Partition) BySegment(action telemetry.ActionType) []Slice {
	names := make([]string, 0, telemetry.NumUserTypes)
	for _, u := range telemetry.UserTypes() {
		names = append(names, fmt.Sprintf("%s/%s", action, u))
	}
	return p.split(action, names, func(i int) uint8 { return uint8(p.class[i].UserType()) })
}

// ByPeriod builds one slice per user-local 6-hour period within one
// action type.
func (p *Partition) ByPeriod(action telemetry.ActionType) []Slice {
	names := make([]string, 0, timeutil.NumPeriods)
	for per := 0; per < timeutil.NumPeriods; per++ {
		names = append(names, fmt.Sprintf("%s/%s", action, timeutil.Period(per)))
	}
	return p.split(action, names, func(i int) uint8 { return uint8(p.class[i].Period()) })
}

// ByMonth builds one slice per calendar month within one action type,
// with owasim.Months's semantics over every row, failed ones included:
// leading empty months are skipped, and the sequence stops at the first
// empty month after a non-empty one. Names follow the legacy ByMonth:
// positional Jan, Feb, … over the emitted groups.
func (p *Partition) ByMonth(action telemetry.ActionType) []Slice {
	monthNames := []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
	lo, _, hi, filter := p.region(action)
	month := make([]uint8, len(p.times))
	var rows [13]int
	for i := lo; i < hi; i++ {
		if !filter || p.is(i, action) {
			month[i] = uint8(monthOf(p.times[i]))
			rows[month[i]]++
		}
	}
	// group[m] is month m's slice index; months not emitted map past them.
	var group [13]uint8
	for m := range group {
		group[m] = 0xff
	}
	var names []string
	for m := 1; m <= 12; m++ {
		if rows[m] == 0 {
			if len(names) > 0 {
				break
			}
			continue
		}
		group[m] = uint8(len(names))
		name := fmt.Sprintf("month%d", len(names))
		if len(names) < len(monthNames) {
			name = monthNames[len(names)]
		}
		names = append(names, fmt.Sprintf("%s/%s", action, name))
	}
	for i := lo; i < hi; i++ {
		month[i] = group[month[i]]
	}
	return p.split(action, names, func(i int) uint8 { return month[i] })
}

// quartiles lazily computes every row's quartile over the whole partition
// (quartile assignment conditions on every user's full history, not one
// action's).
func (p *Partition) quartiles() error {
	p.quartOnce.Do(func() {
		p.quart, p.quartCuts, p.quartUsers, p.quartErr = telemetry.RowQuartiles(p.users, p.lats, p.workers)
	})
	return p.quartErr
}

// QuartileCuts returns the three median-latency cut points, computing the
// quartile assignment on first use.
func (p *Partition) QuartileCuts() ([3]float64, error) {
	if err := p.quartiles(); err != nil {
		return [3]float64{}, err
	}
	return p.quartCuts, nil
}

// QuartileUsers is the number of users the quartile assignment ranked,
// 0 before it is computed.
func (p *Partition) QuartileUsers() int { return p.quartUsers }

// ByQuartile builds one slice per median-latency user quartile within one
// action type. The assignment is computed over the full partition on
// first use and cached for subsequent calls.
func (p *Partition) ByQuartile(action telemetry.ActionType) ([]Slice, error) {
	if err := p.quartiles(); err != nil {
		return nil, err
	}
	names := make([]string, 0, telemetry.NumQuartiles)
	for q := range telemetry.NumQuartiles {
		names = append(names, fmt.Sprintf("%s/%s", action, telemetry.Quartile(q)))
	}
	return p.split(action, names, func(i int) uint8 { return p.quart[i] }), nil
}

// SelectQuartile returns a partition of the rows whose user falls in
// quartile q and that keep holds, in this partition's row order, laid out
// in input order or action-major. Quartiles are assigned over this
// partition.
func (p *Partition) SelectQuartile(q telemetry.Quartile, keep cell.Set, inputOrder bool) (*Partition, error) {
	if err := p.quartiles(); err != nil {
		return nil, err
	}
	b := Load{Keep: keep, InputOrder: inputOrder, Workers: p.workers}.builder(p.Len(), 1)
	c := &b.chunks[0]
	for bk := range numBuckets {
		failed := bk%2 == 1
		for i := p.bound[bk]; i < p.bound[bk+1]; i++ {
			if int(p.quart[i]) == int(q) {
				b.add(c, b.f.byCell[bk%2][p.class[i]], p.class[i], failed, p.invalid[i], p.times[i], p.lats[i], p.users[i])
			}
		}
	}
	sub, _ := b.build()
	return sub, nil
}
