package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"time"

	"autosens/internal/core"
	"autosens/internal/live"
	"autosens/internal/telemetry"
	"autosens/internal/timeutil"
)

// query is one /v1/curves request.
type query struct {
	slice  string
	mode   string // "plain" or "normalized"
	ci     bool
	window time.Duration   // 0 = unwindowed
	at     timeutil.Millis // window end, in data time; used when window > 0
}

// path renders the request path and query string.
func (q query) path() string {
	v := url.Values{}
	v.Set("slice", q.slice)
	if q.mode != "" && q.mode != "plain" {
		v.Set("mode", q.mode)
	}
	if q.ci {
		v.Set("ci", "1")
	}
	if q.window > 0 {
		v.Set("window", q.window.String())
		v.Set("at", time.UnixMilli(int64(q.at)).UTC().Format(time.RFC3339))
	}
	return "/v1/curves?" + v.Encode()
}

func (q query) String() string {
	s := q.slice + "/" + q.mode
	if q.ci {
		s += "/ci"
	}
	if q.window > 0 {
		s += fmt.Sprintf("/window=%s@%d", q.window, q.at)
	}
	return s
}

// mixQ is the fixed query mix of query-fresh: every slice family the
// paper reports, both estimators, and one narrow bootstrap request.
var mixQ = []query{
	{slice: "all", mode: "plain"},
	{slice: "action:SelectMail", mode: "plain"},
	{slice: "action:SwitchFolder", mode: "plain"},
	{slice: "action:Search", mode: "plain"},
	{slice: "action:ComposeSend", mode: "plain"},
	{slice: "usertype:business", mode: "plain"},
	{slice: "usertype:consumer", mode: "plain"},
	{slice: "action:SelectMail,period:8am-2pm", mode: "plain"},
	{slice: "action:SelectMail,period:2pm-8pm", mode: "plain"},
	{slice: "all", mode: "normalized"},
	{slice: "action:SelectMail", mode: "normalized"},
	{slice: "action:Search,usertype:consumer", mode: "plain", ci: true},
}

// windowSlices are the slices window-cold asks each window for.
var windowSlices = []string{"all", "action:SelectMail", "usertype:business"}

// oracle is the batch estimator configured exactly as sensd configures
// its live engine (core.DefaultOptions / core.DefaultCIOptions), run
// in-process over exactly the records the node acked, in ack order. The
// node's contract is that every curve it serves is byte-identical to
// this — the same comparison internal/live and internal/store pin in
// their golden tests, here made against the composed node.
type oracle struct {
	est *core.Estimator
}

func newOracle() (*oracle, error) {
	est, err := core.NewEstimator(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &oracle{est: est}, nil
}

// selectRecords keeps the records a batch run over q's slice and window
// would load, in ack order (failed records stay in: the estimator drops
// them itself, as the engine drops them at append).
func selectRecords(acked []telemetry.Record, q query) ([]telemetry.Record, error) {
	key, err := live.ParseSliceKey(q.slice)
	if err != nil {
		return nil, err
	}
	from, to := timeutil.Millis(0), timeutil.Millis(0)
	if q.window > 0 {
		to = q.at
		if from = q.at - timeutil.Millis(q.window.Milliseconds()); from < 0 {
			from = 0
		}
	}
	return telemetry.Filter(acked, func(r telemetry.Record) bool {
		if key.Action >= 0 && r.Action != key.Action {
			return false
		}
		if key.UserType >= 0 && r.UserType != key.UserType {
			return false
		}
		if key.Period >= 0 && timeutil.PeriodOf(r.Time, r.TZOffset) != key.Period {
			return false
		}
		return q.window == 0 || (r.Time >= from && r.Time < to)
	}), nil
}

// expect computes the curve (and CI bounds, for ci requests) the node
// must serve for q over the acked records.
func (o *oracle) expect(acked []telemetry.Record, q query) (curve, ci []byte, err error) {
	recs, err := selectRecords(acked, q)
	if err != nil {
		return nil, nil, err
	}
	if q.ci {
		opts := core.DefaultCIOptions()
		opts.TimeNormalized = q.mode == "normalized"
		band, err := o.est.EstimateCI(recs, opts)
		if err != nil {
			return nil, nil, err
		}
		if curve, err = band.Curve.MarshalJSON(); err != nil {
			return nil, nil, err
		}
		ci, err = band.MarshalBoundsJSON()
		return curve, ci, err
	}
	var c *core.Curve
	if q.mode == "normalized" {
		c, err = o.est.EstimateTimeNormalized(recs)
	} else {
		c, err = o.est.Estimate(recs)
	}
	if err != nil {
		return nil, nil, err
	}
	curve, err = c.MarshalJSON()
	return curve, nil, err
}

// check fetches q from the node and compares the payload byte for byte
// with the oracle. A nil error means identical.
func (o *oracle) check(c *conn, base string, acked []telemetry.Record, q query) error {
	resp, err := c.curve(base, q)
	wantCurve, wantCI, batchErr := o.expect(acked, q)
	var refused *refusal
	switch {
	case errors.As(err, &refused) && batchErr != nil:
		// Both decline to estimate this slice (too little data): agreement.
		return nil
	case err != nil:
		return fmt.Errorf("oracle %s: %w", q, err)
	case batchErr != nil:
		return fmt.Errorf("oracle %s: the node served a curve the batch estimator refuses: %w", q, batchErr)
	}
	if !bytes.Equal(resp.Curve, wantCurve) {
		return fmt.Errorf("oracle %s: served curve differs from the batch estimator over the %d acked records", q, len(acked))
	}
	if q.ci && !bytes.Equal(resp.CI, wantCI) {
		return fmt.Errorf("oracle %s: served CI bounds differ from the batch bootstrap", q)
	}
	return nil
}
