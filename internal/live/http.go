package live

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/core"
	"autosens/internal/timeutil"
)

// WindowQuerier answers curve queries, unwindowed and windowed: the live
// engine locally, or a cluster coordinator that scatter-gathers per-node
// partials. Implementations return ErrNoRecords (possibly wrapped) for
// empty slices.
type WindowQuerier interface {
	Query(key SliceKey, mode Mode, ci bool) (*Result, error)
	QueryWindow(key SliceKey, mode Mode, ci bool, win Window) (*Result, error)
}

// CurvesHandlerOptions configures the windowed side of a curves handler.
// The zero value serves windowed queries with no retention bound and
// no clamping — correct for a hot-only engine holding full history.
type CurvesHandlerOptions struct {
	// Retention bounds the window= parameter: requests for a longer
	// window get a window_exceeds_retention error instead of a silently
	// partial answer. Zero means unbounded.
	Retention time.Duration
	// OldestRetained, when set, clamps a window's lower bound up to the
	// oldest record the cold tier still holds, so the effective window
	// echoed in the response never claims coverage the store lost to
	// retention GC. Typically store.OldestRetained.
	OldestRetained func() (timeutil.Millis, bool)
	// Now anchors the default at= (and is injectable for tests). Nil
	// means time.Now.
	Now func() time.Time
}

// parseWindow extracts the window/at query parameters per the v1
// contract. ok=false with a written response means the caller returns
// immediately; a zero returned Window means the request is unwindowed.
func parseWindow(w http.ResponseWriter, qs map[string][]string, opts CurvesHandlerOptions) (Window, bool) {
	get := func(k string) string {
		if v := qs[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	ws, at := get("window"), get("at")
	if ws == "" {
		if at != "" {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidWindow,
				"at= requires window=", 0)
			return Window{}, false
		}
		return Window{}, true
	}
	d, err := time.ParseDuration(ws)
	if err != nil || d <= 0 {
		api.WriteError(w, http.StatusBadRequest, api.CodeInvalidWindow,
			"window must be a positive Go duration, e.g. 24h", 0)
		return Window{}, false
	}
	if opts.Retention > 0 && d > opts.Retention {
		api.WriteError(w, http.StatusBadRequest, api.CodeWindowExceedsRetention,
			"window "+d.String()+" exceeds retention "+opts.Retention.String(), 0)
		return Window{}, false
	}
	now := time.Now
	if opts.Now != nil {
		now = opts.Now
	}
	end := now()
	if at != "" {
		end, err = time.Parse(time.RFC3339, at)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeInvalidWindow,
				"at must be RFC3339, e.g. 2026-01-02T15:04:05Z", 0)
			return Window{}, false
		}
	}
	win := Window{
		From: timeutil.Millis(end.UnixMilli() - d.Milliseconds()),
		To:   timeutil.Millis(end.UnixMilli()),
	}
	if win.From < 0 {
		win.From = 0
	}
	if opts.OldestRetained != nil {
		if oldest, ok := opts.OldestRetained(); ok && oldest > win.From {
			win.From = oldest
		}
	}
	if win.To <= win.From {
		api.WriteError(w, http.StatusBadRequest, api.CodeInvalidWindow,
			"window is empty after retention clamping", 0)
		return Window{}, false
	}
	return win, true
}

// curvesBufPool recycles response bodies so the cached-query hot path builds
// each one in a pooled buffer and writes it once.
var curvesBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendCurvesJSON appends the body json.Encoder writes for r — fields in
// api.CurvesResponse's order, its omitempty rules, the trailing newline —
// but copies Curve and CI as they are. The encoder would re-compact them on
// every response, and they are json.Marshal output (see Result), which is
// already compact and escaped.
func appendCurvesJSON(b []byte, r *api.CurvesResponse) []byte {
	str := func(b []byte, s string) []byte {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = str(append(b, `{"slice":`...), r.Slice)
	b = str(append(b, `,"mode":`...), r.Mode)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	b = strconv.AppendUint(append(b, `,"version":`...), r.Version, 10)
	b = strconv.AppendInt(append(b, `,"records":`...), int64(r.Records), 10)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	b = append(b, `,"curve":`...)
	if len(r.Curve) == 0 {
		b = append(b, "null"...)
	}
	b = append(b, r.Curve...)
	if len(r.CI) > 0 {
		b = append(append(b, `,"ci":`...), r.CI...)
	}
	for _, f := range [...]struct {
		key string
		v   int64
	}{{`,"window_ms":`, r.WindowMS}, {`,"window_from_ms":`, r.WindowFromMS}, {`,"window_to_ms":`, r.WindowToMS}} {
		if f.v != 0 {
			b = strconv.AppendInt(append(b, f.key...), f.v, 10)
		}
	}
	return append(b, "}\n"...)
}

// NewCurvesHandlerWith serves GET /v1/curves per the v1 contract over q:
//
//	GET /v1/curves?slice=action:SelectMail,period:8am-2pm&mode=normalized&ci=1
//	GET /v1/curves?slice=...&window=24h            → trailing 24h ending now
//	GET /v1/curves?slice=...&window=24h&at=<RFC3339> → 24h ending at `at`
//
// slice defaults to "all", mode to "plain". The X-Autosens-Cache header
// reports "hit" or "miss". window must be a positive Go duration and, when
// opts.Retention is set, no longer than it (error code
// window_exceeds_retention); at without window is invalid_window. The
// response echoes the effective half-open [from, to) actually served —
// after clamping the lower bound to opts.OldestRetained — in
// window_ms/window_from_ms/window_to_ms. Requests with no window
// parameters never touch the windowed path.
func NewCurvesHandlerWith(q WindowQuerier, opts CurvesHandlerOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"GET this endpoint", 0)
			return
		}
		qs := r.URL.Query()
		key, err := ParseSliceKey(qs.Get("slice"))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error(), 0)
			return
		}
		mode, err := ParseMode(qs.Get("mode"))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error(), 0)
			return
		}
		ci := false
		switch v := qs.Get("ci"); v {
		case "", "0", "false":
		case "1", "true":
			ci = true
		default:
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
				"ci must be 0 or 1", 0)
			return
		}
		win, ok := parseWindow(w, qs, opts)
		if !ok {
			return
		}

		var res *Result
		if win.IsZero() {
			res, err = q.Query(key, mode, ci)
		} else {
			res, err = q.QueryWindow(key, mode, ci, win)
		}
		if err != nil {
			if errors.Is(err, ErrNoRecords) {
				api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
					"no records in slice "+key.String(), 0)
				return
			}
			if errors.Is(err, core.ErrUnderIdentified) {
				api.WriteError(w, http.StatusUnprocessableEntity, api.CodeUnderIdentified,
					err.Error(), 0)
				return
			}
			api.WriteError(w, http.StatusInternalServerError, api.CodeEstimateFailed,
				err.Error(), 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if res.Cached {
			w.Header().Set("X-Autosens-Cache", "hit")
		} else {
			w.Header().Set("X-Autosens-Cache", "miss")
		}
		resp := api.CurvesResponse{
			Slice:   res.Slice,
			Mode:    res.Mode,
			Epoch:   res.Epoch,
			Version: res.Version,
			Records: res.Records,
			Cached:  res.Cached,
			Curve:   res.Curve,
			CI:      res.CI,
		}
		if !win.IsZero() {
			resp.WindowMS = int64(win.To - win.From)
			resp.WindowFromMS = int64(win.From)
			resp.WindowToMS = int64(win.To)
		}
		buf := curvesBufPool.Get().(*[]byte)
		*buf = appendCurvesJSON((*buf)[:0], &resp)
		_, _ = w.Write(*buf)
		curvesBufPool.Put(buf)
	})
}
