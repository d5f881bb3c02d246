package live

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"autosens/internal/collector/api"
	"autosens/internal/timeutil"
)

// parseMillisParam parses an optional integer query parameter; empty is 0.
func parseMillisParam(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

// partialBufPool recycles encode buffers so sustained partial serving
// allocates only when a response outgrows every pooled buffer.
var partialBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// PartialsHandler serves GET /v1/partials per the v1 contract:
//
//	GET /v1/partials?slice=action:SelectMail          → binary partial
//	GET /v1/partials?slice=action:SelectMail&versions=1 → {slice, version}
//
// The versions=1 form is the cheap staleness poll: coordinators compare
// it against the node versions a cached merged curve was computed at.
//
// Windowed partials restrict the columns the same two ways /v1/curves
// does (window= duration plus optional at= RFC3339) or — the
// cluster-internal form coordinators use to gather exactly the window
// they merge — as explicit half-open millis bounds from_ms=/to_ms=
// (to_ms 0 or absent with from_ms set means unbounded above). Requests
// with no window parameters stay byte-identical to pre-window builds.
func (e *Engine) PartialsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"GET this endpoint", 0)
			return
		}
		q := r.URL.Query()
		key, err := ParseSliceKey(q.Get("slice"))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error(), 0)
			return
		}
		if v := q.Get("versions"); v == "1" || v == "true" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(api.PartialVersionResponse{
				Slice:   key.String(),
				Version: e.SliceVersion(key),
			})
			return
		}
		var win Window
		if fs, ts := q.Get("from_ms"), q.Get("to_ms"); fs != "" || ts != "" {
			from, ferr := parseMillisParam(fs)
			to, terr := parseMillisParam(ts)
			if ferr != nil || terr != nil || from < 0 || to < 0 ||
				(to != 0 && to <= from) {
				api.WriteError(w, http.StatusBadRequest, api.CodeInvalidWindow,
					"from_ms/to_ms must be non-negative millis with from_ms < to_ms", 0)
				return
			}
			win = Window{From: timeutil.Millis(from), To: timeutil.Millis(to)}
		} else {
			var ok bool
			if win, ok = parseWindow(w, q, CurvesHandlerOptions{}); !ok {
				return
			}
		}
		p, err := e.PartialWindow(key, win)
		if err != nil {
			api.WriteError(w, http.StatusInternalServerError, api.CodeEstimateFailed,
				err.Error(), 0)
			return
		}
		buf := partialBufPool.Get().(*[]byte)
		body := api.AppendPartial((*buf)[:0], p)
		w.Header().Set("Content-Type", api.ContentTypePartial)
		_, _ = w.Write(body)
		*buf = body[:0]
		partialBufPool.Put(buf)
	})
}
