package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"autosens/internal/collector/api"
	"autosens/internal/live"
)

// PartialSource is one node's mergeable read surface: the slice partial
// itself and the cheap version poll behind it. The coordinator treats
// every node identically through this interface — its own engine as a
// LocalNode, peers as HTTPNodes.
//
// Implementations must preserve the understatement contract: the version
// a partial carries (and PartialVersion returns) is stamped before the
// columns are gathered, so comparing it later can only report "possibly
// stale", never "fresh" for data the partial might miss.
type PartialSource interface {
	// PartialWindow returns the node's current partial for the slice
	// inside a half-open time window, covering the node's hot store and
	// (when it runs one) cold tier; the zero window is the full history
	// the node holds. A node holding none of the slice's users returns an
	// empty partial, not an error.
	PartialWindow(key live.SliceKey, win live.Window) (*api.Partial, error)
	// PartialVersion returns the node's current slice version — the
	// staleness poll, expected to be far cheaper than PartialWindow.
	PartialVersion(key live.SliceKey) (uint64, error)
}

// LocalNode adapts the in-process live engine to PartialSource, so the
// node answering a query contributes its own shard without a loopback
// HTTP round trip.
type LocalNode struct {
	Engine *live.Engine
}

// PartialWindow implements PartialSource.
func (n LocalNode) PartialWindow(key live.SliceKey, win live.Window) (*api.Partial, error) {
	return n.Engine.PartialWindow(key, win)
}

// PartialVersion implements PartialSource.
func (n LocalNode) PartialVersion(key live.SliceKey) (uint64, error) {
	return n.Engine.SliceVersion(key), nil
}

// maxPartialBody bounds how large a peer's partial response may grow
// before the fetch is abandoned — a corrupted peer must not OOM the
// coordinator.
const maxPartialBody = 1 << 30

// HTTPNode fetches partials from a peer's GET /v1/partials endpoint.
type HTTPNode struct {
	base   string
	client *http.Client
}

// NewHTTPNode builds a source over a peer's base URL (scheme://host:port,
// no path). A nil client selects a dedicated one with a 30s timeout.
func NewHTTPNode(baseURL string, client *http.Client) *HTTPNode {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPNode{base: baseURL, client: client}
}

// get issues one GET and returns the body, translating non-200s into the
// peer's typed api.Error.
func (n *HTTPNode) get(rawURL string) ([]byte, error) {
	resp, err := n.client.Get(rawURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s: %w", n.base, api.ReadError(resp))
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPartialBody+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", n.base, err)
	}
	if len(body) > maxPartialBody {
		return nil, fmt.Errorf("cluster: peer %s: partial body exceeds %d bytes", n.base, maxPartialBody)
	}
	return body, nil
}

func (n *HTTPNode) partialsURL(key live.SliceKey, versions bool) string {
	u := n.base + api.PathPartials + "?slice=" + url.QueryEscape(key.String())
	if versions {
		u += "&versions=1"
	}
	return u
}

// PartialWindow implements PartialSource over the binary wire form. A
// window rides the cluster-internal from_ms/to_ms form: the exact half-open
// bounds the coordinator merges, never re-derived from a duration at the
// peer. The zero window omits both, which is the unwindowed request.
func (n *HTTPNode) PartialWindow(key live.SliceKey, win live.Window) (*api.Partial, error) {
	u := n.partialsURL(key, false)
	if !win.IsZero() {
		u += "&from_ms=" + strconv.FormatInt(int64(win.From), 10) +
			"&to_ms=" + strconv.FormatInt(int64(win.To), 10)
	}
	body, err := n.get(u)
	if err != nil {
		return nil, err
	}
	p, err := api.DecodePartial(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", n.base, err)
	}
	return p, nil
}

// PartialVersion implements PartialSource over the versions=1 poll form.
func (n *HTTPNode) PartialVersion(key live.SliceKey) (uint64, error) {
	body, err := n.get(n.partialsURL(key, true))
	if err != nil {
		return 0, err
	}
	var vr api.PartialVersionResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		return 0, fmt.Errorf("cluster: peer %s: %w", n.base, err)
	}
	return vr.Version, nil
}
