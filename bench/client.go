package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"autosens/internal/collector"
	"autosens/internal/collector/api"
)

// conn is one keep-alive HTTP connection. The benchmark opens exactly
// two: one for ingest, one for queries (which also carries the status
// polls), so the load never has more threads of execution than the
// sandbox has cores.
type conn struct {
	c *http.Client
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// get fetches a URL and returns status, body and headers.
func (c *conn) get(url string) (int, []byte, http.Header, error) {
	resp, err := c.c.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, body, resp.Header, nil
}

// postBatch ships one pre-encoded TBIN beacon and reports whether it was
// acked whole: a 202 accepting every record. Anything else — 429, 5xx, a
// timeout, a partial accept — is a failed request.
func (c *conn) postBatch(base string, body []byte) bool {
	resp, err := c.c.Post(base+api.PathBeacons, collector.ContentTypeTBIN, bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return false
	}
	var br api.BatchResponse
	return json.Unmarshal(raw, &br) == nil && br.Accepted == batchRecords && br.Rejected == 0
}

// status fetches and decodes /v1/status.
func (c *conn) status(base string) (api.StatusResponse, error) {
	var st api.StatusResponse
	code, body, _, err := c.get(base + api.PathStatus)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET %s: status %d", api.PathStatus, code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode %s: %w", api.PathStatus, err)
	}
	return st, nil
}

// curveRaw fetches one /v1/curves request up to the last byte of the
// body — what a timed loop measures; hit reports X-Autosens-Cache.
func (c *conn) curveRaw(base string, q query) (body []byte, hit bool, err error) {
	code, body, hdr, err := c.get(base + q.path())
	if err != nil {
		return nil, false, err
	}
	if code != http.StatusOK {
		return nil, false, &refusal{path: q.path(), code: code, body: string(bytes.TrimSpace(body))}
	}
	return body, hdr.Get("X-Autosens-Cache") == "hit", nil
}

// refusal is a curve request the node answered with a typed error
// instead of a curve.
type refusal struct {
	path string
	code int
	body string
}

func (r *refusal) Error() string { return fmt.Sprintf("GET %s: status %d: %s", r.path, r.code, r.body) }

// curve fetches and decodes one /v1/curves request.
func (c *conn) curve(base string, q query) (resp api.CurvesResponse, err error) {
	body, _, err := c.curveRaw(base, q)
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decode %s: %w", q.path(), err)
	}
	return resp, nil
}
