package collector

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"testing"

	"autosens/internal/telemetry"
)

// tbinBody encodes recs as a TBIN beacon body, framing a block after each
// count in cuts (the rest goes in a last block).
func tbinBody(t *testing.T, recs []telemetry.Record, cuts ...int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf, telemetry.TBIN)
	for i, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		for _, c := range cuts {
			if i+1 == c {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testRecords returns n distinct valid records.
func testRecords(n int) []telemetry.Record {
	recs := make([]telemetry.Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	return recs
}

// negateLatencyAt encodes n records with record k (1-based) carrying a
// negative latency, which the encoder refuses, by writing a marker latency
// and flipping its sign bit in the encoded bytes.
func negateLatencyAt(t *testing.T, n, k int, cuts ...int) []byte {
	t.Helper()
	recs := testRecords(n)
	recs[k-1].LatencyMS = 1.5
	body := tbinBody(t, recs, cuts...)
	var marker [8]byte
	binary.LittleEndian.PutUint64(marker[:], math.Float64bits(1.5))
	i := bytes.Index(body, marker[:])
	if i < 0 || bytes.Count(body, marker[:]) != 1 {
		t.Fatal("latency marker not found exactly once")
	}
	body[i+7] |= 0x80
	return body
}

// TestTBINBeaconErrorsGolden pins the status and the exact v1 response
// bytes of TBIN beacon bodies, errors and their precedence included: a
// record error the reader reaches before the record limit wins, the limit
// wins over any frame or record after it. Each server decodes the whole
// table three times (forward, reversed, forward), so a decoder reused
// across requests must carry no state from one body into the next.
func TestTBINBeaconErrorsGolden(t *testing.T) {
	badFrame := []byte{0x00, 0x05} // a zero record count is refused
	valid7 := tbinBody(t, testRecords(7))
	type tcase struct {
		name   string
		body   []byte
		status int
		resp   string
	}
	limited := []tcase{
		{"empty body", nil, 202, `{"accepted":0,"rejected":0}`},
		{"magic only", []byte("TBN1"), 202, `{"accepted":0,"rejected":0}`},
		{"valid 7", valid7, 202, `{"accepted":7,"rejected":0}`},
		{"valid 3+4 in two blocks", tbinBody(t, testRecords(7), 3), 202, `{"accepted":7,"rejected":0}`},
		{"valid at the limit", tbinBody(t, testRecords(10), 4), 202, `{"accepted":10,"rejected":0}`},
		{"bad magic", append([]byte("TBN2"), valid7[4:]...), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"short magic", []byte("TB"), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"truncated frame header", valid7[:5], 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"truncated payload", valid7[:len(valid7)-3], 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"truncated second block", func() []byte { b := tbinBody(t, testRecords(7), 3); return b[:len(b)-5] }(), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"bad frame after a block", append(bytes.Clone(valid7), badFrame...), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"invalid record 1", negateLatencyAt(t, 7, 1), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"invalid record 5 in block 2", negateLatencyAt(t, 7, 5, 3), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"invalid record 11 past the limit", negateLatencyAt(t, 12, 11), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"invalid record 12 after the limit", negateLatencyAt(t, 12, 12), 413, `{"error":{"code":"too_large","message":"batch exceeds 10 records"}}`},
		{"over the record limit", tbinBody(t, testRecords(11)), 413, `{"error":{"code":"too_large","message":"batch exceeds 10 records"}}`},
		{"over the limit in block 2", tbinBody(t, testRecords(30), 6), 413, `{"error":{"code":"too_large","message":"batch exceeds 10 records"}}`},
		{"bad frame at the limit", append(tbinBody(t, testRecords(10)), badFrame...), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"bad frame after the limit", append(tbinBody(t, testRecords(12)), badFrame...), 413, `{"error":{"code":"too_large","message":"batch exceeds 10 records"}}`},
	}
	capped := []tcase{
		{"under the byte cap", tbinBody(t, testRecords(10)), 202, `{"accepted":10,"rejected":0}`},
		{"over the byte cap", tbinBody(t, testRecords(40)), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
		{"over the byte cap in block 2", tbinBody(t, testRecords(40), 5), 400, `{"error":{"code":"bad_request","message":"malformed batch"}}`},
	}
	for _, srv := range []struct {
		cfg   ServerConfig
		cases []tcase
	}{
		{ServerConfig{MaxBatchRecords: 10}, limited},
		{ServerConfig{MaxBatchBytes: 256}, capped},
	} {
		_, _, ts := newTestServerCfg(t, srv.cfg)
		order := make([]tcase, 0, 3*len(srv.cases))
		order = append(order, srv.cases...)
		for i := len(srv.cases) - 1; i >= 0; i-- {
			order = append(order, srv.cases[i])
		}
		order = append(order, srv.cases...)
		for _, tc := range order {
			resp, err := http.Post(ts.URL+"/v1/beacons", ContentTypeTBIN, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || string(got) != tc.resp+"\n" {
				t.Errorf("%s: status %d body %q, want %d %q", tc.name, resp.StatusCode, got, tc.status, tc.resp+"\n")
			}
		}
	}
}
