package remserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/remwal"
)

// ingestServer builds a served sharded store with POST /observe wired
// to a fresh queue (no WAL unless log is non-nil).
func ingestServer(t *testing.T, qc remwal.QueueConfig, token string) (*httptest.Server, *remwal.Queue) {
	t.Helper()
	ss, _, _ := newServedShards(t, 4, 2)
	q := remwal.NewQueue(qc)
	t.Cleanup(q.Close)
	srv := httptest.NewServer(NewSharded(ss, Options{Ingest: IngestOptions{Queue: q, Token: token}}))
	t.Cleanup(srv.Close)
	return srv, q
}

func postObserve(t *testing.T, url, contentType, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/observe", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestObserveJSONAccepted(t *testing.T) {
	srv, q := ingestServer(t, remwal.QueueConfig{Capacity: 4}, "")
	body := []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48],[2,1,1.5,-55]]}`)
	resp := postObserve(t, srv.URL, "", "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		Seq      uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", ack.Accepted)
	}
	b, err := q.Pop(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := remwal.Batch{
		Key:    "aa:00",
		Points: []geom.Vec3{geom.V(1, 2, 0.5), geom.V(2, 1, 1.5)},
		Values: []float64{-48, -55},
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("queued batch %+v, want %+v", b, want)
	}
}

// TestObserveCodecsAreCanonical pins that a batch posted as JSON and
// the same batch posted as REMO leave byte-identical WAL records —
// replay is independent of the wire the observations arrived on.
func TestObserveCodecsAreCanonical(t *testing.T) {
	dir := t.TempDir()
	l, _, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, q := ingestServer(t, remwal.QueueConfig{Capacity: 4, Log: l}, "")

	batch := remwal.Batch{
		Key:    "aa:00",
		Points: []geom.Vec3{geom.V(1, 2, 0.5), geom.V(2, 1, 1.5)},
		Values: []float64{-48.25, -55},
	}
	jsonBody := []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48.25],[2,1,1.5,-55]]}`)
	if resp := postObserve(t, srv.URL, "", "", jsonBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d", resp.StatusCode)
	}
	if resp := postObserve(t, srv.URL, WireContentType, "", remwal.AppendBatch(nil, batch)); resp.StatusCode != http.StatusOK {
		t.Fatalf("wire status %d", resp.StatusCode)
	}
	q.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d WAL records, want 2", len(recs))
	}
	if !bytes.Equal(recs[0].Payload, recs[1].Payload) {
		t.Fatalf("JSON and REMO submissions persisted different bytes:\n%x\n%x",
			recs[0].Payload, recs[1].Payload)
	}
}

func TestObserveAuth(t *testing.T) {
	srv, _ := ingestServer(t, remwal.QueueConfig{Capacity: 4}, "sekrit")
	body := []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48]]}`)
	for _, tc := range []struct {
		name, token string
		want        int
	}{
		{"missing", "", http.StatusUnauthorized},
		{"wrong", "guess", http.StatusUnauthorized},
		{"right", "sekrit", http.StatusOK},
	} {
		resp := postObserve(t, srv.URL, "", tc.token, body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s token: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusUnauthorized && resp.Header.Get("WWW-Authenticate") == "" {
			t.Fatalf("%s token: missing WWW-Authenticate", tc.name)
		}
	}
}

func TestObserveDisabledIs404(t *testing.T) {
	ss, _, _ := newServedShards(t, 4, 2)
	srv := httptest.NewServer(NewSharded(ss, Options{}))
	defer srv.Close()
	resp := postObserve(t, srv.URL, "", "", []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48]]}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestObserveQueueFullRetryAfter mirrors the rate-limiter tests: a
// deterministic clock drives the drain-rate estimate the 429 carries.
func TestObserveQueueFullRetryAfter(t *testing.T) {
	clk := struct {
		t time.Time
	}{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	srv, q := ingestServer(t, remwal.QueueConfig{Capacity: 1, Now: func() time.Time { return clk.t }}, "")
	body := []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48]]}`)

	// Fill the queue; no drain history yet → the 1-second floor.
	if resp := postObserve(t, srv.URL, "", "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("fill status %d", resp.StatusCode)
	}
	resp := postObserve(t, srv.URL, "", "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("cold Retry-After %q, want 1", got)
	}

	// Establish a 4s drain rhythm, refill, and expect the projection.
	if _, err := q.Pop(t.Context()); err != nil {
		t.Fatal(err)
	}
	if resp := postObserve(t, srv.URL, "", "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("refill status %d", resp.StatusCode)
	}
	clk.t = clk.t.Add(4 * time.Second)
	if _, err := q.Pop(t.Context()); err != nil {
		t.Fatal(err)
	}
	if resp := postObserve(t, srv.URL, "", "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("second refill status %d", resp.StatusCode)
	}
	resp = postObserve(t, srv.URL, "", "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rhythm full status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("rhythm Retry-After %q, want 4", got)
	}
}

func TestObservePipelineDownIs503(t *testing.T) {
	srv, q := ingestServer(t, remwal.QueueConfig{Capacity: 4}, "")
	q.Close()
	resp := postObserve(t, srv.URL, "", "", []byte(`{"key":"aa:00","observations":[[1,2,0.5,-48]]}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestObservePointCap(t *testing.T) {
	ss, _, _ := newServedShards(t, 4, 2)
	q := remwal.NewQueue(remwal.QueueConfig{Capacity: 4})
	defer q.Close()
	srv := httptest.NewServer(NewSharded(ss, Options{
		MaxBatchPoints: 3,
		Ingest:         IngestOptions{Queue: q},
	}))
	defer srv.Close()

	var sb strings.Builder
	sb.WriteString(`{"key":"aa:00","observations":[`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`[1,2,0.5,-48]`)
	}
	sb.WriteString(`]}`)
	resp := postObserve(t, srv.URL, "", "", []byte(sb.String()))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("json status %d, want 413", resp.StatusCode)
	}
	wire := remwal.AppendBatch(nil, remwal.Batch{
		Key:    "aa:00",
		Points: make([]geom.Vec3, 4),
		Values: make([]float64, 4),
	})
	resp = postObserve(t, srv.URL, WireContentType, "", wire)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("wire status %d, want 413", resp.StatusCode)
	}
}

// TestObserveErrorStatus pins the WAL statuses: the write that fails is
// a 500, and every batch refused by the fail-stopped log after it a 503.
func TestObserveErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: %w", remwal.ErrAppend, errors.New("write: input/output error")), http.StatusInternalServerError},
		{fmt.Errorf("%w: %w", remwal.ErrAppend, fmt.Errorf("%w: fsync", remwal.ErrLogFailed)), http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		observeError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}
