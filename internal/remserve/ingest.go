package remserve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remwal"
)

// POST /observe is the write half of the serving edge: observation
// batches enter the bounded ingest queue (remwal.Queue), which
// persists them to the write-ahead log before acknowledging — an
// accepted observation survives kill -9 and replays into the exact
// same published snapshots (determinism contract rule 10). The
// request codec is negotiated like POST /at: Content-Type
// application/x-rem-batch selects the binary "REMO" message
// (remwal.DecodeBatch), anything else the JSON shape
//
//	{"key":"aa:bb:…","observations":[[x,y,z,value],…]}
//
// decoded by encoding/json, every row exactly four numbers. Both
// codecs produce the same canonical WAL bytes, so replay is
// independent of the wire the observations arrived on. The response is
// JSON: {"accepted":N,"seq":S} — S the WAL sequence number (0 when the
// queue is ephemeral).
//
// Failure surface: 401 on a bad bearer token, 404 for a key outside
// the vocabulary (or when ingest is not configured at all), 413 over
// the shared body/point caps, 429 + Retry-After when the queue is full
// (load-shedding — the drain-rate estimate, never a blocked read),
// 503 once the stream loop is down, 500 only for a WAL I/O fault.

// IngestOptions wires the write path into a Server.
type IngestOptions struct {
	// Queue is the bounded ingest queue POST /observe submits into; nil
	// leaves the server read-only (404 on /observe).
	Queue *remwal.Queue
	// Token, when non-empty, requires "Authorization: Bearer <Token>"
	// on POST /observe (constant-time comparison; 401 otherwise).
	Token string
}

// handleObserve serves POST /observe.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.ingestToken != "" {
		auth := r.Header.Get("Authorization")
		if subtle.ConstantTimeCompare([]byte(auth), []byte("Bearer "+s.ingestToken)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="remserve"`)
			http.Error(w, "remserve: missing or invalid ingest token", http.StatusUnauthorized)
			return
		}
	}
	bb := bufPool.Get().(*buffers)
	defer func() { bufPool.Put(bb) }()
	body, ok := s.readCappedBody(w, r, bb)
	if !ok {
		return
	}
	var batch remwal.Batch
	if isWireContentType(r.Header.Get("Content-Type")) {
		var err error
		if batch, err = remwal.DecodeBatch(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var err *wireError
		if batch, err = parseJSONObserve(body); err != nil {
			http.Error(w, err.msg, err.status)
			return
		}
	}
	if len(batch.Points) > s.maxPoints {
		http.Error(w, "remserve: observation batch of "+strconv.Itoa(len(batch.Points))+
			" points exceeds the "+strconv.Itoa(s.maxPoints)+"-point cap", http.StatusRequestEntityTooLarge)
		return
	}
	seq, err := s.ingestQ.Submit(batch)
	if err != nil {
		observeError(w, err)
		return
	}
	b := append(bb.out[:0], `{"accepted":`...)
	b = strconv.AppendInt(b, int64(len(batch.Points)), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, "}\n"...)
	writeJSON(w, b)
	bb.out = b
}

// observeError maps a queue rejection to its status: 404 outside the
// vocabulary, 429 + Retry-After at capacity, 503 once the loop or a
// failed WAL is down, 500 for the WAL fault itself, 400 for any other
// validation failure.
func observeError(w http.ResponseWriter, err error) {
	var full *remwal.FullError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(full.RetryAfter))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, remwal.ErrClosed):
		http.Error(w, "remserve: ingest pipeline is down", http.StatusServiceUnavailable)
	case errors.Is(err, remwal.ErrLogFailed):
		http.Error(w, "remserve: write-ahead log failed; ingest is down", http.StatusServiceUnavailable)
	case errors.Is(err, rem.ErrUnknownKey):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, remwal.ErrAppend):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// parseJSONObserve decodes the JSON observe body with one
// encoding/json call, then checks every row is exactly (x, y, z, value)
// — the shape a "REMO" message carries, so a short or long row is a
// 400 here, never a zero-filled or truncated observation in the WAL.
// Elements decode as jsonNum, so every accepted value is finite. The
// returned batch owns its memory (it outlives the pooled request buffer
// inside the queue).
func parseJSONObserve(body []byte) (remwal.Batch, *wireError) {
	var req struct {
		Key          string      `json:"key"`
		Observations [][]jsonNum `json:"observations"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return remwal.Batch{}, wireErrorf(400, "remserve: bad observe body: %s", err.Error())
	}
	if req.Key == "" {
		return remwal.Batch{}, wireErrorf(400, `remserve: observe body needs a "key"`)
	}
	if len(req.Observations) == 0 {
		return remwal.Batch{}, wireErrorf(400, "remserve: empty observation batch")
	}
	batch := remwal.Batch{
		Key:    req.Key,
		Points: make([]geom.Vec3, len(req.Observations)),
		Values: make([]float64, len(req.Observations)),
	}
	for i, o := range req.Observations {
		if len(o) != 4 {
			return remwal.Batch{}, wireErrorf(400, "remserve: observation %d has %d numbers, want 4 (x, y, z, value)", i, len(o))
		}
		batch.Points[i] = geom.V(float64(o[0]), float64(o[1]), float64(o[2]))
		batch.Values[i] = float64(o[3])
	}
	return batch, nil
}
