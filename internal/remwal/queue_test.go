package remwal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/remobs"
)

// fakeClock mirrors the rate-limiter tests' deterministic clock: the
// Retry-After estimate is pure arithmetic over it.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func qBatch(k string) Batch {
	return Batch{Key: k, Points: []geom.Vec3{{X: 1}}, Values: []float64{-50}}
}

func TestQueueFullRetryAfter(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue(QueueConfig{Capacity: 2, Now: clk.now})
	ctx := context.Background()

	// No drain history yet: a full queue advises the 1-second floor.
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(qBatch("aa:00")); err != nil {
			t.Fatal(err)
		}
	}
	var full *FullError
	if _, err := q.Submit(qBatch("aa:00")); !errors.As(err, &full) || full.RetryAfter != 1 {
		t.Fatalf("cold full queue: err %v, want FullError{1}", err)
	}

	// Establish a 5s drain rhythm: pop, 5s, pop → EWMA 5s.
	if _, err := q.Pop(ctx); err != nil {
		t.Fatal(err)
	}
	clk.advance(5 * time.Second)
	if _, err := q.Pop(ctx); err != nil {
		t.Fatal(err)
	}
	// Refill; a rejection right after the pop projects the full interval.
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(qBatch("aa:00")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(qBatch("aa:00")); !errors.As(err, &full) || full.RetryAfter != 5 {
		t.Fatalf("just-popped full queue: err %v, want FullError{5}", err)
	}
	// 3s into the interval only 2s remain.
	clk.advance(3 * time.Second)
	if _, err := q.Submit(qBatch("aa:00")); !errors.As(err, &full) || full.RetryAfter != 2 {
		t.Fatalf("mid-interval full queue: err %v, want FullError{2}", err)
	}
	// Past the projection the floor applies again.
	clk.advance(10 * time.Second)
	if _, err := q.Submit(qBatch("aa:00")); !errors.As(err, &full) || full.RetryAfter != 1 {
		t.Fatalf("overdue full queue: err %v, want FullError{1}", err)
	}
}

func TestQueueCloseSemantics(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 4})
	if _, err := q.Submit(qBatch("aa:00")); err != nil {
		t.Fatal(err)
	}
	q.Close()
	q.Close() // idempotent
	if _, err := q.Submit(qBatch("aa:00")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// Accepted batches drain, then Pop reports closure.
	if b, err := q.Pop(context.Background()); err != nil || b.Key != "aa:00" {
		t.Fatalf("drain after close: %v %v", b, err)
	}
	if _, err := q.Pop(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop on drained closed queue: %v", err)
	}
}

func TestQueuePopHonoursContext(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Pop(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pop on cancelled ctx: %v", err)
	}
}

func TestQueueValidatorGatesWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := NewQueue(QueueConfig{Capacity: 4, Log: l})
	wantErr := errors.New("unknown key")
	q.SetValidator(func(b Batch) error {
		if b.Key == "nope" {
			return wantErr
		}
		return nil
	})
	if _, err := q.Submit(qBatch("nope")); !errors.Is(err, wantErr) {
		t.Fatalf("validator bypass: %v", err)
	}
	seq, err := q.Submit(qBatch("aa:00"))
	if err != nil || seq != 1 {
		t.Fatalf("valid submit: seq %d err %v", seq, err)
	}
	// Only the accepted batch reached the log.
	if next := l.NextSeq(); next != 2 {
		t.Fatalf("log NextSeq = %d, want 2", next)
	}
	// Mismatched lengths are rejected before the validator even runs.
	if _, err := q.Submit(Batch{Key: "aa:00", Points: []geom.Vec3{{}}, Values: nil}); err == nil {
		t.Fatal("mismatched points/values accepted")
	}
	if _, err := q.Submit(Batch{Key: "aa:00"}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestQueueRejectsNonFinite: a non-finite coordinate or value is refused
// before the WAL append for every caller, counted as invalid, and leaves
// no record behind — replay only ever sees finite batches.
func TestQueueRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	obs := remobs.New(0)
	q := NewQueue(QueueConfig{Capacity: 4, Log: l})
	q.SetObserver(obs)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	rejected := 0
	for field := 0; field < 4; field++ {
		for _, v := range bad {
			b := obsBatch(3)
			switch field {
			case 0:
				b.Points[1].X = v
			case 1:
				b.Points[1].Y = v
			case 2:
				b.Points[1].Z = v
			default:
				b.Values[1] = v
			}
			if _, err := q.Submit(b); err == nil {
				t.Fatalf("field %d = %v accepted", field, v)
			}
			rejected++
		}
	}
	if next := l.NextSeq(); next != 1 {
		t.Fatalf("log NextSeq = %d after only rejected batches, want 1", next)
	}
	if seq, err := q.Submit(obsBatch(3)); err != nil || seq != 1 {
		t.Fatalf("finite submit: seq %d err %v", seq, err)
	}
	want := fmt.Sprintf(`rem_wal_queue_rejected_total{cause="invalid"} %d`, rejected)
	if text := string(obs.Registry.AppendPrometheus(nil)); !strings.Contains(text, want) {
		t.Fatalf("scrape missing %q:\n%s", want, text)
	}
}

// TestQueueFullLeavesNoWALRecord pins the at-most-once-per-ack
// property: a 429'd submission must not leave a record behind, or the
// client's retry would be replayed twice.
func TestQueueFullLeavesNoWALRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	q := NewQueue(QueueConfig{Capacity: 1, Log: l})
	if _, err := q.Submit(qBatch("aa:00")); err != nil {
		t.Fatal(err)
	}
	var full *FullError
	if _, err := q.Submit(qBatch("bb:11")); !errors.As(err, &full) {
		t.Fatalf("second submit: %v", err)
	}
	if next := l.NextSeq(); next != 2 {
		t.Fatalf("rejected submit reached the WAL: NextSeq %d", next)
	}
}
