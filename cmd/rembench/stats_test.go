package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{600, 99, 98, true}, // a 60 s run's 600 batches: p99 leaves 6 beyond
		{200, 99, 95, true},
		{100, 99, 90, true},
		{1000000, 99, 99, true}, // capped by the limit
		{1000000, 100, 99.99, true},
		{20, 99, 50, true},
		{19, 99, 0, false},
		{0, 99, 0, false},
	} {
		p, ok := tailPercentile(c.n, c.limit)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.limit, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rankOf(p, c.n))
		}
	}
}

func TestSummarizeFallsBackToMax(t *testing.T) {
	d := summarize([]float64{3, 1, 2}, 99)
	if d.n != 3 || d.p50 != 2 || d.tail != 3 || d.tailName() != "max" || d.mean != 2 {
		t.Fatalf("summarize = %+v", d)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	d = summarize(xs, 99)
	if d.tailName() != "p95" || d.tail != 190 || d.p50 != 100 {
		t.Fatalf("summarize(1..200) = %+v (%s)", d, d.tailName())
	}
}

// fakeClock advances only when the scheduler sleeps or a send takes
// simulated time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopStallInflatesLaterSends(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const period, service, stall = 100 * time.Millisecond, time.Millisecond, 500 * time.Millisecond
	recs := openLoop(clk, start, period, 10, func(i int) {
		if i == 3 {
			clk.Sleep(stall)
		} else {
			clk.Sleep(service)
		}
	})
	for i, r := range recs {
		if want := start.Add(time.Duration(i) * period); !r.due.Equal(want) {
			t.Fatalf("send %d due %v, want %v: a stall must not move the schedule", i, r.due, want)
		}
	}
	if got := recs[3].done.Sub(recs[3].due); got != stall {
		t.Errorf("stalled send latency %v, want %v", got, stall)
	}
	// Send 4 was due at 400 ms but could only go out at 800 ms, when
	// the stalled response came back: its latency counts that wait.
	if got, want := recs[4].late(), 400*time.Millisecond; got != want {
		t.Errorf("send 4 late %v, want %v", got, want)
	}
	if got, want := recs[4].done.Sub(recs[4].due), 401*time.Millisecond; got != want {
		t.Errorf("send 4 latency %v, want %v (measured from its due time)", got, want)
	}
	for i := 5; i <= 8; i++ {
		if recs[i].late() <= 0 || recs[i].done.Sub(recs[i].due) <= service {
			t.Errorf("send %d behind the stall: late %v latency %v", i, recs[i].late(), recs[i].done.Sub(recs[i].due))
		}
	}
	if recs[9].late() != 0 || recs[9].done.Sub(recs[9].due) != service {
		t.Errorf("send 9 after catching up: late %v latency %v", recs[9].late(), recs[9].done.Sub(recs[9].due))
	}
	late := make([]float64, len(recs))
	for i, r := range recs {
		late[i] = ms(r.late())
	}
	// Ten sends support no percentile, so the tail the gate reads is the
	// maximum: the stall's.
	if d := summarize(late, 99); d.tail != 400 || d.n != 10 {
		t.Errorf("gen.late_ms.tail = %g (%s of %d), want 400", d.tail, d.tailName(), d.n)
	}
}
