package main

import "time"

// clock is the open-loop scheduler's time source; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// sendRecord times one open-loop send. Latencies that follow from a
// send are timed from due, not from sent: a stalled response delays
// every send queued behind it, and that wait is part of what those
// sends experienced (the coordinated-omission guard).
type sendRecord struct {
	due, sent, done time.Time
}

// late is how far behind its schedule the send started.
func (s sendRecord) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop calls send(i) for i in [0, n) at start + i·period, on its
// own schedule: a slow send delays later sends but never moves their
// due times. send runs on the caller's goroutine, one at a time, as on
// one keep-alive connection.
func openLoop(clk clock, start time.Time, period time.Duration, n int, send func(i int)) []sendRecord {
	recs := make([]sendRecord, n)
	for i := range recs {
		due := start.Add(time.Duration(i) * period)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		send(i)
		recs[i] = sendRecord{due: due, sent: sent, done: clk.Now()}
	}
	return recs
}
