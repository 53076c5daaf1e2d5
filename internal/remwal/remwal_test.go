package remwal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remobs"
)

// testBatch builds a deterministic batch for key k with n observations.
func testBatch(k string, n int) Batch {
	b := Batch{Key: k}
	for i := 0; i < n; i++ {
		f := float64(i)
		b.Points = append(b.Points, geom.V(f, f*0.5, f*0.25))
		b.Values = append(b.Values, -40-f)
	}
	return b
}

// appendBatches submits encoded batches straight to a log and returns
// their payload bytes in order.
func appendBatches(t *testing.T, l *Log, batches []Batch) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i, b := range batches {
		p := AppendBatch(nil, b)
		if _, err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

func TestBatchCodecRoundTrip(t *testing.T) {
	in := testBatch("aa:bb:cc:dd:ee:ff", 5)
	enc := AppendBatch(nil, in)
	out, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Key != in.Key || len(out.Points) != len(in.Points) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Points {
		if out.Points[i] != in.Points[i] || out.Values[i] != in.Values[i] {
			t.Fatalf("observation %d mismatch", i)
		}
	}
}

func TestBatchCodecRejects(t *testing.T) {
	good := AppendBatch(nil, testBatch("aa:bb", 2))
	cases := map[string][]byte{
		"truncated header": good[:10],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			rem.PutU32(b[4:], 99)
			return b
		}(),
		"empty key": func() []byte {
			b := AppendBatch(nil, Batch{Key: "", Points: []geom.Vec3{{}}, Values: []float64{1}})
			return b
		}(),
		"size mismatch": good[:len(good)-3],
		"empty batch":   AppendBatch(nil, Batch{Key: "aa:bb"}),
		"nan value": func() []byte {
			b := Batch{Key: "aa:bb", Points: []geom.Vec3{{X: 1}}, Values: []float64{1}}
			enc := AppendBatch(nil, b)
			rem.PutU64(enc[len(enc)-8:], 0x7ff8000000000001) // NaN bits
			return enc
		}(),
	}
	for name, body := range cases {
		if _, err := DecodeBatch(body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestLogRoundTripAndCloseDurability(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	batches := []Batch{testBatch("aa:00", 3), testBatch("bb:11", 1), testBatch("cc:22", 7)}
	payloads := appendBatches(t, l, batches)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close: %v", err)
	}

	l2, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}
	for i, r := range recs {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d payload differs", i)
		}
	}
	got, n := Batches(recs)
	if n != len(recs) || len(got) != len(batches) {
		t.Fatalf("Batches decoded %d of %d", n, len(recs))
	}
	if got[2].Key != "cc:22" || len(got[2].Points) != 7 {
		t.Fatalf("decoded batch 2 = %+v", got[2])
	}
	// Numbering continues after replay.
	if seq, err := l2.Append([]byte("x")); err != nil || seq != 4 {
		t.Fatalf("post-replay append: seq %d err %v", seq, err)
	}
}

// TestLogRotation: tiny segments rotate on every record, and replay
// spans every segment in sequence order.
func TestLogRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	l, _, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < 5; i++ {
		p := AppendBatch(nil, testBatch("aa:00", 2))
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.reml")); len(segs) < 2 {
		t.Fatalf("expected rotation, have %d segment(s)", len(segs))
	}
	// Replay spans all segments.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d payload differs after rotation", i)
		}
	}
	// Numbering continues from the tail segment.
	if seq, err := l.Append([]byte("y")); err != nil || seq != 6 {
		t.Fatalf("post-replay append: seq %d err %v", seq, err)
	}
}

// segPath returns the single segment file of a fresh unrotated log.
func segPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.reml"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one segment, have %v (%v)", matches, err)
	}
	return matches[0]
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, l, []Batch{testBatch("aa:00", 2), testBatch("bb:11", 2)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop 3 bytes off.
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("torn tail: replayed %d records, want the 1-record prefix", len(recs))
	}
	// The log is appendable and the repair sticks: a new record lands at
	// seq 2 and a further replay sees exactly [1, 2].
	if seq, err := l.Append([]byte("fresh")); err != nil || seq != 2 {
		t.Fatalf("append after repair: seq %d err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[1].Payload) != "fresh" {
		t.Fatalf("post-repair replay = %v", recs)
	}
}

func TestReplayTruncatesBitFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p1 := AppendBatch(nil, testBatch("aa:00", 2))
	if _, err := l.Append(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(AppendBatch(nil, testBatch("bb:11", 2))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the second record's payload: its CRC fails,
	// the first record survives.
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, p1) {
		t.Fatalf("bit flip: replayed %d records, want the intact first", len(recs))
	}
}

func TestReplayDropsCorruptHeaderSegmentAndLaterOnes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(AppendBatch(nil, testBatch("aa:00", 2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.reml"))
	if len(matches) < 3 {
		t.Fatalf("want ≥3 segments, have %d", len(matches))
	}
	// Corrupt the second segment's header: it and every later segment
	// are dropped, the first survives.
	data, err := os.ReadFile(matches[1])
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if err := os.WriteFile(matches[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(Config{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want the first segment's 1", len(recs))
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.reml"))
	if len(left) != 1 { // the surviving first segment, reopened for append
		t.Fatalf("%d segment files after repair, want 1: %v", len(left), left)
	}
}

func TestSyncNoneLosesOnlyUnsyncedTail(t *testing.T) {
	// In-process we cannot drop the page cache, so the fsync-lag crash is
	// simulated by truncating the file at the offset of the last record
	// written before an explicit Sync — exactly the prefix the kernel
	// guarantees.
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	p1 := AppendBatch(nil, testBatch("aa:00", 1))
	if _, err := l.Append(p1); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	path := segPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	syncedSize := info.Size()
	if _, err := l.Append(AppendBatch(nil, testBatch("bb:11", 1))); err != nil {
		t.Fatal(err)
	}
	// Crash: the unsynced tail never reached the platter.
	l.f.Close() // bypass Close's fsync — this is the crash, not a shutdown
	if err := os.Truncate(path, syncedSize); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, p1) {
		t.Fatalf("fsync-lag crash: replayed %d records, want the synced prefix", len(recs))
	}
}

// TestLogFailStopAfterWriteError pins the fail-stop contract: once a
// write fails, the failing Append errors, every later Append and Sync
// fails fast with ErrLogFailed without touching the file (even once the
// file would accept writes again), and a re-Open replays exactly the
// acknowledged records.
func TestLogFailStopAfterWriteError(t *testing.T) {
	dir := t.TempDir()
	obs := remobs.New(0)
	l, _, err := Open(Config{Dir: dir, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	// scrape returns the rem_wal_failed gauge and the wal-failed events,
	// checking the exposition on the way.
	scrape := func() (string, []remobs.Event) {
		t.Helper()
		body := obs.Registry.AppendPrometheus(nil)
		if err := remobs.CheckExposition(body); err != nil {
			t.Fatalf("exposition: %v\n%s", err, body)
		}
		v, ok := findSample(string(body), "rem_wal_failed")
		if !ok {
			t.Fatalf("rem_wal_failed missing:\n%s", body)
		}
		var failed []remobs.Event
		for _, e := range obs.Events.Snapshot() {
			if e.Kind == "wal-failed" {
				failed = append(failed, e)
			}
		}
		return v, failed
	}
	acked := appendBatches(t, l, []Batch{testBatch("aa:00", 2), testBatch("bb:11", 3)})
	if v, evs := scrape(); v != "0" || len(evs) != 0 {
		t.Fatalf("healthy log: rem_wal_failed %s, %d wal-failed events", v, len(evs))
	}
	closed, err := os.Open(segPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	active := l.f
	l.f = closed // the next write fails as a dead disk would
	if _, err := l.Append(AppendBatch(nil, testBatch("cc:22", 1))); err == nil {
		t.Fatal("append to a closed segment succeeded")
	}
	l.f = active // a file that would accept the write again
	if _, err := l.Append(AppendBatch(nil, testBatch("dd:33", 1))); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after a failed write: %v, want ErrLogFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("sync after a failed write: %v, want ErrLogFailed", err)
	}
	v, evs := scrape()
	if v != "1" || len(evs) != 1 {
		t.Fatalf("failed log: rem_wal_failed %s, %d wal-failed events, want 1 and one event", v, len(evs))
	}
	if !strings.Contains(evs[0].Text, "file already closed") {
		t.Fatalf("wal-failed event %q does not carry the cause", evs[0].Text)
	}
	if err := l.Close(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("close of a failed log: %v, want ErrLogFailed", err)
	}
	l2, recs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(acked) {
		t.Fatalf("replayed %d records, want the %d acknowledged", len(recs), len(acked))
	}
	for i, r := range recs {
		if !bytes.Equal(r.Payload, acked[i]) {
			t.Fatalf("record %d differs from its acknowledged payload", i)
		}
	}
}

// TestQueueSurfacesLogFailure checks Submit keeps the fail-stop cause
// visible beside ErrAppend, so the serving edge can answer 503.
func TestQueueSurfacesLogFailure(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(QueueConfig{Capacity: 4, Log: l})
	defer q.Close()
	active := l.f
	active.Close()
	if _, err := q.Submit(testBatch("aa:00", 1)); !errors.Is(err, ErrAppend) {
		t.Fatalf("submit over a dead segment: %v, want ErrAppend", err)
	}
	_, err = q.Submit(testBatch("aa:00", 1))
	if !errors.Is(err, ErrAppend) || !errors.Is(err, ErrLogFailed) {
		t.Fatalf("submit after the failure: %v, want ErrAppend and ErrLogFailed", err)
	}
	l.Close()
}
