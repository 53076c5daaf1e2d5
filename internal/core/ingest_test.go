package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// ingestBatches is the live-traffic fixture: batches across the
// streamDataset vocabulary, each dirtying a different key subset, with
// positions inside the paper scan volume.
func ingestBatches() []remwal.Batch {
	return []remwal.Batch{
		{Key: "aa:00", Points: []geom.Vec3{geom.V(1, 1, 0.5), geom.V(2, 2, 1)}, Values: []float64{-47, -52.5}},
		{Key: "cc:22", Points: []geom.Vec3{geom.V(3, 0.5, 2)}, Values: []float64{-61}},
		{Key: "aa:00", Points: []geom.Vec3{geom.V(0.5, 2.5, 1.5)}, Values: []float64{-44.25}},
		{Key: "dd:33", Points: []geom.Vec3{geom.V(3.5, 1, 0.5), geom.V(1.5, 0.5, 2.2)}, Values: []float64{-70, -66}},
	}
}

func ingestCfg() IngestConfig {
	cfg := IngestConfig{Config: DefaultConfig(5)}
	cfg.REMResolution = [3]int{6, 5, 4}
	cfg.Workers = 1
	cfg.MaxHistory = 64
	return cfg
}

// runIngestTo drives RunIngestWithDataset deterministically: replay
// first, then the live batches pre-submitted to a closed queue — the
// loop drains them in order and stops cleanly on ErrClosed. Returns the
// per-version snapshot codec bytes (1 = bootstrap) and the final map.
func runIngestTo(t *testing.T, log *remwal.Log, replay, live []remwal.Batch) (map[uint64][]byte, *rem.Map) {
	t.Helper()
	q := remwal.NewQueue(remwal.QueueConfig{Capacity: len(live) + 1, Log: log})
	for _, b := range live {
		if _, err := q.Submit(b); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	cfg := ingestCfg()
	cfg.Queue = q
	cfg.Replay = replay
	cfg.Context = context.Background()
	var reps []IngestReport
	cfg.OnBatch = func(rep IngestReport) { reps = append(reps, rep) }
	res, err := RunIngestWithDataset(cfg, streamDataset(), nil)
	if !errors.Is(err, remwal.ErrClosed) {
		t.Fatalf("ingest run ended with %v, want queue closure", err)
	}
	if len(reps) != len(replay)+len(live) {
		t.Fatalf("published %d batches, want %d", len(reps), len(replay)+len(live))
	}
	for i, rep := range reps {
		if rep.Seq != uint64(i+1) || rep.Version != uint64(i+2) {
			t.Fatalf("batch %d: seq %d version %d, want %d/%d", i, rep.Seq, rep.Version, i+1, i+2)
		}
		if want := i < len(replay); rep.Replayed != want {
			t.Fatalf("batch %d: Replayed %v, want %v", i, rep.Replayed, want)
		}
	}
	byVersion := make(map[uint64][]byte)
	for v := uint64(1); v <= uint64(len(replay)+len(live)+1); v++ {
		snap := res.Store.SnapshotAt(v)
		if snap == nil {
			t.Fatalf("version %d missing from history", v)
		}
		var buf bytes.Buffer
		if _, err := snap.Map().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		byVersion[v] = buf.Bytes()
	}
	return byVersion, res.Store.Current().Map()
}

// appendToWAL persists batches the way the queue does — canonical REMO
// bytes — simulating a run that acknowledged them and then died before
// (or while) processing.
func appendToWAL(t *testing.T, dir string, batches []remwal.Batch, sync remwal.SyncPolicy) {
	t.Helper()
	l, recs, err := remwal.Open(remwal.Config{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	for _, b := range batches {
		if _, err := l.Append(remwal.AppendBatch(nil, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverWAL reopens a crashed WAL and decodes what survived.
func recoverWAL(t *testing.T, dir string) []remwal.Batch {
	t.Helper()
	l, recs, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batches, good := remwal.Batches(recs)
	if good != len(recs) {
		t.Fatalf("only %d of %d replayed records decoded", good, len(recs))
	}
	return batches
}

// compareRuns asserts two runs published byte-identical snapshots at
// every version, and that the final maps are Equal.
func compareRuns(t *testing.T, got, want map[uint64][]byte, gotMap, wantMap *rem.Map) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("published %d versions, oracle has %d", len(got), len(want))
	}
	for v, wb := range want {
		if !bytes.Equal(got[v], wb) {
			t.Fatalf("version %d: snapshot bytes differ from the uninterrupted run", v)
		}
	}
	if !gotMap.Equal(wantMap) {
		t.Fatal("final maps differ")
	}
}

// TestRule10CrashMatrix pins determinism contract rule 10 at every
// crash point: a run killed after acknowledging k batches and restarted
// from its WAL publishes snapshots byte-identical, version for version,
// to a run that never crashed.
func TestRule10CrashMatrix(t *testing.T) {
	batches := ingestBatches()
	oracle, oracleMap := runIngestTo(t, nil, nil, batches)
	for k := 0; k <= len(batches); k++ {
		t.Run(fmt.Sprintf("crash_after_%d", k), func(t *testing.T) {
			dir := t.TempDir()
			appendToWAL(t, dir, batches[:k], remwal.SyncAlways)
			recovered := recoverWAL(t, dir)
			if len(recovered) != k {
				t.Fatalf("recovered %d batches, want %d", len(recovered), k)
			}
			got, gotMap := runIngestTo(t, nil, recovered, batches[k:])
			compareRuns(t, got, oracle, gotMap, oracleMap)
		})
	}
}

// TestRule10FaultMatrix pins rule 10 under storage faults: a torn final
// record, a bit-flipped frame, duplicate delivery after a mid-window
// crash, and an fsync-lag crash each replay into exactly the oracle's
// snapshots once the affected batches are re-delivered.
func TestRule10FaultMatrix(t *testing.T) {
	batches := ingestBatches()
	oracle, oracleMap := runIngestTo(t, nil, nil, batches)
	seg := func(dir string) string { return filepath.Join(dir, fmt.Sprintf("%016x.reml", 1)) }
	k := 3 // acknowledged batches before the crash

	t.Run("torn_final_record", func(t *testing.T) {
		dir := t.TempDir()
		appendToWAL(t, dir, batches[:k], remwal.SyncAlways)
		fi, err := os.Stat(seg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg(dir), fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		recovered := recoverWAL(t, dir)
		if len(recovered) != k-1 {
			t.Fatalf("torn tail: recovered %d batches, want %d", len(recovered), k-1)
		}
		// The client re-delivers the unacknowledged batch; the stream is
		// whole again and must match the oracle exactly.
		got, gotMap := runIngestTo(t, nil, recovered, batches[k-1:])
		compareRuns(t, got, oracle, gotMap, oracleMap)
	})

	t.Run("bit_flipped_record", func(t *testing.T) {
		dir := t.TempDir()
		appendToWAL(t, dir, batches[:k], remwal.SyncAlways)
		data, err := os.ReadFile(seg(dir))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-5] ^= 0x40
		if err := os.WriteFile(seg(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := recoverWAL(t, dir)
		if len(recovered) != k-1 {
			t.Fatalf("bit flip: recovered %d batches, want %d", len(recovered), k-1)
		}
		got, gotMap := runIngestTo(t, nil, recovered, batches[k-1:])
		compareRuns(t, got, oracle, gotMap, oracleMap)
	})

	t.Run("duplicate_delivery", func(t *testing.T) {
		// The client's ack for batch k-1 was lost in the crash, so it
		// re-sends what the WAL already holds. Rule 10 says the replayed
		// run equals the uninterrupted run fed the same (duplicated)
		// sequence — at-least-once delivery, deterministic either way.
		dup := append(append([]remwal.Batch{}, batches[:k]...), batches[k-1])
		withDup := append(append([]remwal.Batch{}, dup...), batches[k:]...)
		dupOracle, dupOracleMap := runIngestTo(t, nil, nil, withDup)

		dir := t.TempDir()
		appendToWAL(t, dir, dup, remwal.SyncAlways)
		recovered := recoverWAL(t, dir)
		if len(recovered) != k+1 {
			t.Fatalf("duplicate: recovered %d batches, want %d", len(recovered), k+1)
		}
		got, gotMap := runIngestTo(t, nil, recovered, batches[k:])
		compareRuns(t, got, dupOracle, gotMap, dupOracleMap)
	})

	t.Run("fsync_lag_crash", func(t *testing.T) {
		// Under SyncNone only an explicit Sync barrier is durable: write
		// j batches, sync, write more, then crash before the OS flushes —
		// simulated by truncating to the synced watermark. Replay yields
		// exactly the synced prefix; re-delivering the rest restores the
		// oracle's stream.
		j := 2
		dir := t.TempDir()
		l, _, err := remwal.Open(remwal.Config{Dir: dir, Sync: remwal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:j] {
			if _, err := l.Append(remwal.AppendBatch(nil, b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(seg(dir))
		if err != nil {
			t.Fatal(err)
		}
		synced := fi.Size()
		for _, b := range batches[j:k] {
			if _, err := l.Append(remwal.AppendBatch(nil, b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg(dir), synced); err != nil {
			t.Fatal(err)
		}
		recovered := recoverWAL(t, dir)
		if len(recovered) != j {
			t.Fatalf("fsync lag: recovered %d batches, want %d", len(recovered), j)
		}
		got, gotMap := runIngestTo(t, nil, recovered, batches[j:])
		compareRuns(t, got, oracle, gotMap, oracleMap)
	})
}

// TestIngestLiveEqualsReplayWAL closes the loop over the serving path:
// batches submitted through a WAL-backed queue during a live run leave
// a WAL whose replay reproduces the identical snapshots.
func TestIngestLiveEqualsReplayWAL(t *testing.T) {
	batches := ingestBatches()
	dir := t.TempDir()
	l, recs, err := remwal.Open(remwal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	oracle, oracleMap := runIngestTo(t, l, nil, batches)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := recoverWAL(t, dir)
	if len(recovered) != len(batches) {
		t.Fatalf("recovered %d batches, want %d", len(recovered), len(batches))
	}
	got, gotMap := runIngestTo(t, nil, recovered, nil)
	compareRuns(t, got, oracle, gotMap, oracleMap)
}

// TestIngestValidation pins the config error surface.
func TestIngestValidation(t *testing.T) {
	data := streamDataset()
	base := func() IngestConfig {
		cfg := ingestCfg()
		cfg.Queue = remwal.NewQueue(remwal.QueueConfig{Capacity: 1})
		cfg.Context = context.Background()
		return cfg
	}
	if _, err := RunIngestWithDataset(IngestConfig{}, data, nil); err == nil {
		t.Fatal("missing queue accepted")
	}
	cfg := base()
	cfg.Context = nil
	if _, err := RunIngestWithDataset(cfg, data, nil); err == nil {
		t.Fatal("missing context accepted")
	}
	cfg = base()
	spec := DefaultStreamSpec()
	spec.Features.IncludeChannel = true
	cfg.Spec = &spec
	if _, err := RunIngestWithDataset(cfg, data, nil); err == nil {
		t.Fatal("channel features accepted")
	}
	cfg = base()
	if _, err := RunIngestWithDataset(cfg, nil, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}

	// The installed validator rejects unknown keys before the WAL.
	cfg = base()
	done := make(chan struct{})
	var vErr error
	cfg.OnStore = func(*remstore.Store) {
		_, vErr = cfg.Queue.Submit(remwal.Batch{
			Key: "nope", Points: []geom.Vec3{{X: 1}}, Values: []float64{-50},
		})
		cfg.Queue.Close()
		close(done)
	}
	if _, err := RunIngestWithDataset(cfg, data, nil); !errors.Is(err, remwal.ErrClosed) {
		t.Fatalf("run ended with %v", err)
	}
	<-done
	if !errors.Is(vErr, rem.ErrUnknownKey) {
		t.Fatalf("unknown-key submit error %v does not wrap rem.ErrUnknownKey", vErr)
	}
}

// TestIngestReplayStopsAtNonFiniteBatch: a replayed batch with a
// non-finite coordinate or value — one an older build could have
// acknowledged — stops the loop with an error naming its seq. It is
// never skipped: nothing after it is published.
func TestIngestReplayStopsAtNonFiniteBatch(t *testing.T) {
	for _, poison := range []func(*remwal.Batch){
		func(b *remwal.Batch) { b.Values[0] = math.NaN() },
		func(b *remwal.Batch) { b.Points[0].Y = math.Inf(1) },
	} {
		replay := ingestBatches()
		replay[1].Points = append([]geom.Vec3(nil), replay[1].Points...)
		replay[1].Values = append([]float64(nil), replay[1].Values...)
		poison(&replay[1])
		q := remwal.NewQueue(remwal.QueueConfig{Capacity: 1})
		q.Close()
		cfg := ingestCfg()
		cfg.Queue, cfg.Replay, cfg.Context = q, replay, context.Background()
		published := 0
		cfg.OnBatch = func(IngestReport) { published++ }
		res, err := RunIngestWithDataset(cfg, streamDataset(), nil)
		if err == nil || errors.Is(err, remwal.ErrClosed) || !strings.Contains(err.Error(), "batch 2") {
			t.Fatalf("replay ended with %v, want an error naming batch 2", err)
		}
		if published != 1 || res.Store.Current().Version() != 2 {
			t.Fatalf("published %d batches up to version %d, want 1 up to version 2", published, res.Store.Current().Version())
		}
	}
}
