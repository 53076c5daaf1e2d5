package repro

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rem"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// TestCoverMendWorkBudget runs BenchmarkIngestReplay200's input through
// the ingest loop and through a follower map that applies each batch's
// REMD delta, and holds the coverage-index mend and the delta wire to
// work budgets: counts, not times, so they do not move with a noisy host.
// The follower must mend exactly the cubes the leader mended on every
// batch (both mend from the cells whose bits changed).
//
// The ceilings are today's totals. A change that lowers a count lowers
// its ceiling in the same change; a change that raises one says why.
func TestCoverMendWorkBudget(t *testing.T) {
	const (
		batches = 200
		// Cubes re-filtered by the coverage-index mend over all batches,
		// on the leader and on the follower (111.3 per batch).
		maxMendedCubes = 22260
		// REMD bytes shipped for all batches (4,811.2 per batch).
		maxDeltaBytes = 962240
	)
	data, replay := ingestReplayInput(batches)
	q := remwal.NewQueue(remwal.QueueConfig{})
	q.Close()
	var (
		store                      *remstore.Store
		prev, follower             *rem.Map
		delta                      []byte
		leaderCubes, followerCubes int
		deltaBytes                 int
	)
	cfg := core.IngestConfig{
		Config:  core.DefaultConfig(1),
		Queue:   q,
		Replay:  replay,
		Context: context.Background(),
		OnStore: func(s *remstore.Store) { store = s },
		OnBatch: func(r core.IngestReport) {
			if t.Failed() {
				return
			}
			if follower == nil {
				// The follower starts from the bootstrap snapshot's bytes
				// and builds its own index, as a full sync does.
				prev = store.SnapshotAt(1).Map()
				var buf bytes.Buffer
				if _, err := prev.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
				m, err := rem.ReadFrom(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				m.BuildCoverIndex()
				follower = m
			}
			cur := store.Current().Map()
			var err error
			if delta, err = rem.AppendDelta(delta[:0], prev, cur); err != nil {
				t.Error(err)
				return
			}
			if follower, err = rem.ApplyDelta(follower, delta); err != nil {
				t.Error(err)
				return
			}
			lc, _ := cur.CoverMendStats()
			fc, _ := follower.CoverMendStats()
			if lc != fc {
				t.Errorf("batch %d: leader mended %d cubes, follower %d", r.Seq, lc, fc)
			}
			leaderCubes += lc
			followerCubes += fc
			deltaBytes += len(delta)
			prev = cur
		},
	}
	if _, err := core.RunIngestWithDataset(cfg, data, nil); !errors.Is(err, remwal.ErrClosed) {
		t.Fatalf("ingest ended with %v, want queue closure", err)
	}
	if t.Failed() {
		return
	}
	t.Logf("%d batches: leader %d cubes, follower %d cubes, %d delta bytes",
		batches, leaderCubes, followerCubes, deltaBytes)
	if leaderCubes > maxMendedCubes || followerCubes > maxMendedCubes {
		t.Errorf("mended %d cubes on the leader and %d on the follower, ceiling %d each", leaderCubes, followerCubes, maxMendedCubes)
	}
	if deltaBytes > maxDeltaBytes {
		t.Errorf("shipped %d delta bytes, ceiling %d", deltaBytes, maxDeltaBytes)
	}
}
