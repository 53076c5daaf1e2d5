// Package remwal is the durability layer of the ingestion edge: a
// segmented write-ahead log of observation batches, in the snapshot
// codec's dialect (rem/wire.go — little-endian integers, 4-byte magic
// and a u32 format version first, CRC-32/IEEE integrity), plus the
// bounded ingest queue remserve's POST /observe feeds and core's
// ingest loop drains.
//
// A segment file is
//
//	magic "REML" | u32 version (1) | u64 first sequence number
//
// followed by length-prefixed CRC-framed records:
//
//	u32 payload length | u32 CRC-32/IEEE of payload | payload bytes
//
// Records are observation batches in the "REMO" encoding (batch.go),
// but the log itself is payload-agnostic. Segments are named
// <first-seq, 16 hex digits>.reml and rotate at SegmentBytes. Segments
// are never pruned: a restart replays the whole history, which rule 10
// needs until a durable checkpoint exists to replay from.
//
// The replayer (Open) is the crash-recovery half of determinism
// contract rule 10: it scans the segments in sequence order and
// truncates at the first torn or corrupt record — a crash mid-write
// loses at most the unacknowledged tail, never an acknowledged record
// (with SyncAlways, the default, Append returns only after fsync).
// Open never fails on corruption and never panics on hostile bytes
// (FuzzWALReplay): the corrupt segment is physically truncated at the
// last good record and any later segments are deleted, so the log is
// immediately appendable again and a second Open replays the same
// prefix.
package remwal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rem"
	"repro/internal/remobs"
)

const (
	segMagic   = "REML"
	segVersion = 1
	// segHeaderLen is the fixed segment prefix: magic, version, first
	// sequence number.
	segHeaderLen = 4 + 4 + 8
	// recHeaderLen frames one record: payload length, payload CRC.
	recHeaderLen = 4 + 4

	// DefaultSegmentBytes rotates segments at 4 MiB, so a directory
	// holds few files and no one file grows without bound.
	DefaultSegmentBytes = 4 << 20

	// maxRecordLen bounds one record payload, mirroring the serving
	// layer's body cap with headroom; a declared length beyond it is
	// treated as corruption, so a torn length field cannot make the
	// replayer attempt a huge allocation.
	maxRecordLen = 64 << 20
)

// SyncPolicy selects when Append reaches the disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append — an acknowledged record
	// survives kill -9 and power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS (and to explicit Sync/Close
	// calls). A crash may lose an acknowledged tail; replay then
	// recovers the longest synced prefix (rule 10's fsync-lag fault).
	SyncNone
)

// Config tunes a Log.
type Config struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// Sync is the fsync policy (zero value: SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size (≤ 0 means DefaultSegmentBytes).
	SegmentBytes int64
	// Observer attaches the observability layer before replay runs, so
	// the recovery pass itself lands in the replay histogram and event
	// ring. nil leaves the log uninstrumented (SetObserver can still
	// attach later, missing only the replay).
	Observer *remobs.Observer
}

// Record is one replayed WAL entry.
type Record struct {
	// Seq is the record's log-wide sequence number (1-based).
	Seq uint64
	// Payload is the framed bytes, CRC-verified.
	Payload []byte
}

// ErrLogClosed is returned by Append and Sync after Close.
var ErrLogClosed = errors.New("remwal: log closed")

// ErrLogFailed is wrapped by every Append and Sync after a write, fsync
// or rotation of the log has failed. The log is fail-stop: after such an
// error the active segment may end in a torn frame, and a record
// appended behind it would be dropped by replay together with every
// later one, so the log refuses further writes (and retries no fsync)
// instead of acknowledging batches it cannot replay.
var ErrLogFailed = errors.New("remwal: log failed")

// segment is one on-disk file of the log.
type segment struct {
	path     string
	firstSeq uint64
}

// Log is the segmented write-ahead log. All methods are safe for
// concurrent use; appends are serialised.
type Log struct {
	dir      string
	sync     SyncPolicy
	segBytes int64

	mu      sync.Mutex
	f       *os.File // active segment, open for append
	size    int64    // bytes written to the active segment
	nextSeq uint64
	scratch []byte // frame assembly buffer, reused across appends
	closed  bool
	failed  error // the first write, fsync or rotation error; sticky
	// o is the attached instrument set (observe.go); nil means
	// uninstrumented. Written under mu by SetObserver, read under mu on
	// the append path.
	o *logObs
}

// Open opens (or creates) the log in cfg.Dir and replays every intact
// record, truncating at the first torn or corrupt one. The returned
// records are the durable history in append order; the log is ready
// for Append, continuing the sequence numbering after them.
func Open(cfg Config) (*Log, []Record, error) {
	if cfg.Dir == "" {
		return nil, nil, errors.New("remwal: config needs a directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{dir: cfg.Dir, sync: cfg.Sync, segBytes: cfg.SegmentBytes}
	l.SetObserver(cfg.Observer)
	replayStart := time.Now()
	recs, tail, err := l.replay()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openActive(tail); err != nil {
		return nil, nil, err
	}
	l.observeReplay(len(recs), time.Since(replayStart))
	return l, recs, nil
}

// segmentPath names the segment whose first record is seq.
func (l *Log) segmentPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016x.reml", seq))
}

// listSegments enumerates the on-disk segments in sequence order,
// ignoring anything that is not a well-formed segment name (the log
// owns its directory, but a stray file must not wedge recovery).
func (l *Log) listSegments() ([]segment, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".reml") || len(name) != 16+5 {
			continue
		}
		seq, err := strconv.ParseUint(name[:16], 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// replay scans the segments in order, collecting intact records and
// repairing the log in place: the first segment with a corrupt header
// (or a sequence gap) is deleted along with everything after it; a
// segment with a corrupt record is truncated at the last good offset
// and everything after it is deleted. tail is the last segment kept
// (nil when none is).
func (l *Log) replay() (recs []Record, tail *segment, err error) {
	segs, err := l.listSegments()
	if err != nil {
		return nil, nil, err
	}
	l.nextSeq = 1
	for i, s := range segs {
		if i == 0 {
			// The first remaining segment fixes the numbering origin.
			l.nextSeq = s.firstSeq
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, nil, err
		}
		good, segRecs := scanSegment(data, s.firstSeq)
		headerOK := good > 0
		if !headerOK || s.firstSeq != l.nextSeq {
			// A corrupt header or a gap in the sequence: this segment and
			// everything after it are unusable.
			if err := removeAll(segs[i:]); err != nil {
				return nil, nil, err
			}
			return recs, tail, nil
		}
		recs = append(recs, segRecs...)
		l.nextSeq = s.firstSeq + uint64(len(segRecs))
		if good < int64(len(data)) {
			// A torn or corrupt record: keep the intact prefix, drop the
			// tail and every later segment.
			if err := os.Truncate(s.path, good); err != nil {
				return nil, nil, err
			}
			if err := removeAll(segs[i+1:]); err != nil {
				return nil, nil, err
			}
			return recs, &segs[i], nil
		}
		tail = &segs[i]
	}
	return recs, tail, nil
}

// scanSegment validates one segment's bytes: the byte offset of the
// last intact record's end (0 when the header itself is bad) and the
// decoded records. Every check guards an allocation, so hostile bytes
// (FuzzWALReplay) cost at most one bounded copy.
func scanSegment(data []byte, firstSeq uint64) (good int64, recs []Record) {
	if len(data) < segHeaderLen ||
		string(data[:4]) != segMagic ||
		rem.U32(data[4:]) != segVersion ||
		rem.U64(data[8:]) != firstSeq {
		return 0, nil
	}
	off := int64(segHeaderLen)
	seq := firstSeq
	for {
		rest := data[off:]
		if len(rest) < recHeaderLen {
			return off, recs
		}
		n := rem.U32(rest)
		if uint64(n) > maxRecordLen || uint64(recHeaderLen)+uint64(n) > uint64(len(rest)) {
			return off, recs
		}
		payload := rest[recHeaderLen : recHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != rem.U32(rest[4:]) {
			return off, recs
		}
		// The copy detaches the record from the file read buffer.
		recs = append(recs, Record{Seq: seq, Payload: append([]byte(nil), payload...)})
		seq++
		off += recHeaderLen + int64(n)
	}
}

// removeAll deletes the listed segment files.
func removeAll(segs []segment) error {
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	return nil
}

// openActive opens the last replayed segment for append, or creates
// the first one when replay kept none.
func (l *Log) openActive(tail *segment) error {
	if tail == nil {
		return l.createSegment()
	}
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, info.Size()
	return nil
}

// createSegment starts a fresh segment whose first record will be
// nextSeq, fsyncing the directory so the new name itself is durable.
func (l *Log) createSegment() error {
	path := l.segmentPath(l.nextSeq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	rem.PutU32(hdr[4:], segVersion)
	rem.PutU64(hdr[8:], l.nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if l.sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.size = f, segHeaderLen
	return nil
}

// syncDir fsyncs a directory so a just-created file name survives a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Append frames payload into the active segment (rotating first if it
// is full) and returns the record's sequence number. With SyncAlways
// the record is on disk when Append returns — the acknowledgement
// contract POST /observe relies on.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("remwal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordLen)
	}
	rec := int64(recHeaderLen + len(payload))
	if l.size > segHeaderLen && l.size+rec > l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, l.failLocked(err)
		}
	}
	var start time.Time
	if l.o != nil {
		start = time.Now()
	}
	l.scratch = l.scratch[:0]
	l.scratch = rem.AppendU32(l.scratch, uint32(len(payload)))
	l.scratch = rem.AppendU32(l.scratch, crc32.ChecksumIEEE(payload))
	l.scratch = append(l.scratch, payload...)
	if _, err := l.f.Write(l.scratch); err != nil {
		return 0, l.failLocked(err)
	}
	l.size += rec
	var fsyncD time.Duration
	if l.sync == SyncAlways {
		var t0 time.Time
		if l.o != nil {
			t0 = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return 0, l.failLocked(err)
		}
		if l.o != nil {
			fsyncD = time.Since(t0)
		}
	}
	seq := l.nextSeq
	l.nextSeq++
	if l.o != nil {
		l.observeAppend(seq, time.Since(start), fsyncD)
	}
	return seq, nil
}

// usableLocked is the error a write must return before touching the
// file: the log is closed, or failed earlier.
func (l *Log) usableLocked() error {
	if l.closed {
		return ErrLogClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	return nil
}

// failLocked makes the first failure sticky and returns err: no later
// Append or Sync touches the file.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = err
		l.observeFailure(err)
	}
	return err
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	return l.createSegment()
}

// Sync flushes the active segment to disk — the explicit flush point
// for SyncNone logs (graceful shutdown, periodic checkpoints).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.failLocked(err)
	}
	return nil
}

// Close fsyncs and closes the active segment; the tail record is
// intact on the next Open regardless of the sync policy. Further
// appends fail with ErrLogClosed. A failed log is closed without
// another fsync, and Close reports the failure.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.failed != nil {
		if l.f != nil {
			l.f.Close()
		}
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// NextSeq returns the sequence number the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}
