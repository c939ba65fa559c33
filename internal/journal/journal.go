// Package journal is the fleet's flight recorder: an append-only,
// segment-rotated JSONL event log with deterministic encoding, crash-safe
// appends, and cursor-based reads. The coordinator journals every work
// queue lifecycle transition (enqueue, lease, renew, complete, reject,
// requeue, drain, quarantine, injected fault, ...) so a crashed or killed
// process leaves a durable, replayable account of what its scheduler
// decided and why — the forensic counterpart of the in-memory /metrics
// and /work/traces views, which vanish with the process.
//
// Design constraints, in priority order:
//
//   - Inert: the journal is write-only from the queue's point of view.
//     Nothing in the campaign machinery ever reads it back, so it can
//     never influence scheduling decisions, cache keys, result bytes, or
//     fingerprints (DESIGN.md invariant 10).
//   - Crash-safe: each event is one JSON line appended in a single write;
//     segment rollover closes the old segment with an fsync and creates
//     the next with a fresh name, never rewriting bytes in place. A torn
//     final line (the process died mid-append) is detected and discarded
//     on both read and reopen, so recovery is automatic and loses at most
//     the event being written at the instant of death.
//   - Deterministic encoding: events marshal with a fixed field order
//     (Go struct order) and no floating timestamps beyond the writer's
//     stamp, so identical event sequences produce identical bytes and a
//     journal diff is a semantic diff.
//
// Segments are named journal-<first-seq>.jsonl with a fixed-width decimal
// sequence number, so lexical filename order is seq order and a reader
// can skip whole segments below its cursor without opening them.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Event types. The vocabulary mirrors the work queue's state machines
// (see DESIGN.md "Distributed campaigns"): cell lifecycle transitions,
// worker lifecycle transitions, and chaos seams.
const (
	EvEnqueue    = "enqueue"    // fresh cell registered (key, kind, campaign)
	EvLease      = "lease"      // cell leased to a worker (key, worker, attempt)
	EvRenew      = "renew"      // heartbeat renewed N held leases (worker, n)
	EvComplete   = "complete"   // validated result accepted, cell done (key, worker, kind; cause "unbanked: <err>" when the store refused the bytes)
	EvError      = "error"      // worker reported an execution failure (key, worker; cause held|stale)
	EvReject     = "reject"     // submission failed validation (key, worker; cause held|stale)
	EvDuplicate  = "duplicate"  // submission for an already-done cell (key, worker)
	EvRequeue    = "requeue"    // cell returned to the queue front (key, worker; cause expire|drain|error|reject)
	EvFail       = "fail"       // cell permanently failed, attempts exhausted (key, worker, cause)
	EvBank       = "bank"       // valid result for an untracked key banked to the store (key, worker)
	EvCancel     = "cancel"     // last waiter cancelled a pending cell; cell dropped (key)
	EvDrain      = "drain"      // worker flipped active -> draining (worker)
	EvResume     = "resume"     // worker returned to active (worker)
	EvQuarantine = "quarantine" // worker quarantined after repeated rejects (worker)
	EvFault      = "fault"      // injected fault fired coordinator-side (key, worker, cause)
)

// Event is one journaled transition. Fields are omitempty so each line
// carries only what its type needs; Seq and T are stamped by the Writer
// at append time (callers leave them zero).
type Event struct {
	Seq      uint64 `json:"seq"`
	T        int64  `json:"t,omitempty"` // unix nanoseconds, writer-local clock
	Type     string `json:"type"`
	Key      string `json:"key,omitempty"`      // cell content key
	Worker   string `json:"worker,omitempty"`   // worker ID
	Campaign string `json:"campaign,omitempty"` // engine campaign ID (enqueue only)
	Kind     string `json:"kind,omitempty"`     // "sim" or "train"
	Cause    string `json:"cause,omitempty"`    // type-specific detail (see constants)
	Attempt  int    `json:"attempt,omitempty"`  // lease attempt number (lease only)
	N        int    `json:"n,omitempty"`        // batch size (renew only)
}

// Options tunes a Writer. The zero value is a sane production default.
type Options struct {
	// SegmentBytes is the rotation threshold: when the current segment
	// reaches it, the segment is fsynced, closed, and a new one started.
	// 0 selects 4 MiB. Rotation is the cheap durability point — every
	// completed segment is fully on disk.
	SegmentBytes int64

	// SyncEvery fsyncs the current segment after every N appends. 0 means
	// sync only on rotation and Close (fast; a crash can lose the tail of
	// the current segment). 1 makes every event durable before Record
	// returns (slow; use for forensic-critical runs).
	SyncEvery int
}

const defaultSegmentBytes = 4 << 20

// segPrefix/segSuffix frame segment filenames: journal-<%020d first-seq>.jsonl.
const (
	segPrefix = "journal-"
	segSuffix = ".jsonl"
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

// segFirstSeq parses a segment filename's first-seq, or returns false.
func segFirstSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Writer appends events to a journal directory. Safe for concurrent use;
// Record is the only mutating entry point. The zero Writer is not usable —
// construct with Open.
type Writer struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	size      int64
	seq       uint64 // last assigned sequence number
	sinceSync int
	err       error // first unrecoverable append error, sticky
}

// Open creates (or reopens for append) the journal in dir. Reopening
// resumes sequence numbering after the last complete event on disk; a
// torn final line from a crashed writer is truncated away first, so the
// segment is again a whole number of events.
func Open(dir string, opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{dir: dir, opts: opts}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return w, nil // first Record creates segment 1 lazily
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, last.name)
	clean, lastSeq, err := repairTail(path)
	if err != nil {
		return nil, err
	}
	if lastSeq == 0 {
		// The final segment holds no complete event (created and torn
		// immediately): its first-seq names the next event to write.
		w.seq = last.firstSeq - 1
	} else {
		w.seq = lastSeq
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen segment: %w", err)
	}
	w.f, w.size = f, clean
	return w, nil
}

// repairTail truncates a segment to its last complete line and returns
// the clean size plus the last complete event's seq (0 if none).
func repairTail(path string) (int64, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	clean := len(data)
	if clean > 0 && data[clean-1] != '\n' {
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			clean = i + 1
		} else {
			clean = 0
		}
		if err := os.Truncate(path, int64(clean)); err != nil {
			return 0, 0, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	var lastSeq uint64
	for _, line := range bytes.Split(data[:clean], []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev Event
		if json.Unmarshal(line, &ev) == nil && ev.Seq > lastSeq {
			lastSeq = ev.Seq
		}
	}
	return int64(clean), lastSeq, nil
}

// Record stamps ev with the next sequence number and the writer's clock,
// appends it, and returns the assigned seq. Append errors are sticky:
// once the disk fails, every later Record reports the first error and the
// journal stops growing — callers treating the journal as observational
// (the work queue does) may ignore the error; forensic callers check it.
func (w *Writer) Record(ev Event) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	ev.Seq = w.seq + 1
	ev.T = time.Now().UnixNano()
	line, err := json.Marshal(ev)
	if err != nil {
		return 0, fmt.Errorf("journal: encode: %w", err)
	}
	line = append(line, '\n')
	if w.f == nil {
		if err := w.openSegmentLocked(ev.Seq); err != nil {
			w.err = err
			return 0, err
		}
	}
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return 0, w.err
	}
	w.seq = ev.Seq
	w.size += int64(len(line))
	w.sinceSync++
	if w.opts.SyncEvery > 0 && w.sinceSync >= w.opts.SyncEvery {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.seq, w.err
		}
		w.sinceSync = 0
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return w.seq, err
		}
	}
	return w.seq, nil
}

// openSegmentLocked starts the segment whose first event will be firstSeq.
func (w *Writer) openSegmentLocked(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(firstSeq)),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	w.f, w.size, w.sinceSync = f, 0, 0
	return nil
}

// rotateLocked seals the current segment (fsync, so every completed
// segment is durable) and arranges for the next Record to start a new
// one. The directory entry is synced so the sealed segment's name
// survives a crash too.
func (w *Writer) rotateLocked() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("journal: seal segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		return fmt.Errorf("journal: seal segment: %w", err)
	}
	w.f = nil
	if d, err := os.Open(w.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Sync flushes the current segment to stable storage.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: sync: %w", err)
		return w.err
	}
	w.sinceSync = 0
	return nil
}

// Close syncs and closes the current segment. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil && err != nil {
		w.err = fmt.Errorf("journal: close: %w", err)
	}
	return w.err
}

// Seq returns the last assigned sequence number (0 before any Record).
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the writer's sticky error, if any append has failed.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// ReadSince lets a live Writer serve cursor reads over its own directory
// (GET /work/journal does this). Events are written unbuffered, so the
// directory is always current up to the torn-tail tolerance.
func (w *Writer) ReadSince(cursor uint64, max int) ([]Event, error) {
	return ReadSince(w.dir, cursor, max)
}

type segInfo struct {
	name     string
	firstSeq uint64
}

// segments lists the journal's segment files in seq order.
func segments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := segFirstSeq(e.Name()); ok {
			segs = append(segs, segInfo{name: e.Name(), firstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// ReadSince returns up to max events with Seq > cursor from the journal
// in dir, in sequence order (max <= 0 means all). Whole segments below
// the cursor are skipped by filename without being opened. A torn final
// line (crashed writer) is silently ignored; it will either be truncated
// away by the next Open or simply never parse.
func ReadSince(dir string, cursor uint64, max int) ([]Event, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var out []Event
	for i, seg := range segs {
		// Skip a segment entirely when the next segment starts at or
		// below cursor+1 — every event here is <= cursor.
		if i+1 < len(segs) && segs[i+1].firstSeq <= cursor+1 {
			continue
		}
		f, err := os.Open(filepath.Join(dir, seg.name))
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 8<<20)
		var tail []byte
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				// A non-final unparseable line is corruption, not a torn
				// append; remember it and fail only if lines follow.
				tail = append(tail[:0], line...)
				continue
			}
			if tail != nil {
				f.Close()
				return nil, fmt.Errorf("journal: corrupt line in %s before %d", seg.name, ev.Seq)
			}
			if ev.Seq <= cursor {
				continue
			}
			out = append(out, ev)
			if max > 0 && len(out) >= max {
				f.Close()
				return out, nil
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", seg.name, err)
		}
	}
	return out, nil
}
