// Package journal is the durable job-state write-ahead log that makes the
// dispatch substrate crash-safe. Every job state transition, ownership
// transfer and handler heartbeat is appended as one length-prefixed,
// CRC32-checksummed record; replaying the log and folding it (Fold is the one
// definition of what the records mean) rebuilds the engine's state after a
// crash, and lease records let a standby handler detect a dead peer and adopt
// its orphaned jobs.
//
// On-disk format. A journal is a directory of per-stripe subdirectories
// (shard-00/, shard-01/, ...) holding segment files (wal-00000001.seg,
// wal-00000002.seg, ...), plus at most a few top-level snapshot files
// (snap-00000005.json). Each record is framed as
//
//	uint32 LE payload length | uint32 LE CRC32(payload) | payload (JSON)
//
// Records never span segments.
//
// Writing. Each stripe is an independent staged pipeline — one staging
// queue, a flusher goroutine, one fsync per batch (see shard.go) — and the
// only code that writes a segment. Every record carries a global commit
// ticket (Record.Tick); a stripe's segment files are strictly in ticket
// order, a job's records always land in one stripe, and replay sorts every
// stream back into the journal-wide total order by ticket. Snapshots stay top-level and supersede by ticket: segment records
// below the snapshot's lowest ticket are dropped at replay, and compaction
// deletes the segments they sit in. Segments directly in the journal
// directory are the flat layout older versions wrote; they are read as one
// more stream and never written.
//
// Corruption. Appends are staged and fsynced in batches, so a crash can
// leave a torn record at the tail of a stripe's last segment (and fault injection
// or disk rot can flip bits anywhere). Replay never panics on bad input: a
// corrupt record ends only its own segment — each process incarnation
// appends to a fresh segment, so a torn tail is always sealed inside the
// crashed incarnation's file and later segments stay trustworthy — and the
// first anomaly is reported as a typed *CorruptRecordError alongside
// everything that was recovered. Snapshot corruption is different: it
// destroys the compacted base, so replay stops and callers must treat it
// as data loss (see CorruptRecordError.IsSnapshot).
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"time"
)

// Type discriminates journal records.
type Type string

// Record types, one per journaled transition. A kind exists only while Fold
// reads it (TestFoldReadsEveryRecordKind), a field only while a program reads
// it (TestRecordFieldsAreRead): what no reader acts on is reported to the
// observer, not written. A job that never fails writes submit, start, complete.
const (
	// TypeSubmit records a job entering the system. Submits are the
	// journal's durability points: with Options.DurableSubmits they are
	// fsynced before Append returns, so an acknowledged job survives any
	// later crash.
	TypeSubmit Type = "submit"
	// TypeMap is retired: nothing writes it, Fold ignores it, and the mapping
	// decision goes to obs.Observer.Mapped. Declared for bench/layers.go only.
	TypeMap Type = "map"
	// TypeStart records one launch epoch beginning execution.
	TypeStart Type = "start"
	// TypeAttempt records one classified dispatch failure — the retry
	// epoch boundary. Devices carries the fault's culprit devices, which
	// replay feeds back through the quarantine.
	TypeAttempt Type = "attempt"
	// TypeComplete records a terminal ok/error state.
	TypeComplete Type = "complete"
	// TypeDeadLetter records a job exhausting fault recovery.
	TypeDeadLetter Type = "dead_letter"
	// TypeLease is a handler heartbeat: the handler asserts ownership of
	// its jobs until At+TTL.
	TypeLease Type = "lease"
	// TypeAdopt records a handler taking over a job whose owner's lease
	// expired (From is the previous owner).
	TypeAdopt Type = "adopt"
	// TypeStealPrepare is the first phase of a two-phase work steal: the
	// victim detaches the job from its scheduler and durably names a
	// tentative new owner (Handler is the thief, From the victim, Xfer the
	// victim-local transfer ID). Ownership does NOT move yet — a trail
	// ending in a prepare is an in-flight transfer whose outcome depends on
	// whether the thief's journal shows a matching accept.
	TypeStealPrepare Type = "steal_prepare"
	// TypeStealRetire is the final phase: the victim, having seen the
	// thief's accept, retires the trail. Ownership moves to Handler (the
	// thief), exactly as a TypeAdopt record would move it.
	TypeStealRetire Type = "steal_retire"
	// TypeStealAbort cancels an in-flight prepare: the thief never
	// acknowledged (or refused), and the victim requeued the job locally.
	TypeStealAbort Type = "steal_abort"
	// TypeClaim records a survivor claiming a dead member's ring stripes
	// after a lease-table eviction (From is the dead member, Stripes the
	// claimed stripe IDs). It is the durable half of the rebalance-claim
	// message: replaying any survivor's journal shows which slice of the
	// dead partition it took responsibility for.
	TypeClaim Type = "claim"
	// TypeResubmit records an admin replaying a dead-lettered job as a
	// fresh epoch (the failure log stays attached).
	TypeResubmit Type = "resubmit"
	// TypeWorkflow records a DAG workflow definition: the step graph and
	// the owner. Step-completion edges are not journaled separately — they
	// are derived at replay time by joining each member job's submit record
	// (which carries Workflow and Step) with its terminal record.
	TypeWorkflow Type = "workflow"
)

// WFStep is one step of a journaled workflow definition — the declarative
// subset that survives a restart. Dataset payloads are re-resolved by name
// through RecoverOptions.Datasets; Transform closures do not survive (a
// recovered step falls back to its upstream dataset pass-through).
type WFStep struct {
	ID      string            `json:"id"`
	Tool    string            `json:"tool"`
	After   []string          `json:"after,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
	Dataset string            `json:"dataset,omitempty"`
	// HasDataset marks steps whose caller supplied an in-memory payload
	// (possibly unnamed), so replay validation knows the step had an input.
	HasDataset bool          `json:"has_dataset,omitempty"`
	Runtime    string        `json:"runtime,omitempty"`
	Priority   int           `json:"priority,omitempty"`
	GPUs       int           `json:"gpus,omitempty"`
	EstRuntime time.Duration `json:"est_runtime,omitempty"`
	// Bytes is the step's input size, feeding the locality staging model.
	Bytes int64 `json:"bytes,omitempty"`
}

// Record is one journal entry. It is a flat union over every record type;
// unused fields are omitted from the encoding. All timestamps are virtual
// time (offsets from the simulation epoch), which is what lets a replayed
// history merge seamlessly with a resumed engine's timeline.
type Record struct {
	Type Type          `json:"t"`
	At   time.Duration `json:"at"`
	// Handler is the handler that wrote the record (job ownership flows
	// from the submit record's handler, overridden by adopt records).
	Handler string `json:"h,omitempty"`
	// Tick is the record's global commit ticket, stamped by Append. One
	// job's records sit in its shard in tick order, and Replay restores the
	// journal-wide total order by sorting every stream on it. The high bits
	// carry the writer incarnation's epoch, so tickets stay monotonic across
	// restarts. Records written before tickets existed carry 0 and sort
	// first.
	Tick uint64 `json:"k,omitempty"`

	// Job identity and submission parameters (TypeSubmit).
	Job        int               `json:"job,omitempty"`
	Tool       string            `json:"tool,omitempty"`
	User       string            `json:"user,omitempty"`
	Params     map[string]string `json:"params,omitempty"`
	Dataset    string            `json:"dataset,omitempty"`
	Runtime    string            `json:"runtime,omitempty"`
	Priority   int               `json:"priority,omitempty"`
	GPUs       int               `json:"gpus,omitempty"`
	EstRuntime time.Duration     `json:"est_runtime,omitempty"`
	Submitted  time.Duration     `json:"submitted,omitempty"`

	// Placement (TypeStart).
	Destination string `json:"dest,omitempty"`
	GPUEnabled  bool   `json:"gpu,omitempty"`
	Devices     []int  `json:"devices,omitempty"`

	// Lifecycle detail (TypeStart, TypeAttempt, TypeComplete, ...).
	Epoch   int    `json:"epoch,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Op      string `json:"op,omitempty"`
	Class   string `json:"class,omitempty"`
	Msg     string `json:"msg,omitempty"`
	State   string `json:"state,omitempty"`

	// Lease (TypeLease) fields. Wall is the writer's wall-clock time in unix
	// nanoseconds (0 when the handler has no wall-clock source): virtual
	// time stands still on an idle server, so handler liveness is asserted
	// in real time while everything else stays on the virtual clock.
	TTL  time.Duration `json:"ttl,omitempty"`
	Wall int64         `json:"wall,omitempty"`

	// From is the previous owner on TypeAdopt records, the victim on
	// TypeStealPrepare/TypeStealRetire records, and the dead member on
	// TypeClaim records.
	From string `json:"from,omitempty"`

	// Xfer is the victim-local transfer ID a two-phase steal rides
	// (TypeStealPrepare/TypeStealRetire/TypeStealAbort on the victim, and
	// echoed on the thief's accept-side submit record), so duplicate
	// message delivery folds idempotently.
	Xfer uint64 `json:"xfer,omitempty"`
	// Stripes lists the ring stripes a TypeClaim record takes over.
	Stripes []int `json:"stripes,omitempty"`

	// Workflow membership. Workflow is the owning workflow's ID (on
	// TypeWorkflow records and on member jobs' TypeSubmit records); Step
	// names the member's step within the DAG.
	Workflow int    `json:"wf,omitempty"`
	Step     string `json:"step,omitempty"`

	// Workflow definition (TypeWorkflow). MaxRecord bounds the encoded
	// size, so a definition tops out around ten thousand steps — far past
	// anything the experiments build.
	WFName  string   `json:"wf_name,omitempty"`
	WFSteps []WFStep `json:"wf_steps,omitempty"`
}

// headerSize is the per-record framing overhead: length + CRC32.
const headerSize = 8

// MaxRecord bounds one record's encoded payload. A corrupt length prefix
// must not make replay allocate gigabytes, so anything larger is treated as
// corruption.
const MaxRecord = 1 << 20

// CorruptRecordError reports the first undecodable record hit during
// replay. Within Segment, everything before Offset decoded cleanly and
// nothing at or after it can be trusted; records from later segments are
// unaffected and were still returned by Replay (unless the corruption was
// in a snapshot, which ends replay entirely).
type CorruptRecordError struct {
	// Segment names the file the corruption was found in ("" for
	// ReplayBytes).
	Segment string
	// Offset is the byte offset of the corrupt record's header.
	Offset int64
	// Reason describes the anomaly (torn header, torn payload, CRC
	// mismatch, oversized length, undecodable payload).
	Reason string
}

// Error implements the error interface.
func (e *CorruptRecordError) Error() string {
	where := e.Segment
	if where == "" {
		where = "journal"
	}
	return fmt.Sprintf("journal: corrupt record in %s at offset %d: %s", where, e.Offset, e.Reason)
}

// IsSnapshot reports whether the corruption was found in a snapshot file
// rather than a WAL segment. A segment-tail anomaly is the expected
// artifact of a crashed writer and costs at most the torn record; snapshot
// corruption truncates the compacted base and loses an unknown amount of
// acknowledged history, so recovery must not shrug it off.
func (e *CorruptRecordError) IsSnapshot() bool {
	return strings.HasPrefix(e.Segment, snapPrefix)
}

// LockedError reports that another live process holds the journal
// directory's exclusive lock (see Open).
type LockedError struct {
	// Dir is the contended journal directory.
	Dir string
}

// Error implements the error interface.
func (e *LockedError) Error() string {
	return fmt.Sprintf("%s is locked by another live handler", e.Dir)
}

// encode frames one record: header (length, CRC32 of payload) + payload.
func encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecord)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf, nil
}

// encScratch is one pooled encoder: a reusable JSON payload buffer with an
// encoder bound to it, plus the frame buffer the caller hands back through
// recycleFrame. Append-path encoding is the engine's per-record allocation
// hot spot — the payload and frame otherwise become garbage on every
// submit, and on a small machine the collector's scan time competes
// directly with the submitters.
type encScratch struct {
	payload bytes.Buffer
	enc     *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	s := &encScratch{}
	s.enc = json.NewEncoder(&s.payload)
	return s
}}

var framePool sync.Pool // of *[]byte

// encodePooled is encode for the append hot paths: the JSON scratch comes
// from a pool and the returned frame from another. The caller owns the
// frame until the record is written (or dropped), then returns it with
// recycleFrame; the flusher copies the frame into the segment's buffered
// writer before recycling.
func encodePooled(rec Record) ([]byte, error) {
	s := encPool.Get().(*encScratch)
	s.payload.Reset()
	if err := s.enc.Encode(rec); err != nil {
		encPool.Put(s)
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	payload := s.payload.Bytes()
	payload = payload[:len(payload)-1] // Encoder appends '\n'; the frame format has none
	if len(payload) > MaxRecord {
		encPool.Put(s)
		return nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), MaxRecord)
	}
	var buf []byte
	if p, ok := framePool.Get().(*[]byte); ok && cap(*p) >= headerSize+len(payload) {
		buf = (*p)[:headerSize+len(payload)]
	} else {
		buf = make([]byte, headerSize+len(payload), headerSize+len(payload)+64)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	encPool.Put(s)
	return buf, nil
}

// recycleFrame returns an encodePooled frame once the record is on its way
// to disk (copied into the segment writer) or dropped by a crash. Frames
// above a sane cap are left to the collector so one oversized record does
// not pin memory in the pool.
func recycleFrame(buf []byte) {
	if cap(buf) > 64<<10 {
		return
	}
	b := buf[:0]
	framePool.Put(&b)
}

// decodeStream decodes framed records from b until the end or the first
// anomaly. It returns the records decoded before the anomaly and a nil or
// typed *CorruptRecordError — never any other error, and never a panic.
func decodeStream(b []byte, segment string) ([]Record, *CorruptRecordError) {
	var out []Record
	off := int64(0)
	for int64(len(b)) > off {
		rest := b[off:]
		if len(rest) < headerSize {
			return out, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("torn header: %d trailing byte(s)", len(rest))}
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > MaxRecord {
			return out, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds the %d-byte limit", length, MaxRecord)}
		}
		if int64(len(rest)) < headerSize+int64(length) {
			return out, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("torn payload: header promises %d bytes, %d remain", length, len(rest)-headerSize)}
		}
		payload := rest[headerSize : headerSize+int64(length)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return out, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("CRC mismatch: header %08x, payload %08x", sum, got)}
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return out, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("undecodable payload: %v", err)}
		}
		out = append(out, rec)
		off += headerSize + int64(length)
	}
	return out, nil
}

// ReplayBytes decodes a single segment-formatted byte stream. It is the
// fuzzing entry point: whatever the input, it returns the longest valid
// record prefix and either nil or a *CorruptRecordError.
func ReplayBytes(b []byte) ([]Record, error) {
	recs, cerr := decodeStream(b, "")
	if cerr != nil {
		return recs, cerr
	}
	return recs, nil
}
