// Package journal is the durable job-state write-ahead log that makes the
// dispatch substrate crash-safe. Every job state transition and ownership
// transfer is appended as one length-prefixed, CRC32-checksummed record;
// replaying the log and folding it (Fold is the one definition of what the
// records mean) rebuilds the engine's state after a crash. Ownership of the
// directory is the flock Open takes: a handler that acquires it knows the
// previous holder is dead and may requeue everything that holder left open.
//
// On-disk format. A journal is a directory with one segment subdirectory
// (shard-00/; the name is historical) holding segment files
// (wal-00000001.seg, wal-00000002.seg, ...), plus at most a few top-level
// snapshot files (snap-00000005.json; the suffix is historical too, a
// snapshot is framed records like a segment). Each record is framed as
//
//	uint32 LE payload length | uint32 LE CRC32(payload) | payload
//
// and the payload is the binary record codec.go describes: a version byte,
// then protobuf-style numbered fields. Records never span segments. This is
// the one format: a directory holding anything older versions wrote — JSON
// payloads, segments directly in the journal directory, more shard-NN/
// subdirectories — is refused with ErrLegacyFormat, never read around.
//
// Writing. One staged pipeline — one staging queue, one flusher goroutine,
// one fsync per batch (see pipeline.go) — is the only code that writes a
// segment. Every record carries a commit ticket (Record.Tick) for life, and
// the segment files are strictly in ticket order, so replay reads them in
// sequence order. Compaction seals the live segment and copies the newest
// snapshot and the sealed segments, tickets and all, into a new top-level
// snapshot. Snapshots supersede by ticket: segment records at or below the
// snapshot's last ticket are dropped at replay, and compaction deletes the
// segments they sit in.
//
// Corruption. Appends are staged and fsynced in batches, so a crash can
// leave a torn record at the tail of the last segment (and fault injection
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"
)

// Type discriminates journal records.
type Type string

// Record types, one per journaled transition. A kind exists only while Fold
// reads it (TestFoldReadsEveryRecordKind), a field only while a program reads
// it (TestRecordFieldsAreRead): what no reader acts on is reported to the
// observer, not written. A job that never fails writes submit, start, complete.
//
// Retired kinds are not declared: lease, schedule, queue, quarantine and
// preempt. Fold ignores them, so journals that carry them still replay.
const (
	// TypeSubmit records a job entering the system. Submits are the
	// journal's durability points: Append returns only once one is fsynced,
	// so an acknowledged job survives any later crash.
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
	// TypeAdopt records a handler taking over a job another handler's
	// journal trail named as its owner (From is the previous owner).
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
// from the recovering engine's dataset registry (galaxy.RegisterDataset);
// Transform closures do not survive (a recovered step falls back to its
// upstream dataset pass-through).
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
	// GPURequest is the device pin the user wrote into the step's version
	// tag (see Record.GPURequest).
	GPURequest string `json:"gpu_request,omitempty"`
}

// Record is one journal entry. It is a flat union over every record type;
// unused fields are omitted from the encoding. All timestamps are virtual
// time (offsets from the simulation epoch), which is what lets a replayed
// history merge seamlessly with a resumed engine's timeline.
//
// Retired fields: a lease record's TTL and wall-clock stamp (codec field
// numbers 24 and 25). The decoder skips both, and neither number is ever
// reused.
type Record struct {
	Type Type          `json:"t"`
	At   time.Duration `json:"at"`
	// Handler is the handler that wrote the record (job ownership flows
	// from the submit record's handler, overridden by adopt records).
	Handler string `json:"h,omitempty"`
	// Tick is the record's global commit ticket, stamped by Append. The
	// segment files hold records in tick order, so reading them in sequence
	// order is the journal-wide total order. The high bits carry the writer
	// incarnation's epoch, so tickets stay monotonic across restarts.
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
	// GPURequest is the device pin the user wrote into the wrapper's
	// version tag (the paper's §IV-C override). A recovered, resumed or
	// stolen job keeps it, and with it the gang size it implies.
	GPURequest string `json:"gpu_request,omitempty"`

	// Placement (TypeStart): where the run went and its host process ID.
	// A start record's Msg is the placement reason.
	Destination string `json:"dest,omitempty"`
	GPUEnabled  bool   `json:"gpu,omitempty"`
	Devices     []int  `json:"devices,omitempty"`
	PID         int    `json:"pid,omitempty"`

	// Lifecycle detail (TypeStart, TypeAttempt, TypeComplete, ...).
	Epoch   int    `json:"epoch,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Op      string `json:"op,omitempty"`
	Class   string `json:"class,omitempty"`
	Msg     string `json:"msg,omitempty"`
	State   string `json:"state,omitempty"`

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

// decodeStream appends the framed records of b to dst until the end or the
// first anomaly, decoding each straight into its slot and dropping (in place)
// any whose ticket is below minTick. It returns dst and nil, a typed
// *CorruptRecordError, or — for a whole frame whose payload another format
// version wrote — an error wrapping ErrLegacyFormat; never a panic.
func decodeStream(dst []Record, b []byte, segment string, minTick uint64) ([]Record, error) {
	off := int64(0)
	for int64(len(b)) > off {
		rest := b[off:]
		if len(rest) < headerSize {
			return dst, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("torn header: %d trailing byte(s)", len(rest))}
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > MaxRecord {
			return dst, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds the %d-byte limit", length, MaxRecord)}
		}
		if int64(len(rest)) < headerSize+int64(length) {
			return dst, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("torn payload: header promises %d bytes, %d remain", length, len(rest)-headerSize)}
		}
		payload := rest[headerSize : headerSize+int64(length)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return dst, &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("CRC mismatch: header %08x, payload %08x", sum, got)}
		}
		dst = append(dst, Record{})
		rec := &dst[len(dst)-1]
		if err := decodePayload(payload, rec); errors.Is(err, ErrLegacyFormat) {
			return dst[:len(dst)-1], fmt.Errorf("%s at offset %d: %w", segment, off, err)
		} else if err != nil {
			return dst[:len(dst)-1], &CorruptRecordError{Segment: segment, Offset: off,
				Reason: fmt.Sprintf("undecodable payload: %v", err)}
		}
		if rec.Tick < minTick {
			dst = dst[:len(dst)-1]
		}
		off += headerSize + int64(length)
	}
	return dst, nil
}

// countFrames counts the records framed at the head of b, up to the first
// torn or oversized header. It reads lengths only: it sizes replay's output
// slice, and decodeStream does the checking.
func countFrames(b []byte) int {
	n := 0
	for len(b) >= headerSize {
		length := binary.LittleEndian.Uint32(b)
		if length > MaxRecord || uint64(len(b)-headerSize) < uint64(length) {
			break
		}
		b = b[headerSize+int(length):]
		n++
	}
	return n
}

// ReplayBytes decodes a single segment-formatted byte stream. It is the
// fuzzing entry point: whatever the input, it returns the longest valid
// record prefix and nil, a *CorruptRecordError or an error wrapping
// ErrLegacyFormat.
func ReplayBytes(b []byte) ([]Record, error) {
	return decodeStream(make([]Record, 0, countFrames(b)), b, "", 0)
}
