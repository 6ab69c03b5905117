package journal

import (
	"sort"
	"time"
)

// Fold is the one definition of what a record stream means. Every reader that
// acts on job ownership or job state — crash recovery (galaxy.Recover), a
// survivor's post-mortem of a dead peer and the cross-journal exactly-once
// audit (internal/cluster) — folds the stream here and projects from the
// History, so the audit certifies the protocol recovery actually ran.
//
// The rules, kind by kind:
//
//   - submit opens a job's Trail and names its first Owner; a second submit
//     for the same job is ignored. Records of a job with no submit in the
//     stream (its head was compacted away) belong to no trail.
//   - start replaces Start (the newest launch epoch and its placement);
//     every start's time is also kept in Starts.
//   - attempt appends to Attempts.
//   - complete and dead_letter set Terminal; resubmit clears it and rebases
//     AttemptBase, so the retry budget restarts with the failure log kept.
//   - adopt moves Owner to the writer and records the previous owner in From.
//   - steal_prepare sets Prepared without moving Owner; steal_retire moves
//     Owner to the thief and steal_abort leaves it, both closing Prepared.
//   - lease folds per handler, workflow definitions and jobless complete
//     records (workflow verdicts) per workflow, claim records in order.
//   - any other kind is ignored: journals written before the schedule, queue,
//     quarantine, preempt and map kinds were retired still fold.
//
// A trail reads only its own job's records in written order, and leases only
// their handler's, so any interleaving that keeps those orders folds to the
// same History — which is what lets Replay merge shards by ticket.
//
// Pointer fields alias recs.
func Fold(recs []Record) *History {
	h := &History{
		Jobs:      make(map[int]*Trail),
		Leases:    make(map[string]Lease),
		Workflows: make(map[int]Record),
		Verdicts:  make(map[int]Record),
	}
	for i := range recs {
		rec := &recs[i]
		if rec.At > h.LastAt {
			h.LastAt = rec.At
		}
		if rec.Job > h.MaxJob {
			h.MaxJob = rec.Job
		}
		switch rec.Type {
		case TypeWorkflow:
			if _, seen := h.Workflows[rec.Workflow]; !seen {
				h.Workflows[rec.Workflow] = *rec
				h.WorkflowOrder = append(h.WorkflowOrder, rec.Workflow)
			}
			continue
		case TypeLease:
			l, seen := h.Leases[rec.Handler]
			if !seen {
				l.First = rec.At
			}
			l.Last = rec.At
			l.Deadline = rec.At + rec.TTL
			if rec.Wall > 0 {
				l.WallLast = rec.Wall
				l.WallDeadline = rec.Wall + int64(rec.TTL)
			}
			h.Leases[rec.Handler] = l
			continue
		case TypeClaim:
			h.Claims = append(h.Claims, *rec)
			continue
		}
		if rec.Job == 0 {
			if rec.Type == TypeComplete && rec.Workflow != 0 {
				h.Verdicts[rec.Workflow] = *rec
			}
			continue
		}
		t := h.Jobs[rec.Job]
		if t == nil {
			if rec.Type == TypeSubmit {
				h.Jobs[rec.Job] = &Trail{Submit: *rec, Owner: rec.Handler}
				h.Order = append(h.Order, rec.Job)
			}
			continue
		}
		switch rec.Type {
		case TypeStart:
			t.Start = rec
			t.Starts = append(t.Starts, rec.At)
		case TypeAttempt:
			t.Attempts = append(t.Attempts, *rec)
		case TypeComplete, TypeDeadLetter:
			t.Terminal = rec
		case TypeResubmit:
			t.Terminal = nil
			t.AttemptBase = len(t.Attempts)
		case TypeAdopt:
			t.Owner = rec.Handler
			t.From = rec.From
		case TypeStealPrepare:
			t.Prepared = rec
		case TypeStealRetire:
			t.Owner = rec.Handler
			t.Prepared = nil
		case TypeStealAbort:
			t.Prepared = nil
		}
	}
	sort.Ints(h.Order)
	return h
}

// History is a folded record stream.
type History struct {
	// Jobs holds one Trail per job whose submit record is in the stream;
	// Order lists their IDs ascending.
	Jobs  map[int]*Trail
	Order []int
	// Leases is each handler's heartbeat trail.
	Leases map[string]Lease
	// Workflows maps workflow IDs to their definition records (first wins),
	// WorkflowOrder lists them as first written, and Verdicts holds each
	// finished workflow's jobless complete record.
	Workflows     map[int]Record
	WorkflowOrder []int
	Verdicts      map[int]Record
	// Claims is every rebalance-claim record, in stream order.
	Claims []Record
	// LastAt is the newest record's virtual time. MaxJob is the highest job
	// ID any record names — including records whose trail was dropped, so an
	// allocator resumed past it never reissues an ID the directory has seen.
	LastAt time.Duration
	MaxJob int
}

// Trail is one job's folded records.
type Trail struct {
	Submit Record
	// Owner is the handler the job belongs to: the submit record's writer
	// until an adopt or steal_retire moves it. From is the previous owner an
	// adopt named ("" for a job that was never transferred in).
	Owner string
	From  string
	// Start is the newest start record; Starts lists every start's time.
	Start  *Record
	Starts []time.Duration
	// Attempts is the classified-failure log; the current retry budget
	// counts from AttemptBase (moved by resubmit).
	Attempts    []Record
	AttemptBase int
	// Terminal is the complete or dead_letter record closing the trail, nil
	// while the job is open (or reopened by a resubmit).
	Terminal *Record
	// Prepared is the newest steal_prepare no retire or abort has closed: a
	// tentative transfer whose outcome only the thief's journal knows.
	Prepared *Record
}

// Lease summarizes one handler's heartbeat records.
type Lease struct {
	// First and Last are the handler's first and newest heartbeat times;
	// Deadline is when the newest expires (Last + TTL).
	First, Last, Deadline time.Duration
	// WallLast and WallDeadline are the newest wall-stamped heartbeat and its
	// expiry in unix nanoseconds (0 when the writer had no wall clock).
	WallLast, WallDeadline int64
}
