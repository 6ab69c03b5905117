package journal

import (
	"slices"
	"time"
)

// Fold is the one definition of what a record stream means. Every reader that
// acts on job ownership or job state — crash recovery (galaxy.Recover), a
// survivor's post-mortem of a dead peer and the cross-journal exactly-once
// audit (internal/cluster) — folds the stream through History.Add, record by
// record, and projects from the History, so the audit certifies the protocol
// recovery actually ran. Fold is that loop; Recover runs it itself, acting on
// each record as it is added.
//
// Every job record is checked against the lifecycle (lifecycle.go): a trail
// starts in queued at its submit, and each record must be one the move out
// of the trail's State writes, after any record-less moves the stream cannot
// show. A record the lifecycle refuses — a second submit, anything after a
// terminal record but a resubmit, a complete while a steal is in flight — is
// applied to nothing and listed on Trail.Illegal. The rules, kind by kind:
//
//   - submit opens a job's Trail and names its first Owner. Records of a job
//     with no submit in the stream (its head was compacted away) belong to
//     no trail.
//   - start moves the job to running and adds its time to Starts.
//   - attempt and adopt move nothing: both are legal in any state that is
//     not done. adopt moves Owner to the writer and records the previous
//     owner in From; an attempt changes nothing the trail holds (the failure
//     log and its retry budget are the engine's, rebuilt by Recover).
//   - complete (to ok or error, as its State says) and dead_letter close
//     the trail; resubmit reopens a dead letter.
//   - steal_prepare leaves Owner; steal_retire moves it to the thief and
//     steal_abort leaves it.
//   - every record that moves the job becomes Last.
//   - workflow definitions and jobless complete records (workflow verdicts)
//     fold per workflow, claim records in order.
//   - any other kind is ignored: journals written before the lease, schedule,
//     queue, quarantine, preempt and map kinds were retired still fold.
//
// A trail reads only its own job's records in written order, so any
// interleaving that keeps those orders (and the one writer's order of its
// jobless records) folds to the same History.
//
// Pointer fields alias recs.
func Fold(recs []Record) *History {
	h := new(History)
	for i := range recs {
		h.Add(&recs[i])
	}
	return h
}

// Add folds one more record into h, by Fold's rules; the zero History is
// empty. It returns the trail rec belongs to — nil for a record no trail
// reads: a jobless or workflow record, one before its job's submit, a retired
// kind — and whether the lifecycle allowed it there. A refused record is on
// t.Illegal and applied to nothing. t.Last aliases rec.
func (h *History) Add(rec *Record) (t *Trail, legal bool) {
	if h.Jobs == nil {
		h.Jobs, h.Workflows, h.Verdicts = make(map[int]*Trail), make(map[int]Record), make(map[int]Record)
	}
	h.LastAt, h.MaxJob = max(h.LastAt, rec.At), max(h.MaxJob, rec.Job)
	switch {
	case rec.Type == TypeWorkflow:
		if _, seen := h.Workflows[rec.Workflow]; !seen {
			h.Workflows[rec.Workflow] = *rec
			h.WorkflowOrder = append(h.WorkflowOrder, rec.Workflow)
		}
		return nil, false
	case rec.Type == TypeClaim:
		h.Claims = append(h.Claims, *rec)
		return nil, false
	case rec.Job == 0:
		if rec.Type == TypeComplete && rec.Workflow != 0 {
			h.Verdicts[rec.Workflow] = *rec
		}
		return nil, false
	}
	if t = h.Jobs[rec.Job]; t == nil {
		if rec.Type != TypeSubmit {
			return nil, false
		}
		t = &Trail{Submit: *rec, Owner: rec.Handler, State: StateQueued, Last: rec}
		h.Jobs[rec.Job] = t
		i, _ := slices.BinarySearch(h.Order, rec.Job)
		h.Order = slices.Insert(h.Order, i, rec.Job)
		return t, true
	}
	to := t.State
	switch rec.Type {
	case TypeAttempt, TypeAdopt: // they move nothing
		legal = !t.State.Done()
	case TypeComplete:
		to = State(rec.State)
		legal = follows[t.State][to] == TypeComplete
	default:
		var known bool
		if to, known = writes[rec.Type]; !known {
			return nil, false // a retired or unknown kind
		}
		legal = follows[t.State][to] == rec.Type
	}
	if !legal {
		t.Illegal = append(t.Illegal, *rec)
		return t, false
	}
	switch rec.Type {
	case TypeAttempt:
		return t, true
	case TypeAdopt:
		t.Owner, t.From = rec.Handler, rec.From
		return t, true
	case TypeStart:
		t.Starts = append(t.Starts, rec.At)
	case TypeStealRetire:
		t.Owner = rec.Handler
	}
	t.State, t.Last = to, rec
	return t, true
}

// History is a folded record stream.
type History struct {
	// Jobs holds one Trail per job whose submit record is in the stream;
	// Order lists their IDs ascending.
	Jobs  map[int]*Trail
	Order []int
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
	// State is where the job's legal records leave it, and Last the record
	// that moved it there (the submit, first): a terminal trail's complete
	// or dead_letter, a prepared one's steal_prepare — a tentative transfer
	// whose outcome only the thief's journal knows — a stolen one's
	// steal_retire.
	State State
	Last  *Record
	// Illegal lists the records the lifecycle refused, in stream order;
	// each was applied to nothing.
	Illegal []Record
	// Owner is the handler the job belongs to: the submit record's writer
	// until an adopt or steal_retire moves it. From is the previous owner an
	// adopt named ("" for a job that was never transferred in).
	Owner string
	From  string
	// Starts lists every start's time.
	Starts []time.Duration
}
