package journal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestFold pins the fold rule by rule: one named case per sentence of Fold's
// contract.
func TestFold(t *testing.T) {
	sub := func(job int, h string) Record {
		return Record{Type: TypeSubmit, At: time.Second, Handler: h, Job: job, Tool: "racon"}
	}
	cases := []struct {
		name  string
		recs  []Record
		check func(t *testing.T, h *History)
	}{
		{"adopt moves Owner and sets From",
			[]Record{sub(1, "h1"), {Type: TypeAdopt, Job: 1, Handler: "h2", From: "h1"}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h2" || tr.From != "h1" {
					t.Errorf("owner/from = %q/%q, want h2/h1", tr.Owner, tr.From)
				}
			}},
		{"steal_prepare leaves Owner and opens Prepared",
			[]Record{sub(1, "h1"), {Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7}},
			func(t *testing.T, h *History) {
				tr := h.Jobs[1]
				if tr.Owner != "h1" || tr.State != StatePrepared || tr.Last.Handler != "h2" || tr.Last.Xfer != 7 {
					t.Errorf("owner %q, %s by %+v, want h1 and prepared by the prepare naming h2/7", tr.Owner, tr.State, tr.Last)
				}
			}},
		{"steal_retire moves Owner and clears Prepared",
			[]Record{sub(1, "h1"),
				{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
				{Type: TypeStealRetire, Job: 1, Handler: "h2", From: "h1", Xfer: 7}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h2" || tr.State != StateStolen {
					t.Errorf("owner %q state %s, want h2 and stolen", tr.Owner, tr.State)
				}
			}},
		{"steal_abort clears Prepared and keeps Owner",
			[]Record{sub(1, "h1"),
				{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
				{Type: TypeStealAbort, Job: 1, Handler: "h2", From: "h1", Xfer: 7}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h1" || tr.State != StateQueued {
					t.Errorf("owner %q state %s, want h1 and queued", tr.Owner, tr.State)
				}
			}},
		{"resubmit reopens a dead letter; attempts move nothing",
			[]Record{sub(1, "h1"),
				{Type: TypeAttempt, Job: 1, Attempt: 1, Class: "transient"},
				{Type: TypeAttempt, Job: 1, Attempt: 2, Class: "transient"},
				{Type: TypeDeadLetter, Job: 1, Msg: "budget spent"},
				{Type: TypeResubmit, Job: 1},
				{Type: TypeAttempt, Job: 1, Attempt: 1, Class: "transient"}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.State != StateQueued || tr.Last.Type != TypeResubmit || len(tr.Illegal) != 0 {
					t.Errorf("state %s by %+v, refused %+v; want queued by the resubmit, none refused", tr.State, tr.Last, tr.Illegal)
				}
			}},
		{"start moves to running, Starts every one",
			[]Record{sub(1, "h1"),
				{Type: TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1, Destination: "gpu"},
				{Type: TypeStart, At: 4 * time.Second, Job: 1, Epoch: 2, Destination: "cpu"}},
			func(t *testing.T, h *History) {
				tr := h.Jobs[1]
				if tr.State != StateRunning || tr.Last.Epoch != 2 ||
					!reflect.DeepEqual(tr.Starts, []time.Duration{2 * time.Second, 4 * time.Second}) {
					t.Errorf("state %s by %+v, starts %v", tr.State, tr.Last, tr.Starts)
				}
			}},
		{"complete closes the trail",
			[]Record{sub(1, "h1"),
				{Type: TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1, Destination: "gpu"},
				{Type: TypeComplete, At: 5 * time.Second, Job: 1, State: "ok"}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.State != StateOK || tr.Last.Type != TypeComplete || h.LastAt != 5*time.Second {
					t.Errorf("state %s by %+v lastAt %v", tr.State, tr.Last, h.LastAt)
				}
			}},
		{"duplicate submit is ignored",
			[]Record{sub(1, "h1"), sub(1, "h9")},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h1" || tr.Submit.Handler != "h1" || len(h.Order) != 1 {
					t.Errorf("owner %q order %v, want the first submit only", tr.Owner, h.Order)
				}
			}},
		{"records before a submit are dropped from Jobs but counted by MaxJob",
			[]Record{{Type: TypeStart, Job: 9, Epoch: 1}, {Type: TypeComplete, Job: 9, State: "ok"},
				sub(3, "h1"), sub(2, "h1")},
			func(t *testing.T, h *History) {
				if h.Jobs[9] != nil || h.MaxJob != 9 || !reflect.DeepEqual(h.Order, []int{2, 3}) {
					t.Errorf("jobs[9]=%v maxJob=%d order=%v, want nil/9/[2 3]", h.Jobs[9], h.MaxJob, h.Order)
				}
			}},
		{"a jobless complete with a workflow is a verdict",
			[]Record{{Type: TypeWorkflow, Workflow: 4, WFName: "second"}, {Type: TypeWorkflow, Workflow: 2, WFName: "first"},
				{Type: TypeWorkflow, Workflow: 4, WFName: "dup"},
				{Type: TypeComplete, Workflow: 2, State: "error", Msg: "step failed"},
				{Type: TypeComplete, State: "ok"}},
			func(t *testing.T, h *History) {
				if v, ok := h.Verdicts[2]; !ok || v.State != "error" || len(h.Verdicts) != 1 || len(h.Jobs) != 0 {
					t.Errorf("verdicts %+v jobs %d", h.Verdicts, len(h.Jobs))
				}
				if !reflect.DeepEqual(h.WorkflowOrder, []int{4, 2}) || h.Workflows[4].WFName != "second" {
					t.Errorf("workflow order %v, def 4 %q: want as first written, first wins", h.WorkflowOrder, h.Workflows[4].WFName)
				}
			}},
		{"claims are kept in order",
			[]Record{{Type: TypeClaim, Handler: "h1", From: "h3", Stripes: []int{1, 5}},
				{Type: TypeClaim, Handler: "h1", From: "h2", Stripes: []int{7}}},
			func(t *testing.T, h *History) {
				if len(h.Claims) != 2 || h.Claims[0].From != "h3" || h.Claims[1].Stripes[0] != 7 {
					t.Errorf("claims %+v", h.Claims)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, Fold(tc.recs)) })
	}
}

// TestFoldAddReportsEachRecord pins what Add returns, record by record: the
// trail a record belongs to (none for a jobless record, a record before its
// job's submit or a retired kind) and whether the lifecycle allowed it.
func TestFoldAddReportsEachRecord(t *testing.T) {
	var h History
	steps := []struct {
		rec          Record
		trail, legal bool
	}{
		{Record{Type: TypeWorkflow, Workflow: 1}, false, false},
		{Record{Type: TypeStart, Job: 2, Epoch: 1}, false, false},
		{Record{Type: TypeSubmit, Job: 1, Handler: "h1"}, true, true},
		{Record{Type: TypeStart, Job: 1, Epoch: 1}, true, true},
		{Record{Type: TypeMap, Job: 1}, false, false},
		{Record{Type: TypeSubmit, Job: 1, Handler: "h9"}, true, false},
		{Record{Type: TypeComplete, Job: 1, State: "ok"}, true, true},
		{Record{Type: TypeAttempt, Job: 1, Attempt: 1}, true, false},
	}
	for i := range steps {
		s := &steps[i]
		tr, legal := h.Add(&s.rec)
		if (tr != nil) != s.trail || legal != s.legal || (tr != nil && tr != h.Jobs[1]) {
			t.Errorf("record %d (%s): trail %v legal %v, want a trail %v legal %v", i, s.rec.Type, tr, legal, s.trail, s.legal)
		}
	}
	if tr := h.Jobs[1]; tr.State != StateOK || len(tr.Illegal) != 2 || h.MaxJob != 2 {
		t.Errorf("folded to %s refusing %d, maxJob %d; want ok, 2 and 2", tr.State, len(tr.Illegal), h.MaxJob)
	}
}

// TestFoldIgnoresRetiredKinds replays a stream holding the kinds earlier
// versions wrote and this one neither writes nor reads — lease (with its
// retired TTL and wall-clock fields), schedule, queue, quarantine, preempt and
// map — and requires the same History as the stream without them.
func TestFoldIgnoresRetiredKinds(t *testing.T) {
	recs := []struct {
		rec     Record
		retired bool
	}{
		{Record{Type: "lease", At: 0, Handler: "h1", Tick: 1}, true},
		{Record{Type: TypeWorkflow, At: 1000, Handler: "h1", Tick: 1, Workflow: 1, WFName: "old",
			WFSteps: []WFStep{{ID: "a", Tool: "racon"}}}, false},
		{Record{Type: TypeSubmit, At: 500, Handler: "h1", Tick: 1, Job: 1, Tool: "racon", GPUs: 1, Submitted: 500}, false},
		{Record{Type: TypeMap, At: 1000, Handler: "h1", Tick: 2, Job: 1, Destination: "gpu_k80", GPUEnabled: true,
			Devices: []int{0, 1}, Msg: "GPU 0 and 1 idle: gang of 2"}, true},
		{Record{Type: "schedule", At: 1000, Handler: "h1", Tick: 3, Job: 1, GPUs: 1}, true},
		{Record{Type: "queue", At: 2000, Handler: "h1", Tick: 4, Job: 1, Devices: []int{0}}, true},
		{Record{Type: TypeStart, At: 2000, Handler: "h1", Tick: 5, Job: 1, Epoch: 1, Devices: []int{0}}, false},
		{Record{Type: "preempt", At: 2500, Handler: "h1", Tick: 6, Job: 1,
			Msg: "preempted for job 2 (priority 9 > 0, waited 100ms)"}, true},
		{Record{Type: TypeStart, At: 2600, Handler: "h1", Tick: 7, Job: 1, Epoch: 2, Devices: []int{0}}, false},
		{Record{Type: TypeAttempt, At: 3000, Handler: "h1", Tick: 8, Job: 1, Attempt: 1, Class: "transient",
			Devices: []int{0}}, false},
		{Record{Type: "quarantine", At: 3000, Handler: "h1", Tick: 9}, true},
		{Record{Type: "queue", At: 3000, Handler: "h1", Tick: 10, Job: 1}, true},
		{Record{Type: "lease", At: 3000, Handler: "h1", Tick: 11}, true},
		{Record{Type: TypeComplete, At: 3000, Handler: "h1", Tick: 12, Job: 1, State: "error"}, false},
	}
	var with, without []byte
	for _, r := range recs {
		b, err := encode(r.rec)
		if err != nil {
			t.Fatal(err)
		}
		if r.rec.Type == "lease" {
			b = frame(leasePayload(r.rec.At, r.rec.Handler, r.rec.Tick, 30*time.Second, 1000))
		}
		with = append(with, b...)
		if !r.retired {
			without = append(without, b...)
		}
	}
	all, err := ReplayBytes(with)
	if err != nil || len(all) != len(recs) {
		t.Fatalf("replayed %d of %d records, err %v", len(all), len(recs), err)
	}
	kept, err := ReplayBytes(without)
	if err != nil {
		t.Fatal(err)
	}
	got, want := Fold(all), Fold(kept)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retired kinds changed the fold:\n got %+v\nwant %+v", got.Jobs[1], want.Jobs[1])
	}
	if tr := got.Jobs[1]; tr == nil || len(tr.Starts) != 2 || tr.State != StateError || got.Workflows[1].WFName != "old" {
		t.Errorf("the stream around the retired records did not fold: trail %+v workflows %+v", tr, got.Workflows)
	}
}

// TestFoldInterleavingInvariant pins what a History depends on: the order
// within one job and within one writer's jobless records, and nothing else —
// so any shuffle that preserves those orders must fold identically.
func TestFoldInterleavingInvariant(t *testing.T) {
	perJob := []Type{TypeStart, TypeAttempt, TypeComplete, TypeDeadLetter,
		TypeResubmit, TypeAdopt, TypeStealPrepare, TypeStealRetire, TypeStealAbort, TypeSubmit, "retired"}
	handlers := []string{"h1", "h2", "h3"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Lanes: one per job, plus one for h1's workflow definitions,
		// verdicts and claims (one journal has one such writer).
		var lanes [][]Record
		for job := 1; job <= 6; job++ {
			lane := []Record{{Type: TypeSubmit, Job: job, Handler: handlers[rng.Intn(3)]}}
			if job == 6 {
				lane = nil // a trail whose submit was compacted away
			}
			for n := rng.Intn(10); n > 0; n-- {
				lane = append(lane, Record{
					Type: perJob[rng.Intn(len(perJob))], Job: job, Handler: handlers[rng.Intn(3)],
					From: handlers[rng.Intn(3)], Epoch: rng.Intn(4), State: []string{"ok", "error"}[rng.Intn(2)],
				})
			}
			lanes = append(lanes, lane)
		}
		var lane []Record
		for n := rng.Intn(4); n > 0; n-- {
			lane = append(lane,
				Record{Type: TypeWorkflow, Handler: "h1", Workflow: 1 + rng.Intn(3), WFName: strconv.Itoa(n)},
				Record{Type: TypeComplete, Handler: "h1", Workflow: 1 + rng.Intn(3), State: "ok", Msg: strconv.Itoa(n)},
				Record{Type: TypeClaim, Handler: "h1", From: "h3", Stripes: []int{n}})
		}
		lanes = append(lanes, lane)
		// Deal the lanes out in two random interleavings, timestamps
		// assigned per record up front so both carry the same ones.
		for _, lane := range lanes {
			for i := range lane {
				lane[i].At = time.Duration(rng.Intn(1000)) * time.Millisecond
			}
		}
		deal := func() []Record {
			next := make([]int, len(lanes))
			var out []Record
			for {
				var open []int
				for i, lane := range lanes {
					if next[i] < len(lane) {
						open = append(open, i)
					}
				}
				if len(open) == 0 {
					return out
				}
				i := open[rng.Intn(len(open))]
				out = append(out, lanes[i][next[i]])
				next[i]++
			}
		}
		a, b := deal(), deal()
		if ha, hb := Fold(a), Fold(b); !reflect.DeepEqual(ha, hb) {
			t.Fatalf("seed %d: two order-preserving interleavings of %d records fold differently", seed, len(a))
		}
	}
}

// TestFoldReadsEveryRecordKind is the guard against write-only record kinds:
// it reads the Type constants out of record.go and, for each, folds a small
// stream with and without one record of that kind. A kind whose presence
// leaves the History unchanged is a kind no reader acts on — it costs an
// encode, a write and a decode per record for nothing, which is how
// schedule, queue and quarantine lived for fourteen PRs. Teach Fold to read
// the new kind, or report the event to the observer instead of journaling it.
//
// One kind is read past the History: Add hands each legal attempt to its
// caller, and Recover rebuilds the failure log, the retry budget and the
// quarantine from it, so the fold keeps no copy. It must be handed on legal,
// and must not change the History.
//
// A retired kind is held to the opposite: its constant is still declared
// (bench/layers.go stages a TypeMap record as its non-durable sample), nothing
// writes it, and Fold must go on ignoring it.
func TestFoldReadsEveryRecordKind(t *testing.T) {
	retired := map[Type]bool{TypeMap: true}
	handedOn := map[Type]bool{TypeAttempt: true}
	file, err := parser.ParseFile(token.NewFileSet(), "record.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Type
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); ok && id.Name == "Type" {
			for _, v := range vs.Values {
				s, err := strconv.Unquote(v.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds = append(kinds, Type(s))
			}
		}
		return true
	})
	if len(kinds) < 10 {
		t.Fatalf("found only %d Type constants in record.go: %v", len(kinds), kinds)
	}

	// Each kind is added to a stream in which the lifecycle allows it, so
	// the fold must act on it, not merely refuse it: a submit opens the
	// trail, a retire or an abort closes an open prepare, a resubmit reopens
	// a dead letter, and every other kind follows a submit.
	submit := Record{Type: TypeSubmit, Job: 1, Handler: "h1"}
	prepare := Record{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 1}
	bases := map[Type][]Record{
		TypeSubmit:      nil,
		TypeStealRetire: {submit, prepare},
		TypeStealAbort:  {submit, prepare},
		TypeResubmit:    {submit, {Type: TypeAttempt, Job: 1, Attempt: 1}, {Type: TypeDeadLetter, Job: 1}},
	}
	for _, kind := range kinds {
		without, ok := bases[kind]
		if !ok {
			without = []Record{submit}
		}
		with := append(slices.Clone(without), Record{
			Type: kind, Job: 1, Handler: "h2", From: "h1", Workflow: 3, State: "error",
			Epoch: 1, Destination: "gpu", Stripes: []int{1},
		})
		hw, ho := Fold(with[:len(without)]), Fold(without)
		_, legal := hw.Add(&with[len(without)])
		for id, tr := range hw.Jobs {
			if len(tr.Illegal) > 0 {
				t.Errorf("record kind %q: job %d's trail refused %+v: give the kind a stream in which the lifecycle allows it", kind, id, tr.Illegal)
			}
		}
		hw.LastAt, hw.MaxJob, ho.LastAt, ho.MaxJob = 0, 0, 0, 0
		switch same := reflect.DeepEqual(hw, ho); {
		case retired[kind] && !same:
			t.Errorf("record kind %q is retired but changes the fold again: drop it from the retired list with the writer that needs it", kind)
		case handedOn[kind] && (!same || !legal):
			t.Errorf("record kind %q is read past the History, but the fold kept it (%v) or refused it (legal %v)", kind, !same, legal)
		case !retired[kind] && !handedOn[kind] && same:
			t.Errorf("record kind %q is write-only: a stream with one folds to the same History as the stream without", kind)
		}
		delete(retired, kind)
	}
	for kind := range retired {
		t.Errorf("retired kind %q is no longer declared in record.go: drop it from the retired list", kind)
	}
}

// TestFoldFlagsIllegalRecords folds whole job streams through the lifecycle.
// The two a kill racing a steal used to write — a complete between the
// prepare and its retire, or between the prepare and its abort, after which
// the job ran to ok — are flagged at the complete, which is applied to
// nothing. The streams the engine writes on its recovery and transfer paths
// fold clean to the state they end in.
func TestFoldFlagsIllegalRecords(t *testing.T) {
	rec := func(kind Type, r Record) Record { r.Type, r.Job = kind, 1; return r }
	submit := rec(TypeSubmit, Record{Handler: "h1"})
	start := rec(TypeStart, Record{Epoch: 1})
	prepare := rec(TypeStealPrepare, Record{Handler: "h2", From: "h1", Xfer: 7})
	kill := rec(TypeComplete, Record{State: "error", Msg: "killed by user"})
	ok := rec(TypeComplete, Record{State: "ok"})
	attempt := rec(TypeAttempt, Record{Attempt: 1, Class: "transient"})
	cases := []struct {
		name    string
		recs    []Record
		state   State
		owner   string
		illegal []Type
	}{
		{"kill then retire", []Record{submit, prepare, kill, rec(TypeStealRetire, Record{Handler: "h2", From: "h1", Xfer: 7})},
			StateStolen, "h2", []Type{TypeComplete}},
		{"kill then abort", []Record{submit, prepare, kill, rec(TypeStealAbort, Record{Handler: "h2", From: "h1", Xfer: 7}), start, ok},
			StateOK, "h1", []Type{TypeComplete}},
		{"a second submit", []Record{submit, rec(TypeSubmit, Record{Handler: "h9"}), start},
			StateRunning, "h1", []Type{TypeSubmit}},
		{"a start after the terminal", []Record{submit, start, ok, start},
			StateOK, "h1", []Type{TypeStart}},
		{"retry", []Record{submit, start, attempt, start, ok}, StateOK, "h1", nil},
		{"recovery restart", []Record{submit, start, rec(TypeAdopt, Record{Handler: "h2", From: "h1"}), start, ok},
			StateOK, "h2", nil},
		{"resubmit", []Record{submit, start, attempt, rec(TypeDeadLetter, Record{Msg: "budget spent"}),
			rec(TypeResubmit, Record{}), start, ok}, StateOK, "h1", nil},
		{"accept transfer", []Record{rec(TypeSubmit, Record{Handler: "h2", Xfer: 7}),
			rec(TypeAdopt, Record{Handler: "h2", From: "h1"}), start, ok}, StateOK, "h2", nil},
		{"orphan abort", []Record{submit, prepare, rec(TypeStealAbort, Record{Handler: "h2", From: "h1", Xfer: 7}),
			rec(TypeAdopt, Record{Handler: "h3", From: "h1"}), start, kill}, StateError, "h3", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.recs {
				tc.recs[i].Tick = uint64(i + 1)
			}
			tr := Fold(tc.recs).Jobs[1]
			var illegal []Type
			for _, r := range tr.Illegal {
				illegal = append(illegal, r.Type)
				if got := tc.recs[r.Tick-1].Type; got != r.Type {
					t.Errorf("illegal ticket %d names a %s, the stream holds a %s there", r.Tick, r.Type, got)
				}
			}
			if tr.State != tc.state || tr.Owner != tc.owner || !slices.Equal(illegal, tc.illegal) {
				t.Errorf("folded to %s owned by %q, illegal %v; want %s, %q, %v",
					tr.State, tr.Owner, illegal, tc.state, tc.owner, tc.illegal)
			}
		})
	}
}

// FuzzFoldWalk holds Fold to the lifecycle it reads. The input is a walk:
// each byte picks one move out of the current state (or, past the moves, an
// attempt or an adopt, which move nothing) and the walk writes the record
// that move writes; a record-less move writes nothing, which is what a park,
// a retry or a recovery requeue leaves in a journal. Whatever the walk, the
// trail folds, with no record refused, to the state the walk's last moving
// record left it in: the record-less moves after it are not in the stream.
func FuzzFoldWalk(f *testing.F) {
	for _, walk := range []string{"", "\x04\x04\x03\x01", "\x04\x05\x06\x00\x00\x04\x01", "\x02\x00\x03\x02\x01"} {
		f.Add([]byte(walk))
	}
	f.Fuzz(func(t *testing.T, walk []byte) {
		state, recorded := StateQueued, StateQueued
		recs := []Record{{Type: TypeSubmit, Job: 1, Handler: "h1", Tick: 1}}
		for _, b := range walk {
			if len(lifecycle[state].moves) == 0 {
				break
			}
			var tos []State
			for to := range lifecycle[state].moves {
				tos = append(tos, to)
			}
			slices.Sort(tos)
			r := Record{Job: 1, Handler: "h2", From: "h1", Tick: uint64(len(recs) + 1)}
			switch i := int(b) % (len(tos) + 2); {
			case i < len(tos):
				kind, _ := state.Move(tos[i])
				state = tos[i]
				if kind == "" {
					continue
				}
				r.Type, recorded = kind, state
				if kind == TypeComplete {
					r.State = string(state)
				}
			case state.Done():
				continue
			case i == len(tos):
				r.Type = TypeAttempt
			default:
				r.Type = TypeAdopt
			}
			recs = append(recs, r)
		}
		tr := Fold(recs).Jobs[1]
		if tr.State != recorded || len(tr.Illegal) > 0 {
			t.Fatalf("a walk whose last move recorded %s folded to %s, refusing %+v: %v", recorded, tr.State, tr.Illegal, recs)
		}
	})
}
