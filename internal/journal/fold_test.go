package journal

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// frame wraps a raw JSON payload in the record framing, so tests can replay
// payloads no current writer produces.
func frame(payload string) []byte {
	b := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

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
				if tr.Owner != "h1" || tr.Prepared == nil || tr.Prepared.Handler != "h2" || tr.Prepared.Xfer != 7 {
					t.Errorf("owner %q prepared %+v, want h1 and the prepare naming h2/7", tr.Owner, tr.Prepared)
				}
			}},
		{"steal_retire moves Owner and clears Prepared",
			[]Record{sub(1, "h1"),
				{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
				{Type: TypeStealRetire, Job: 1, Handler: "h2", From: "h1", Xfer: 7}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h2" || tr.Prepared != nil {
					t.Errorf("owner %q prepared %+v, want h2 and nil", tr.Owner, tr.Prepared)
				}
			}},
		{"steal_abort clears Prepared and keeps Owner",
			[]Record{sub(1, "h1"),
				{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 7},
				{Type: TypeStealAbort, Job: 1, Handler: "h2", From: "h1", Xfer: 7}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Owner != "h1" || tr.Prepared != nil {
					t.Errorf("owner %q prepared %+v, want h1 and nil", tr.Owner, tr.Prepared)
				}
			}},
		{"resubmit reopens Terminal and rebases AttemptBase",
			[]Record{sub(1, "h1"),
				{Type: TypeAttempt, Job: 1, Attempt: 1, Class: "transient"},
				{Type: TypeAttempt, Job: 1, Attempt: 2, Class: "transient"},
				{Type: TypeDeadLetter, Job: 1, Msg: "budget spent"},
				{Type: TypeResubmit, Job: 1},
				{Type: TypeAttempt, Job: 1, Attempt: 1, Class: "transient"}},
			func(t *testing.T, h *History) {
				if tr := h.Jobs[1]; tr.Terminal != nil || tr.AttemptBase != 2 || len(tr.Attempts) != 3 {
					t.Errorf("terminal %+v base %d attempts %d, want nil/2/3", tr.Terminal, tr.AttemptBase, len(tr.Attempts))
				}
			}},
		{"start keeps the newest, Starts every one",
			[]Record{sub(1, "h1"),
				{Type: TypeStart, At: 2 * time.Second, Job: 1, Epoch: 1, Destination: "gpu"},
				{Type: TypeStart, At: 4 * time.Second, Job: 1, Epoch: 2, Destination: "cpu"},
				{Type: TypeComplete, At: 5 * time.Second, Job: 1, State: "ok"}},
			func(t *testing.T, h *History) {
				tr := h.Jobs[1]
				if tr.Start.Destination != "cpu" || tr.Start.Epoch != 2 ||
					!reflect.DeepEqual(tr.Starts, []time.Duration{2 * time.Second, 4 * time.Second}) {
					t.Errorf("start %+v starts %v", tr.Start, tr.Starts)
				}
				if tr.Terminal == nil || tr.Terminal.State != "ok" || h.LastAt != 5*time.Second {
					t.Errorf("terminal %+v lastAt %v", tr.Terminal, h.LastAt)
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
		{"lease keeps first, last, deadline and wall",
			[]Record{{Type: TypeLease, At: time.Second, Handler: "h1", TTL: 30 * time.Second, Wall: 1000},
				{Type: TypeLease, At: 9 * time.Second, Handler: "h2", TTL: 30 * time.Second},
				{Type: TypeLease, At: 20 * time.Second, Handler: "h1", TTL: 10 * time.Second}},
			func(t *testing.T, h *History) {
				want := Lease{First: time.Second, Last: 20 * time.Second, Deadline: 30 * time.Second,
					WallLast: 1000, WallDeadline: 1000 + int64(30*time.Second)}
				if h.Leases["h1"] != want {
					t.Errorf("h1 lease %+v, want %+v (an unstamped heartbeat keeps the last wall stamp)", h.Leases["h1"], want)
				}
				if l := h.Leases["h2"]; l.First != 9*time.Second || l.WallLast != 0 {
					t.Errorf("h2 lease %+v", l)
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

// TestFoldIgnoresRetiredKinds replays the bytes earlier writers produced —
// schedule, queue and quarantine payloads with their qop/device/until fields
// (before PR 17), a preempt record and a workflow definition carrying
// wf_policy and wf_max_in_flight (before PR 23), a map record with the
// policy's reason and a submit carrying delay (before PR 24) — and requires
// the same History as the stream without the retired records and fields.
func TestFoldIgnoresRetiredKinds(t *testing.T) {
	payloads := []struct {
		json    string
		retired bool
		// bare is the payload without its retired fields ("" when it has none).
		bare string
	}{
		{`{"t":"workflow","at":1000,"h":"h1","k":1,"wf":1,"wf_name":"old","wf_policy":"continue_branches","wf_max_in_flight":2,"wf_steps":[{"id":"a","tool":"racon"}]}`, false,
			`{"t":"workflow","at":1000,"h":"h1","k":1,"wf":1,"wf_name":"old","wf_steps":[{"id":"a","tool":"racon"}]}`},
		{`{"t":"submit","at":500,"h":"h1","k":1,"job":1,"tool":"racon","gpus":1,"submitted":500,"delay":500}`, false,
			`{"t":"submit","at":500,"h":"h1","k":1,"job":1,"tool":"racon","gpus":1,"submitted":500}`},
		{`{"t":"map","at":1000,"h":"h1","k":2,"job":1,"dest":"gpu_k80","gpu":true,"devices":[0,1],"msg":"GPU 0 and 1 idle: gang of 2"}`, true, ""},
		{`{"t":"schedule","at":1000,"h":"h1","k":3,"job":1,"gpus":1,"qop":"park"}`, true, ""},
		{`{"t":"queue","at":2000,"h":"h1","k":4,"job":1,"devices":[0],"qop":"grant"}`, true, ""},
		{`{"t":"start","at":2000,"h":"h1","k":5,"job":1,"epoch":1,"devices":[0]}`, false, ""},
		{`{"t":"preempt","at":2500,"h":"h1","k":6,"job":1,"msg":"preempted for job 2 (priority 9 > 0, waited 100ms)"}`, true, ""},
		{`{"t":"start","at":2600,"h":"h1","k":7,"job":1,"epoch":2,"devices":[0]}`, false, ""},
		{`{"t":"attempt","at":3000,"h":"h1","k":8,"job":1,"attempt":1,"class":"transient","devices":[0]}`, false, ""},
		{`{"t":"quarantine","at":3000,"h":"h1","k":9,"device":1,"until":-1}`, true, ""},
		{`{"t":"queue","at":3000,"h":"h1","k":10,"job":1,"qop":"remove"}`, true, ""},
		{`{"t":"complete","at":3000,"h":"h1","k":11,"job":1,"state":"error"}`, false, ""},
	}
	var with, without []byte
	for _, p := range payloads {
		with = append(with, frame(p.json)...)
		switch {
		case p.bare != "":
			without = append(without, frame(p.bare)...)
		case !p.retired:
			without = append(without, frame(p.json)...)
		}
	}
	all, err := ReplayBytes(with)
	if err != nil || len(all) != len(payloads) {
		t.Fatalf("replayed %d of %d records, err %v", len(all), len(payloads), err)
	}
	kept, err := ReplayBytes(without)
	if err != nil {
		t.Fatal(err)
	}
	got, want := Fold(all), Fold(kept)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retired kinds changed the fold:\n got %+v\nwant %+v", got.Jobs[1], want.Jobs[1])
	}
	if tr := got.Jobs[1]; tr == nil || len(tr.Starts) != 2 || tr.Start.Epoch != 2 || got.Workflows[1].WFName != "old" {
		t.Errorf("the stream around the retired records did not fold: trail %+v workflows %+v", tr, got.Workflows)
	}
}

// TestFoldInterleavingInvariant is the property sharded replay relies on:
// records are merged across stripes by ticket, which fixes the order within
// one job (one stripe) and within one writer's jobless records, and nothing
// else — so any shuffle that preserves those orders must fold identically.
func TestFoldInterleavingInvariant(t *testing.T) {
	perJob := []Type{TypeStart, TypeAttempt, TypeComplete, TypeDeadLetter,
		TypeResubmit, TypeAdopt, TypeStealPrepare, TypeStealRetire, TypeStealAbort, TypeSubmit, "retired"}
	handlers := []string{"h1", "h2", "h3"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Lanes: one per job, plus one per handler for its leases; h1 also
		// writes the workflow definitions, verdicts and claims (one journal
		// has one such writer, and they all sit in stripe 0).
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
		for i, h := range handlers {
			var lane []Record
			for n := rng.Intn(4); n > 0; n-- {
				lane = append(lane, Record{Type: TypeLease, Handler: h, TTL: time.Duration(rng.Intn(30)) * time.Second,
					Wall: int64(rng.Intn(2) * rng.Intn(1000))})
			}
			for n := rng.Intn(4); i == 0 && n > 0; n-- {
				lane = append(lane,
					Record{Type: TypeWorkflow, Handler: h, Workflow: 1 + rng.Intn(3), WFName: strconv.Itoa(n)},
					Record{Type: TypeComplete, Handler: h, Workflow: 1 + rng.Intn(3), State: "ok", Msg: strconv.Itoa(n)},
					Record{Type: TypeClaim, Handler: h, From: "h3", Stripes: []int{n}})
			}
			lanes = append(lanes, lane)
		}
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
// A retired kind is held to the opposite: its constant is still declared
// (bench/layers.go stages a TypeMap record as its non-durable sample), nothing
// writes it, and Fold must go on ignoring it.
func TestFoldReadsEveryRecordKind(t *testing.T) {
	retired := map[Type]bool{TypeMap: true}
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

	// The base stream leaves something for every kind to change: an open
	// prepare to close, a terminal to reopen, an attempt to rebase past.
	base := []Record{
		{Type: TypeSubmit, Job: 1, Handler: "h1"},
		{Type: TypeAttempt, Job: 1, Attempt: 1},
		{Type: TypeComplete, Job: 1, State: "error"},
		{Type: TypeStealPrepare, Job: 1, Handler: "h2", From: "h1", Xfer: 1},
	}
	for _, kind := range kinds {
		with, without := base, base
		if i := indexOfKind(base, kind); i >= 0 {
			without = append(append([]Record(nil), base[:i]...), base[i+1:]...)
		} else {
			with = append(append([]Record(nil), base...), Record{
				Type: kind, Job: 1, Handler: "h2", From: "h1", Workflow: 3,
				TTL: time.Second, Epoch: 1, Destination: "gpu", Stripes: []int{1},
			})
		}
		hw, ho := Fold(with), Fold(without)
		hw.LastAt, hw.MaxJob, ho.LastAt, ho.MaxJob = 0, 0, 0, 0
		switch same := reflect.DeepEqual(hw, ho); {
		case retired[kind] && !same:
			t.Errorf("record kind %q is retired but changes the fold again: drop it from the retired list with the writer that needs it", kind)
		case !retired[kind] && same:
			t.Errorf("record kind %q is write-only: a stream with one folds to the same History as the stream without", kind)
		}
		delete(retired, kind)
	}
	for kind := range retired {
		t.Errorf("retired kind %q is no longer declared in record.go: drop it from the retired list", kind)
	}
}

func indexOfKind(recs []Record, kind Type) int {
	for i, r := range recs {
		if r.Type == kind {
			return i
		}
	}
	return -1
}
