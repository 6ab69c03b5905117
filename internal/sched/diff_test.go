package sched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"gyan/internal/sim"
	"gyan/internal/smi"
)

// The differential test: one program of Submit / Cycle / Release / Remove /
// RestoreUsage / quarantine steps runs against a Scheduler and the oracle
// (the sort-every-cycle queue in oracle_test.go), and after every step both
// must agree on every Decision, on Metrics() and on QueueDepth(). A program
// is a byte string, so the seeded test and FuzzCycle share one interpreter.

// diffStats counts what a program exercised, so the seeded test can show
// its generator reaches the cases it claims to cover.
type diffStats struct {
	cycles, starts, backfills, rejects, denials, ties, shrunk, depth int
}

// program reads a byte string as a stream of small integers; past the end
// it reads zeros.
type program struct {
	b []byte
	i int
}

func (p *program) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

// runDiff interprets data as a scheduler program and fails t on the first
// step where the Scheduler and the oracle disagree.
//
// Header: byte 0 picks the cluster (2–6 devices), backfill, the locality
// bonus and whether the start gate denies; byte 1 the number of users
// (1–4). Then each step is an opcode byte and one or two argument bytes.
func runDiff(t *testing.T, data []byte) diffStats {
	t.Helper()
	var st diffStats
	p := &program{b: data}
	h := p.next()
	cluster := 2 + h%5
	cfg := Config{Backfill: h&8 != 0}
	switch (h >> 4) & 3 {
	case 1:
		cfg.LocalityBonus = 0.5
	case 2:
		cfg.LocalityBonus = 1e6
	}
	gateSalt := p.next()
	users := []string{"ana", "bo", "cy", "di"}[:1+gateSalt%4]
	s, o := New(cfg), newOracle(cfg)
	if h&64 != 0 {
		// Deny about one start in four, as a pure function of the job, the
		// instant and the program, so both schedulers see the same veto.
		gate := func(id int, devices []int, now time.Duration) error {
			x := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(now) ^ uint64(gateSalt)<<40
			x ^= x >> 29
			x *= 0xBF58476D1CE4E5B9
			if (x>>32)%4 == 0 {
				st.denials++
				return fmt.Errorf("injected gang fault for job %d", id)
			}
			return nil
		}
		s.SetStartGate(gate)
		o.SetStartGate(gate)
	}

	var now time.Duration
	quarantined := 0 // bitmask of the device missing from the survey, if any
	procs := make([]int, cluster)
	nextID := 1
	survey := func() smi.Usage {
		u := smi.Usage{ProcsByGPU: map[int][]int{}}
		for d := 0; d < cluster; d++ {
			if quarantined&(1<<d) == 0 {
				u.AllGPUs = append(u.AllGPUs, d)
				u.ProcsByGPU[d] = make([]int, procs[d])
			}
		}
		return u
	}
	runningIDs := func() []int {
		ids := make([]int, 0, len(o.running))
		for id := range o.running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}

	for step := 0; p.i < len(p.b) && step < 2000; step++ {
		op, a := p.next()%8, p.next()
		where := func() string { return fmt.Sprintf("step %d (op %d, arg %d)", step, op, a) }
		switch op {
		case 0, 1, 2: // submit
			c := p.next()
			req := Request{
				ID:         nextID,
				User:       users[a%len(users)],
				Priority:   5 * ((a >> 2) & 1),
				GPUs:       []int{1, 1, 2, 3}[(a>>3)%4],
				EstRuntime: time.Duration((a>>5)%8) * time.Second,
				// Few distinct values, so equal submission times are
				// common; zero means "now".
				Submitted: time.Duration(c%4) * time.Second,
			}
			if (c>>2)%8 == 0 && nextID > 1 {
				req.ID = 1 + (c>>5)%(nextID-1) // maybe queued or running
			} else {
				nextID++
			}
			if c&128 != 0 {
				req.Prefer = []int{a % cluster}
			}
			es, eo := s.Submit(req, now), o.Submit(req, now)
			if fmt.Sprint(es) != fmt.Sprint(eo) {
				t.Fatalf("%s: Submit(%+v) = %v, oracle %v", where(), req, es, eo)
			}
		case 3: // cycle
			now += time.Duration(a%3) * time.Second
			u := survey()
			st.cycles++
			if len(u.AllGPUs) < cluster {
				st.shrunk++
			}
			st.ties += equalUsageClasses(o)
			st.depth = max(st.depth, o.QueueDepth())
			ds, do := s.Cycle(now, u), o.Cycle(now, u)
			if !reflect.DeepEqual(ds, do) {
				t.Fatalf("%s: at %v on %v\n Cycle  = %+v\n oracle = %+v", where(), now, u.AllGPUs, ds, do)
			}
			st.starts += len(ds.Starts)
			st.rejects += len(ds.Rejects)
			for _, x := range ds.Starts {
				if x.Backfilled {
					st.backfills++
				}
			}
		case 4: // release
			if ids := runningIDs(); len(ids) > 0 {
				id := ids[a%len(ids)]
				s.Release(id, now)
				o.Release(id, now)
			}
		case 5: // remove: queued, running or unknown
			id := a % (nextID + 1)
			s.Remove(id)
			o.Remove(id)
		case 6: // restore usage; small integers make equal usage common
			user := users[a%len(users)]
			gs := float64((a >> 2) % 3)
			s.RestoreUsage(user, gs)
			o.RestoreUsage(user, gs)
		case 7: // reload a device; sometimes quarantine one or return it
			procs[(a>>3)%cluster] = (a >> 5) % 3
			if a&4 != 0 && quarantined != 0 {
				quarantined = 0
			} else if a&4 != 0 {
				quarantined = 1 << (a % cluster)
			}
		}
		s.RecordDepth(now)
		o.RecordDepth(now)
		if s.QueueDepth() != o.QueueDepth() {
			t.Fatalf("%s: QueueDepth = %d, oracle %d", where(), s.QueueDepth(), o.QueueDepth())
		}
		if ms, mo := s.Metrics(), o.Metrics(); !reflect.DeepEqual(ms, mo) {
			t.Fatalf("%s: Metrics = %+v, oracle %+v", where(), ms, mo)
		}
	}
	return st
}

// equalUsageClasses counts pairs of queued classes at one priority whose
// users have equal fair-share usage: the case where (Submitted, ID) alone
// decides the order between users.
func equalUsageClasses(o *oracle) int {
	seen := map[classKey]bool{}
	for _, e := range o.queue {
		seen[classKey{e.req.Priority, e.req.User}] = true
	}
	n := 0
	for a := range seen {
		for b := range seen {
			if a.priority == b.priority && a.user < b.user && o.usage[a.user] == o.usage[b.user] {
				n++
			}
		}
	}
	return n
}

func TestCycleMatchesOracle(t *testing.T) {
	var total diffStats
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(seed*0x2545F4914F6CDD1D + 7)
		data := make([]byte, 900)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			st := runDiff(t, data)
			total.cycles += st.cycles
			total.starts += st.starts
			total.backfills += st.backfills
			total.rejects += st.rejects
			total.denials += st.denials
			total.ties += st.ties
			total.shrunk += st.shrunk
			total.depth = max(total.depth, st.depth)
		})
	}
	if total.starts == 0 || total.backfills == 0 || total.rejects == 0 ||
		total.denials == 0 || total.ties == 0 || total.shrunk == 0 {
		t.Fatalf("generator too weak: %+v", total)
	}
}

// FuzzCycle drives the same comparison from fuzz bytes. Its committed
// corpus holds programs for equal-usage ties and for a cluster that shrinks
// under a queued gang.
func FuzzCycle(f *testing.F) {
	f.Add([]byte{0x4a, 3, 0, 1, 0, 0, 5, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runDiff(t, data)
	})
}
