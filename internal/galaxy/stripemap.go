package galaxy

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Sharded job state. The job table used to be a single slice guarded by the
// engine-wide mutex, which put every Submit, Jobs() poll and /api read on
// the same lock the dispatch machinery holds for entire scheduling cycles.
// It is now a fixed set of stripes, each a small map guarded by its own
// mutex, keyed by job ID. Stripe locks are leaf locks: nothing that locks is
// called while one is held, so they can be taken from anywhere — with or
// without g.mu — without ordering concerns. The documented order for code that
// needs both is g.mu before a stripe lock, never the reverse.

// jobStripes is the stripe count; a power of two so the modulo is a mask.
const jobStripes = 32

// jobStripe is one shard of the job table.
type jobStripe struct {
	mu   sync.Mutex
	jobs map[int]*Job
}

// jobTable is the striped job map plus a cheap size counter.
type jobTable struct {
	stripes [jobStripes]jobStripe
	count   atomic.Int64
}

func (t *jobTable) stripe(id int) *jobStripe {
	return &t.stripes[uint(id)&(jobStripes-1)]
}

// insert publishes a job. The stripe lock doubles as the release barrier
// for the job's initially-written fields: any reader that finds the job in
// the table observes everything written before insert.
func (t *jobTable) insert(j *Job) {
	s := t.stripe(j.ID)
	s.mu.Lock()
	if s.jobs == nil {
		s.jobs = make(map[int]*Job)
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()
	t.count.Add(1)
}

// get returns the live job with the given ID, or nil.
func (t *jobTable) get(id int) *Job {
	s := t.stripe(id)
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	return j
}

// stampTicket records the commit ticket of a published job's submit record.
// Submit runs without g.mu, so the write takes the job's stripe lock — the
// lock clone holds around every copy of a live job.
func (t *jobTable) stampTicket(j *Job, ticket uint64) {
	s := t.stripe(j.ID)
	s.mu.Lock()
	j.DurableTicket = ticket
	s.mu.Unlock()
}

// clone copies a live job under its stripe lock (see stampTicket). The
// caller holds g.mu, which orders the copy against every other mutation.
func (t *jobTable) clone(j *Job) *Job {
	s := t.stripe(j.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.clone()
}

// size returns the number of jobs in the table.
func (t *jobTable) size() int { return int(t.count.Load()) }

// all returns every job sorted by ID (submission order — IDs are allocated
// monotonically). Each stripe is copied under its own lock; the caller needs
// g.mu if it intends to read mutable job fields consistently.
func (t *jobTable) all() []*Job {
	out := make([]*Job, 0, t.size())
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, j := range s.jobs {
			out = append(out, j)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// jobsSnapshot is one immutable Jobs() result: deep-enough clones of every
// job, valid as of the given table epoch.
type jobsSnapshot struct {
	epoch uint64
	jobs  []*Job
}
