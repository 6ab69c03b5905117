package galaxy

import (
	"sort"
	"sync"
)

// jobTable is the job map behind one leaf mutex: nothing that locks is called
// while mu is held, so it can be taken with or without g.mu. Code that needs
// both takes g.mu first, never the reverse. Submit publishes through it
// without taking g.mu.
type jobTable struct {
	mu   sync.Mutex
	jobs map[int]*Job
}

// insert publishes a job. The table lock doubles as the release barrier for
// the job's initially-written fields: any reader that finds the job in the
// table observes everything written before insert.
func (t *jobTable) insert(j *Job) {
	t.mu.Lock()
	if t.jobs == nil {
		t.jobs = make(map[int]*Job)
	}
	t.jobs[j.ID] = j
	t.mu.Unlock()
}

// get returns the live job with the given ID, or nil.
func (t *jobTable) get(id int) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// stampTicket records the commit ticket of a published job's submit record.
// Submit runs without g.mu, so the write takes the table lock — the lock
// clone holds around every copy of a live job.
func (t *jobTable) stampTicket(j *Job, ticket uint64) {
	t.mu.Lock()
	j.DurableTicket = ticket
	t.mu.Unlock()
}

// clone copies a live job under the table lock (see stampTicket). The caller
// holds g.mu, which orders the copy against every other mutation.
func (t *jobTable) clone(j *Job) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return j.clone()
}

// size returns the number of jobs in the table.
func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

// all returns every job sorted by ID (submission order — IDs are allocated
// monotonically). The caller needs g.mu if it intends to read mutable job
// fields consistently.
func (t *jobTable) all() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sortedLocked()
}

// cloneAll is all with every job cloned under the same hold of the table
// lock (see stampTicket). The caller holds g.mu.
func (t *jobTable) cloneAll() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.sortedLocked()
	for i, j := range out {
		out[i] = j.clone()
	}
	return out
}

func (t *jobTable) sortedLocked() []*Job {
	out := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
