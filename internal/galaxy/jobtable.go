package galaxy

import (
	"sort"
	"sync"
)

// jobTable is the job map behind one leaf mutex: nothing that locks is called
// while mu is held, so it can be taken with or without g.mu. Code that needs
// both takes g.mu first, never the reverse. Submit publishes through it
// without taking g.mu. The lock guards only the map: every write to a job
// after insert happens under g.mu, so a caller holding g.mu may read or clone
// a job it got from the table without the table lock.
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
	out := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
