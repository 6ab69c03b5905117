package sched

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/smi"
)

// oracle is the scheduler as it was before the queue kept itself in order:
// one flat queue, sorted in full by order() at the top of every Cycle. It
// shares the running set, fair-share usage, start gate and metrics of its
// embedded Scheduler (whose own queue stays empty) and replaces only the
// queue. TestCycleMatchesOracle and FuzzCycle hold Scheduler.Cycle to it
// decision for decision.
type oracle struct {
	*Scheduler
	queue []*entry
}

func newOracle(cfg Config) *oracle { return &oracle{Scheduler: New(cfg)} }

func (s *oracle) QueueDepth() int { return len(s.queue) }

func (s *oracle) RecordDepth(time.Duration) {
	if d := len(s.queue); d > s.m.maxDepth {
		s.m.maxDepth = d
	}
}

func (s *oracle) Submit(req Request, now time.Duration) error {
	if req.GPUs < 1 {
		return fmt.Errorf("sched: job %d requests %d GPUs", req.ID, req.GPUs)
	}
	if _, dup := s.running[req.ID]; dup {
		return fmt.Errorf("sched: job %d already running", req.ID)
	}
	for _, e := range s.queue {
		if e.req.ID == req.ID {
			return fmt.Errorf("sched: job %d already queued", req.ID)
		}
	}
	if req.Submitted == 0 {
		req.Submitted = now
	}
	s.queue = append(s.queue, &entry{req: req})
	s.m.Submitted++
	return nil
}

func (s *oracle) Remove(id int) {
	for i, e := range s.queue {
		if e.req.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// order sorts the queue by effective priority: priority class descending,
// accumulated GPU-seconds ascending (lower is hungrier), submission time
// ascending, ID ascending.
func (s *oracle) order() {
	sort.SliceStable(s.queue, func(i, j int) bool {
		a, b := s.queue[i].req, s.queue[j].req
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		as, bs := s.usage[a.User], s.usage[b.User]
		if as != bs {
			return as < bs
		}
		if a.Submitted != b.Submitted {
			return a.Submitted < b.Submitted
		}
		return a.ID < b.ID
	})
}

func (s *oracle) Cycle(now time.Duration, survey smi.Usage) Decision {
	var dec Decision
	total := len(survey.AllGPUs)
	free := s.freeDevices(survey)
	s.order()

	// Reject impossible gangs first so they never block the queue.
	kept := s.queue[:0]
	for _, e := range s.queue {
		if e.req.GPUs > total {
			dec.Rejects = append(dec.Rejects, Reject{
				ID: e.req.ID,
				Reason: fmt.Sprintf("gang of %d exceeds the %d-GPU cluster",
					e.req.GPUs, total),
			})
			s.m.Rejected++
			continue
		}
		kept = append(kept, e)
	}
	s.queue = kept

	var res *reservation
	remaining := s.queue[:0]
	for i := 0; i < len(s.queue); i++ {
		e := s.queue[i]
		started := false
		switch {
		case res == nil && len(free) >= e.req.GPUs:
			// Head-of-line position with room: start on the
			// best-scored free devices.
			gang := pickGang(free, e.req.GPUs, s.scorerFor(e.req), survey)
			if s.gateDenied(e.req.ID, gang, now) {
				break // stays queued; devices remain free this cycle
			}
			dec.Starts = append(dec.Starts, s.start(e, gang, now, false,
				fmt.Sprintf("priority dispatch on GPU(s) %v", gang)))
			free = subtract(free, gang)
			started = true
		case res == nil:
			// Blocked head: take a reservation that backfill must
			// honor.
			res = s.reserve(e.req, free, now)
			if res == nil {
				// Unsatisfiable even when idle — defensive; the
				// gang-size reject above should have caught it.
				dec.Rejects = append(dec.Rejects, Reject{
					ID:     e.req.ID,
					Reason: "gang can never be satisfied",
				})
				s.m.Rejected++
				started = true // drop from queue
			}
		case s.cfg.Backfill:
			// Backfill under the head's reservation: surplus
			// devices are fair game; reserved devices only if the
			// job's estimate ends before the reservation matures.
			var surplus, reserved []int
			for _, d := range free {
				if res.devices[d] {
					reserved = append(reserved, d)
				} else {
					surplus = append(surplus, d)
				}
			}
			candidates := surplus
			if now+s.est(e.req) <= res.at {
				candidates = append(candidates, reserved...)
			}
			if len(candidates) >= e.req.GPUs {
				gang := pickGang(candidates, e.req.GPUs, s.scorerFor(e.req), survey)
				if s.gateDenied(e.req.ID, gang, now) {
					break
				}
				dec.Starts = append(dec.Starts, s.start(e, gang, now, true,
					fmt.Sprintf("backfilled onto GPU(s) %v under reservation at %v",
						gang, res.at)))
				free = subtract(free, gang)
				s.m.Backfilled++
				started = true
			}
		}
		if !started {
			remaining = append(remaining, e)
		}
	}
	s.queue = remaining
	return dec
}
