package galaxy

import (
	"errors"
	"fmt"
	"time"

	"gyan/internal/journal"
)

var (
	// ErrStealInFlight is what Kill wraps for a prepared job: retryable.
	ErrStealInFlight = errors.New("galaxy: a steal of the job is in flight; retry once it settles")
	// ErrStolen is what Kill wraps, with the owner's name, for a stolen job.
	ErrStolen = errors.New("galaxy: the job was stolen")
)

// moveLocked is the one lifecycle transition (journal states the
// lifecycle): j moves to `to` at `at` with info, and the record the move
// writes is journaled (a submit's is only staged, and its ticket returned).
// Running stamps Started; a done state stamps Finished, which a resubmit
// clears, drops what dispatch carried (a resubmit binds the job again) and
// fires the completion hook. j.steal, set by the caller of the move into
// prepared, is cleared by every other move. A move the lifecycle lacks
// panics. Caller holds g.mu.
func (g *Galaxy) moveLocked(j *Job, to JobState, info string, at time.Duration) uint64 {
	kind, ok := j.State.Move(to)
	if !ok {
		panic(fmt.Sprintf("galaxy: job %d cannot move from %q to %q", j.ID, j.State, to))
	}
	j.State, j.Info = to, info
	done := to.Done()
	switch {
	case to == StateRunning:
		j.Started = at
	case done:
		j.Finished = at
		j.binding, j.tool, j.hints, j.parked = nil, nil, nil, nil
	case kind == journal.TypeResubmit:
		j.Finished = 0
	}
	switch kind {
	case journal.TypeSubmit:
		return g.stageJournal(j, j.submit)
	case journal.TypeStart:
		g.logJournal(j, startRecord(j))
	case journal.TypeComplete, journal.TypeDeadLetter:
		g.logJournal(j, terminalRecord(j))
	case journal.TypeResubmit:
		g.logJournal(j, resubmitRecord(j.ID, at))
	case journal.TypeStealPrepare, journal.TypeStealRetire, journal.TypeStealAbort:
		g.logJournal(j, g.stealRecord(kind, j.ID, j.steal.Handler, j.steal.Xfer, at))
	}
	if to != StatePrepared {
		j.steal = nil
	}
	if done && j.onDone != nil {
		j.onDone(j)
	}
	return 0
}

// restore sets a replayed job's state, the one its trail folded to, and the
// steal a prepared one has in flight, the trail's last record: the record
// that moved it there is already in the journal, so replay restores rather
// than moves (Recover).
func (j *Job) restore(h *journal.Trail) {
	j.State = h.State
	if h.State == StatePrepared {
		j.steal = h.Last
	}
}

// movesBy reports whether the lifecycle moves j to `to` with a kind record.
func movesBy(j *Job, to JobState, kind journal.Type) bool {
	k, _ := j.State.Move(to)
	return k == kind
}
