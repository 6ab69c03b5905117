package galaxy

import (
	"errors"
	"fmt"
	"time"

	"gyan/internal/journal"
)

// lifecycle is the job lifecycle, stated once: every state a job can hold,
// whether the job is done there (Job.Done: this handler runs it no further
// unless an admin resubmits it), and every legal move out of it with the
// kind of journal record the move writes ("" for none). moveLocked is the
// only writer of Job.State; replay restores a journaled state instead.
var lifecycle = map[JobState]struct {
	done  bool
	moves map[JobState]journal.Type
}{
	// The zero state: a job submitJob is building.
	"": {moves: map[JobState]journal.Type{StateQueued: journal.TypeSubmit}},
	StateQueued: {moves: map[JobState]journal.Type{
		StateQueued:     "", // parked (scheduler queue, full destination) or a recovery requeue
		StateRunning:    journal.TypeStart,
		StatePrepared:   journal.TypeStealPrepare,
		StateError:      journal.TypeComplete,
		StateDeadLetter: journal.TypeDeadLetter,
	}},
	StateRunning: {moves: map[JobState]journal.Type{
		StateQueued:     "", // a retry, a fallback destination, a recovery requeue
		StateOK:         journal.TypeComplete,
		StateError:      journal.TypeComplete,
		StateDeadLetter: journal.TypeDeadLetter,
	}},
	// A steal in flight: only its outcome moves the job, and the thief's
	// accept outranks both the victim's abort and its kill.
	StatePrepared: {moves: map[JobState]journal.Type{
		StateStolen: journal.TypeStealRetire,
		StateQueued: journal.TypeStealAbort,
	}},
	StateOK:         {done: true},
	StateError:      {done: true},
	StateDeadLetter: {done: true, moves: map[JobState]journal.Type{StateQueued: journal.TypeResubmit}},
	StateStolen:     {done: true},
}

var (
	// ErrStealInFlight is what Kill wraps for a prepared job: retryable.
	ErrStealInFlight = errors.New("galaxy: a steal of the job is in flight; retry once it settles")
	// ErrStolen is what Kill wraps, with the owner's name, for a stolen job.
	ErrStolen = errors.New("galaxy: the job was stolen")
)

// moveLocked is the one lifecycle transition: j moves to `to` at `at` with
// info, and the record the table names is journaled (a submit's is only
// staged, and its ticket returned). Running stamps Started; a done state
// stamps Finished, which a resubmit clears, drops what dispatch carried (a
// resubmit binds the job again) and fires the completion hook.
// j.steal, set by the caller of the move into prepared, is cleared by every
// other move. A move the table lacks panics. Caller holds g.mu.
func (g *Galaxy) moveLocked(j *Job, to JobState, info string, at time.Duration) uint64 {
	kind, ok := lifecycle[j.State].moves[to]
	if !ok {
		panic(fmt.Sprintf("galaxy: job %d cannot move from %q to %q", j.ID, j.State, to))
	}
	j.State, j.Info = to, info
	done := lifecycle[to].done
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
		g.logJournal(j, g.stealRecord(kind, j.ID, j.steal, at))
	}
	if to != StatePrepared {
		j.steal = nil
	}
	if done && j.onDone != nil {
		j.onDone(j)
	}
	return 0
}

// restore sets a replayed job's state, and the steal a prepared one has in
// flight: the record that moved it there is already in the journal, so
// replay restores rather than moves (materializeLocked, through the records'
// inverses).
func (j *Job) restore(s JobState, steal *preparedSteal) { j.State, j.steal = s, steal }
