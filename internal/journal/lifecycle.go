package journal

import "maps"

// State is where a job stands in its lifecycle, mirroring Galaxy's job
// states. The zero State is a job being built, before its submit.
type State string

// Job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateOK      State = "ok"
	StateError   State = "error"
	// StateDeadLetter marks a job that exhausted fault recovery; its failure
	// log stays for post-mortem.
	StateDeadLetter State = "dead_letter"
	StateStolen     State = "stolen"   // another handler stole the job
	StatePrepared   State = "prepared" // a steal is moving the job
)

// lifecycle is the job lifecycle, stated once: every state a job can hold,
// whether the job is done there (its handler runs it no further unless an
// admin resubmits it), and every legal move out of it with the kind of
// record the move writes ("" for none). The engine makes the moves
// (galaxy's moveLocked reads them through Move); Fold checks every trail
// against them.
var lifecycle = map[State]struct {
	done  bool
	moves map[State]Type
}{
	// The zero state: a job the engine is building.
	"": {moves: map[State]Type{StateQueued: TypeSubmit}},
	StateQueued: {moves: map[State]Type{
		StateQueued:     "", // parked (scheduler queue, full destination) or a recovery requeue
		StateRunning:    TypeStart,
		StatePrepared:   TypeStealPrepare,
		StateError:      TypeComplete,
		StateDeadLetter: TypeDeadLetter,
	}},
	StateRunning: {moves: map[State]Type{
		StateQueued:     "", // a retry, a fallback destination, a recovery requeue
		StateOK:         TypeComplete,
		StateError:      TypeComplete,
		StateDeadLetter: TypeDeadLetter,
	}},
	// A steal in flight: only its outcome moves the job, and the thief's
	// accept outranks both the victim's abort and its kill.
	StatePrepared: {moves: map[State]Type{
		StateStolen: TypeStealRetire,
		StateQueued: TypeStealAbort,
	}},
	StateOK:         {done: true},
	StateError:      {done: true},
	StateDeadLetter: {done: true, moves: map[State]Type{StateQueued: TypeResubmit}},
	StateStolen:     {done: true},
}

// Done reports whether the lifecycle marks s done.
func (s State) Done() bool { return lifecycle[s].done }

// Move returns the kind of record the move from s to `to` writes ("" for
// none), and false when the lifecycle has no such move.
func (s State) Move(to State) (Type, bool) {
	kind, ok := lifecycle[s].moves[to]
	return kind, ok
}

// States lists the states a job can hold, in no particular order; the zero
// state is not one.
func States() []State { return states }

// The lifecycle as Fold reads it, derived once. follows[s][to] is the kind of
// record that moves a trail from s to `to`, with the record-less moves (a
// park, a retry, a recovery requeue) contracted away: a stream cannot show
// them, so from running a start or a steal_prepare is legal, the retry back
// to queued coming first. writes is the state each kind's record moves a job
// to, but complete's: a complete names its own (ok or error) in Record.State.
var (
	follows = make(map[State]map[State]Type, len(lifecycle))
	writes  = make(map[Type]State)
	states  []State
)

func init() {
	for s, out := range lifecycle {
		follows[s] = make(map[State]Type)
		for to, kind := range out.moves {
			if kind == "" && to != s {
				maps.Copy(follows[s], lifecycle[to].moves)
			} else if kind != "" && kind != TypeComplete {
				writes[kind] = to
			}
		}
		maps.Copy(follows[s], out.moves)
		if s != "" {
			states = append(states, s)
		}
	}
}
