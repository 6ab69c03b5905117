package galaxy

import (
	"time"

	"gyan/internal/core"
	"gyan/internal/faults"
	"gyan/internal/journal"
)

// Job records. Every kind of record the engine journals about a job has one
// constructor here, called where it is written (by moveLocked for the kinds a
// lifecycle move writes), and the inverse that Recover applies to a job's
// fields sits next to it; the job's state is the one journal.Fold folds its
// trail to. They are the only encoding of a job's state: compaction copies
// the records (journal.Compact), so a recovered job reads the same whether or
// not a compaction ran in between. (The submit record is built once, in
// submitJob, and kept on the job; the workflow definition and verdict are in
// dag.go.)

// startRecord is the start record of the job's current run: its epoch, where
// it was placed and why (Msg: the Info its move into running set), and its
// host PID.
func startRecord(j *Job) journal.Record {
	return journal.Record{
		Type: journal.TypeStart, At: j.Started, Job: j.ID, Epoch: j.run,
		Destination: j.Destination, GPUEnabled: j.GPUEnabled, Devices: j.Devices,
		PID: j.PID, Msg: j.Info,
	}
}

// applyStart is startRecord's inverse.
func (j *Job) applyStart(r *journal.Record) {
	j.Started, j.run = r.At, r.Epoch
	j.Destination, j.GPUEnabled, j.Devices = r.Destination, r.GPUEnabled, r.Devices
	j.VisibleDevices = core.VisibleDevices(r.Devices)
	j.PID, j.Info = r.PID, r.Msg
}

// attemptRecord journals one classified failure of job id.
func attemptRecord(id int, f Failure) journal.Record {
	return journal.Record{
		Type: journal.TypeAttempt, At: f.At, Job: id, Attempt: f.Attempt,
		Op: string(f.Op), Class: f.Class.String(), Msg: f.Msg, Devices: f.Devices,
	}
}

// failureOf is attemptRecord's inverse.
func failureOf(r *journal.Record) Failure {
	class := faults.Transient
	if r.Class == faults.Permanent.String() {
		class = faults.Permanent
	}
	return Failure{At: r.At, Attempt: r.Attempt, Op: faults.Op(r.Op), Class: class, Msg: r.Msg, Devices: r.Devices}
}

// terminalRecord closes the job's trail: a dead_letter record, or a complete
// record naming the state. A job that did not end ok carries its reason; an
// ok job's Info is its placement reason, which its start record carries.
func terminalRecord(j *Job) journal.Record {
	rec := journal.Record{Type: journal.TypeComplete, At: j.Finished, Job: j.ID, Epoch: j.run, State: string(j.State)}
	if j.State == StateDeadLetter {
		rec.Type, rec.State = journal.TypeDeadLetter, ""
	}
	if j.State != StateOK {
		rec.Msg = j.Info
	}
	return rec
}

// applyTerminal is the inverse of the record that ended the job,
// terminalRecord's or a steal's retire: when it finished, and why when the
// record says.
func (j *Job) applyTerminal(r *journal.Record) {
	j.Finished = r.At
	if r.Msg != "" {
		j.Info = r.Msg
	}
}

// resubmitRecord reopens job id's trail with a fresh retry budget; Fold
// rebases the budget at it (Trail.AttemptBase).
func resubmitRecord(id int, at time.Duration) journal.Record {
	return journal.Record{Type: journal.TypeResubmit, At: at, Job: id}
}

// adoptRecord moves job id to handler to from handler from, which its trail
// names (Trail.From).
func adoptRecord(id int, to, from string, at time.Duration) journal.Record {
	return journal.Record{Type: journal.TypeAdopt, At: at, Job: id, Handler: to, From: from}
}

// stealRecord journals one phase of the two-phase steal of job id to
// handler `to` as transfer xfer: its prepare, retire or abort. Handler names
// the thief; From, this handler. A prepared job carries its prepare record
// (Job.steal), which is its own inverse.
func (g *Galaxy) stealRecord(typ journal.Type, id int, to string, xfer uint64, at time.Duration) journal.Record {
	return journal.Record{Type: typ, At: at, Job: id, Handler: to, From: g.handlerID, Xfer: xfer}
}
