package galaxy

import (
	"fmt"
	"time"

	"gyan/internal/core"
	"gyan/internal/faults"
	"gyan/internal/journal"
)

// Job records. Every kind of record the engine journals about a job has one
// constructor here, called where it is written (by moveLocked for the kinds a
// lifecycle move writes), and apply, at the end, is their inverse: Recover
// applies each record the lifecycle allows to its job, in stream order, as
// journal.History.Add folds it, and restores the state the trail folds to.
// They are the only encoding of a job's state: compaction copies the records
// (journal.Compact), so a recovered job reads the same whether or not a
// compaction ran in between. (The submit record is built once, in submitJob,
// and kept on the job; the workflow definition and verdict are in dag.go.)

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

// attemptRecord journals one classified failure of job id.
func attemptRecord(id int, f Failure) journal.Record {
	return journal.Record{
		Type: journal.TypeAttempt, At: f.At, Job: id, Attempt: f.Attempt,
		Op: string(f.Op), Class: f.Class.String(), Msg: f.Msg, Devices: f.Devices,
	}
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

// resubmitRecord reopens job id's trail with a fresh retry budget.
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

// stolenInfo is a stolen job's Info, the move into stolen's and the retire
// record's inverse alike.
func stolenInfo(thief string) string { return fmt.Sprintf("stolen by handler %q", thief) }

// apply is the inverse of rec, a record the lifecycle allowed on j's trail:
// a submit fills the submission, a start the run's placement, PID and Info,
// an attempt extends the failure log, a resubmit rebases the retry budget
// and reopens the job, and the record that ends it sets when and why. The
// state is not applied: Recover restores it from the trail (Job.restore).
func (j *Job) apply(r *journal.Record) {
	switch r.Type {
	case journal.TypeSubmit:
		j.ToolID, j.Params, j.User, j.Runtime = r.Tool, r.Params, userOrAnonymous(r.User), r.Runtime
		j.Submitted, j.WorkflowID, j.StepID, j.submit = r.Submitted, r.Workflow, r.Step, *r
	case journal.TypeStart:
		j.Started, j.run = r.At, r.Epoch
		j.Destination, j.GPUEnabled, j.Devices = r.Destination, r.GPUEnabled, r.Devices
		j.VisibleDevices = core.VisibleDevices(r.Devices)
		j.PID, j.Info = r.PID, r.Msg
	case journal.TypeAttempt:
		class := faults.Transient
		if r.Class == faults.Permanent.String() {
			class = faults.Permanent
		}
		j.Failures = append(j.Failures, Failure{At: r.At, Attempt: r.Attempt, Op: faults.Op(r.Op), Class: class, Msg: r.Msg, Devices: r.Devices})
	case journal.TypeResubmit:
		j.attemptBase, j.Finished = len(j.Failures), 0
	case journal.TypeComplete, journal.TypeDeadLetter:
		j.Finished = r.At
		if r.Msg != "" {
			j.Info = r.Msg
		}
	case journal.TypeStealRetire:
		j.Finished, j.Info = r.At, stolenInfo(r.Handler)
	}
}
