// Package faults is a deterministic, seedable fault-injection subsystem for
// the dispatch path. A Plan holds rules keyed by job, tool, device and
// attempt; hook points threaded through the smi probe, container launches,
// tool executors and scheduler gang starts consult the plan and surface the
// faults it fires as classified errors.
//
// Everything is deterministic: given the same seed and the same sequence of
// Check calls (which the discrete-event engine guarantees), a plan fires the
// same faults at the same sites on every run. This is what lets the
// chaos-dispatch experiment and the regression suite replay identical
// failure scenarios while comparing recovery policies.
//
// The package also owns the two recovery primitives the dispatch path builds
// on: Backoff (bounded exponential retry delays with deterministic jitter)
// and Quarantine (a device blacklist fed by repeated faults, with an
// optional cooldown).
package faults

import (
	"fmt"
	"sync"
	"time"

	"gyan/internal/sim"
)

// Op names a hook point in the dispatch path.
type Op string

// The injection sites.
const (
	// OpProbe is the nvidia-smi snapshot read at destination-mapping time.
	OpProbe Op = "probe"
	// OpLaunch is a container launch.
	OpLaunch Op = "launch"
	// OpExec is the executor invocation; the fault fails the call outright.
	OpExec Op = "exec"
	// OpCrash is a mid-run executor crash: the job starts normally and dies
	// Fault.After into its run.
	OpCrash Op = "crash"
	// OpStall is a slow-device stall: the run completes but takes
	// Fault.Stall longer, which can push it past its timeout.
	OpStall Op = "stall"
	// OpGang is a batch-scheduler gang start failing device allocation.
	OpGang Op = "gang"
)

// Class separates failures the dispatch path may retry from those it must
// not.
type Class int

// Fault classes.
const (
	// Transient faults (flaky probe, crashed runner, stolen device) are
	// retry candidates under the configured backoff.
	Transient Class = iota
	// Permanent faults (corrupt image, incompatible driver) dead-letter the
	// job immediately.
	Permanent
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Permanent {
		return "permanent"
	}
	return "transient"
}

// Site identifies one consultation of the plan: which hook point, for which
// job, running which tool, on which attempt, against which devices.
type Site struct {
	Op Op
	// Job is the dispatching job's ID (galaxy job IDs start at 1).
	Job int
	// Tool is the tool wrapper ID.
	Tool string
	// Attempt is the job's 1-based dispatch attempt.
	Attempt int
	// Devices are the GPU minor IDs involved (allocation/execution sites).
	Devices []int
}

func (s Site) String() string {
	return fmt.Sprintf("%s job=%d tool=%s attempt=%d devices=%v",
		s.Op, s.Job, s.Tool, s.Attempt, s.Devices)
}

// Fault is one injected failure.
type Fault struct {
	Class Class
	// Msg is the failure text surfaced in the job's failure log.
	Msg string
	// After delays an OpCrash fault this far into the run (clamped to the
	// run's span; zero crashes the instant the run starts).
	After time.Duration
	// Stall is the extra latency an OpStall fault adds to the run.
	Stall time.Duration
	// Culprits is set by Check when the fault fires: the devices the fault
	// is attributed to — the intersection of the rule's device filter and
	// the site's device set, or the site's full set when the rule has no
	// filter. Quarantine accounting charges only culprits, so a
	// device-keyed fault on a multi-GPU gang does not blacklist the gang's
	// healthy members. Leave it unset in rule definitions.
	Culprits []int
}

// Match selects the sites a rule applies to. Zero values match anything:
// Job 0 means any job, Tool "" any tool, Attempt 0 any attempt, empty
// Devices any device set. A non-empty Devices list matches when the site
// involves at least one listed minor ID.
type Match struct {
	Op      Op
	Job     int
	Tool    string
	Attempt int
	Devices []int
}

func (m Match) matches(s Site) bool {
	if m.Op != "" && m.Op != s.Op {
		return false
	}
	if m.Job != 0 && m.Job != s.Job {
		return false
	}
	if m.Tool != "" && m.Tool != s.Tool {
		return false
	}
	if m.Attempt != 0 && m.Attempt != s.Attempt {
		return false
	}
	if len(m.Devices) > 0 {
		hit := false
		for _, want := range m.Devices {
			for _, got := range s.Devices {
				if want == got {
					hit = true
				}
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Rule arms one fault at matching sites.
type Rule struct {
	Match Match
	Fault Fault
	// Prob is the chance the fault fires at a matched site; values outside
	// (0, 1) mean "always". Draws come from the plan's seeded RNG, so a
	// fixed seed fires a fixed subset.
	Prob float64
	// Count bounds how many times the rule may fire; 0 means unlimited.
	// Unlimited OpGang rules risk livelock without a quarantine — every
	// denied start schedules another attempt — so bound them or pair them
	// with a Quarantine.
	Count int
}

// Event records one fired fault, for the failure log.
type Event struct {
	At    time.Duration
	Site  Site
	Fault Fault
}

// Plan is a set of armed rules plus the record of everything that fired.
// It is safe for concurrent use.
type Plan struct {
	mu     sync.Mutex
	rng    *sim.RNG
	rules  []Rule
	fired  []int // per-rule fire counts
	events []Event
}

// NewPlan arms the rules with a deterministic RNG for probabilistic ones.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{
		rng:   sim.NewRNG(seed),
		rules: append([]Rule(nil), rules...),
		fired: make([]int, len(rules)),
	}
}

// Check consults the plan at a site. The first armed rule that matches (in
// arming order, respecting Count budgets and Prob draws) fires: its fault is
// logged and returned. Probabilistic rules consume one RNG draw per matching
// consultation whether or not they fire, keeping the draw sequence aligned
// with the site sequence.
func (p *Plan) Check(now time.Duration, site Site) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, r := range p.rules {
		if !r.Match.matches(site) {
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		f := r.Fault
		f.Culprits = culprits(r.Match.Devices, site.Devices)
		p.fired[i]++
		p.events = append(p.events, Event{At: now, Site: site, Fault: f})
		return f, true
	}
	return Fault{}, false
}

// culprits attributes a fired fault to devices: the site devices the rule's
// filter singled out, or all of the site's devices for an unfiltered rule.
func culprits(filter, devices []int) []int {
	if len(filter) == 0 {
		return append([]int(nil), devices...)
	}
	var out []int
	for _, d := range devices {
		for _, w := range filter {
			if d == w {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// Events returns a copy of every fault fired so far, in firing order.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Fired reports the total number of faults fired.
func (p *Plan) Fired() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// Error is a classified dispatch failure: either an injected fault or a real
// failure the dispatch path has labeled (timeouts are transient, for
// example). The retry machinery only acts on classified errors; everything
// else keeps Galaxy's original fail/resubmit semantics.
type Error struct {
	Site  Site
	Class Class
	Msg   string
	// Culprits are the devices the failure is attributed to (see
	// Fault.Culprits); quarantine accounting charges exactly these.
	Culprits []int
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s fault (%s): %s", e.Site.Op, e.Class, e.Msg)
}

// NewError builds a classified error from a fired fault.
func NewError(site Site, f Fault) *Error {
	return &Error{Site: site, Class: f.Class, Msg: f.Msg, Culprits: f.Culprits}
}

// ClassOf extracts the classification from an error chain. The second result
// is false for unclassified errors, which the dispatch path fails the
// pre-fault way.
func ClassOf(err error) (Class, bool) {
	for err != nil {
		if ce, ok := err.(*Error); ok {
			return ce.Class, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return 0, false
		}
		err = u.Unwrap()
	}
	return 0, false
}
