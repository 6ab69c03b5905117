package galaxy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gyan/internal/container"
	"gyan/internal/core"
	"gyan/internal/depres"
	"gyan/internal/faults"
	"gyan/internal/gpu"
	"gyan/internal/jobconf"
	"gyan/internal/journal"
	"gyan/internal/obs"
	"gyan/internal/sched"
	"gyan/internal/sim"
	"gyan/internal/smi"
	"gyan/internal/toolxml"
)

// Galaxy is the framework instance: tool registry, job queue, runners and
// the GYAN mapping layer, driven by a discrete-event engine over the
// simulated cluster.
type Galaxy struct {
	Conf       *jobconf.Config
	Cluster    *gpu.Cluster
	Engine     *sim.Engine
	Mapper     *core.Mapper
	Containers *container.Engine
	// Deps resolves wrapper package requirements for bare-metal jobs
	// (containerized tools carry their own dependencies). The first job
	// of a tool pays the install time; later jobs hit the env cache.
	Deps *depres.Resolver

	// mu guards the dispatch machinery below: destination/user queues, the
	// batch scheduler's bookkeeping, fault-recovery state, and mutation of
	// individual job fields (engine callbacks run under it). It is no longer
	// on the submit hot path: Submit allocates IDs atomically, publishes jobs
	// through the job table, and journals without taking g.mu. Lock order:
	// snapGate before g.mu before any leaf lock (the table lock, toolsMu,
	// leaseMu, the engine's internal lock); never the reverse. See DESIGN.md
	// §10.
	mu sync.Mutex

	// toolsMu guards the tool registry — a leaf read-mostly lock so Submit
	// can resolve bindings without touching g.mu.
	toolsMu sync.RWMutex
	tools   map[string]*ToolBinding

	// jobs is the job table (jobtable.go); nextID allocates job IDs
	// lock-free.
	jobs   jobTable
	nextID atomic.Int64

	// snapGate quiesces lock-free submitters while SnapshotJournal condenses
	// history: Submit read-holds it across insert+journal, the snapshot
	// write-holds it so no record can slip into a segment that compaction is
	// about to delete. Uncontended outside snapshots.
	snapGate sync.RWMutex

	// surveyCache deduplicates nvidia-smi surveys taken at the same virtual
	// instant (see internal/smi); invalidated whenever device state changes.
	surveyCache *smi.Cache

	// obsv receives every journaled job-state transition, plus the
	// scheduler-queue and quarantine events that are not journaled (metrics
	// + traces, see internal/obs). It is always non-nil — observability is
	// on even with journaling off — and its Transition method is lock-free,
	// so the call rides the submit hot path at one struct dispatch per record.
	obsv *obs.Observer

	// Destination scheduling: per-destination running counts and wait
	// queues, honoring each destination's "slots" limit (step 3 of the
	// paper's Fig. 2 flow — the job scheduler in front of execution).
	running map[string]int
	waiting map[string][]*pendingStart

	// sched, when set, replaces the greedy per-job dispatch for GPU jobs
	// with batch scheduling (see scheduler.go): GPU jobs park in the
	// scheduler's priority queue and start only when a Cycle grants them an
	// exclusive device gang. Destination slot limits do not apply to
	// scheduler-managed jobs — gang allocation subsumes them.
	sched     *sched.Scheduler
	schedJobs map[int]*schedEntry

	// preparedSteals holds jobs detached under phase one of a two-phase
	// steal (see steal.go): out of the scheduler, tentative owner journaled,
	// awaiting RetireSteal or AbortSteal. Guarded by g.mu.
	preparedSteals map[int]*preparedSteal

	// DAG workflows (see dag.go): live runs by ID; nextWF allocates
	// workflow IDs. The map is guarded by g.mu; each run carries its own
	// leaf mutex for caller-facing reads.
	workflows map[int]*WorkflowRun
	nextWF    atomic.Int64

	// Fault injection + recovery policy (see faults.go). faultPlan is the
	// armed injection plan; retry/retryRNG drive transient-fault backoff;
	// jobTimeout bounds each run; quarantine blacklists faulty devices;
	// gateDenials buffers gang starts the plan vetoed mid-cycle.
	faultPlan   *faults.Plan
	retry       faults.Backoff
	retryRNG    *sim.RNG
	jobTimeout  time.Duration
	quarantine  *faults.Quarantine
	gateDenials []gateDenial

	// Durability (see recovery.go). journal, when set, receives every job
	// state transition; handlerID names this handler in lease and ownership
	// records; leaseTTL is how long a heartbeat asserts ownership. lastLease
	// tracks the newest heartbeat so writes piggyback fresh leases onto the
	// activity stream; journalErr latches the first append failure. The
	// journal/handlerID/leaseTTL/wallNow configuration is fixed at build
	// time; the mutable lease/error state is guarded by leaseMu (a leaf
	// lock) because lock-free submitters journal without holding g.mu.
	journal   *journal.Journal
	handlerID string
	leaseTTL  time.Duration
	wallNow   func() time.Time
	// asyncDurable makes every submit return at stage time (see
	// WithAsyncDurable; the -async-durable server flag).
	asyncDurable bool

	leaseMu      sync.Mutex
	lastLease    time.Duration
	leaseWritten bool
	journalErr   error

	recovery *RecoveryReport
}

// pendingStart is a job parked behind a saturated destination.
type pendingStart struct {
	job     *Job
	binding *ToolBinding
	opts    SubmitOptions
}

// Option configures a Galaxy instance.
type Option func(*Galaxy)

// WithPolicy selects the multi-GPU allocation policy.
func WithPolicy(p core.Policy) Option {
	return func(g *Galaxy) { g.Mapper.Policy = p }
}

// WithJobConf replaces the default job configuration.
func WithJobConf(c *jobconf.Config) Option {
	return func(g *Galaxy) { g.Conf = c }
}

// WithJobIDBase starts the job-ID allocator past n, so the first submitted
// job gets ID n+1. A rejoining cluster member reopens its old journal
// directory under a new incarnation; its allocator must clear every ID the
// directory has ever issued or the new life's journal trails would collide
// with the old ones and corrupt the exactly-once audit fold.
func WithJobIDBase(n int) Option {
	return func(g *Galaxy) { g.nextID.Store(int64(n)) }
}

// New builds a Galaxy instance over the cluster. A nil cluster builds the
// paper's 2-GPU testbed.
func New(cluster *gpu.Cluster, opts ...Option) *Galaxy {
	if cluster == nil {
		cluster = gpu.NewPaperTestbed(nil)
	}
	obsv := obs.NewObserver()
	g := &Galaxy{
		Conf:           jobconf.Default(),
		Cluster:        cluster,
		Engine:         sim.NewEngine(cluster.Clock()),
		Mapper:         &core.Mapper{},
		Containers:     container.NewEngine(),
		Deps:           depres.NewResolver(depres.Bioconda()),
		tools:          make(map[string]*ToolBinding),
		running:        make(map[string]int),
		waiting:        make(map[string][]*pendingStart),
		schedJobs:      make(map[int]*schedEntry),
		workflows:      make(map[int]*WorkflowRun),
		preparedSteals: make(map[int]*preparedSteal),
		retryRNG:       newRetryRNG(),
		surveyCache:    smi.NewCache(obsv.ObserveSurvey),
		obsv:           obsv,
	}
	for _, opt := range opts {
		opt(g)
	}
	if g.sched != nil && g.faultPlan != nil {
		g.installStartGate()
	}
	if g.journal != nil {
		g.journal.SetSyncObserver(g.obsv.ObserveFsync)
		g.journal.SetShardSyncObserver(g.obsv.ObserveShardFsync)
	}
	g.installObsScrape()
	return g
}

// RegisterTool installs a tool binding. Registering a duplicate ID is an
// error.
func (g *Galaxy) RegisterTool(b *ToolBinding) error {
	if b == nil || b.XML == nil || b.Exec == nil {
		return fmt.Errorf("galaxy: incomplete tool binding")
	}
	g.toolsMu.Lock()
	defer g.toolsMu.Unlock()
	if _, dup := g.tools[b.XML.ID]; dup {
		return fmt.Errorf("galaxy: tool %q already registered", b.XML.ID)
	}
	g.tools[b.XML.ID] = b
	return nil
}

// RegisterDefaultTools installs the paper's evaluation tools — racon (with
// the Code 1 macros expanded) and bonito — plus the pypaswas aligner of the
// paper's motivation section and the CPU-only seqstats.
func (g *Galaxy) RegisterDefaultTools() error {
	raconXML, err := toolxml.RaconGPUTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&ToolBinding{
		XML: raconXML, Exec: RaconExecutor,
		ProcNameGPU: "/usr/bin/racon_gpu", ProcNameCPU: "/usr/bin/racon",
	}); err != nil {
		return err
	}
	bonitoXML, err := toolxml.BonitoTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&ToolBinding{
		XML: bonitoXML, Exec: BonitoExecutor,
		ProcNameGPU: "/usr/bin/bonito", ProcNameCPU: "/usr/bin/bonito",
	}); err != nil {
		return err
	}
	paswasXML, err := toolxml.PaswasTool()
	if err != nil {
		return err
	}
	if err := g.RegisterTool(&ToolBinding{
		XML: paswasXML, Exec: PaswasExecutor,
		ProcNameGPU: "/usr/bin/pypaswas", ProcNameCPU: "/usr/bin/pypaswas",
	}); err != nil {
		return err
	}
	statsXML, err := toolxml.ParseCached(toolxml.CPUOnlyToolXML)
	if err != nil {
		return err
	}
	return g.RegisterTool(&ToolBinding{
		XML: statsXML, Exec: SeqStatsExecutor,
		ProcNameGPU: "/usr/bin/seqstats", ProcNameCPU: "/usr/bin/seqstats",
	})
}

// Tool returns a registered binding.
func (g *Galaxy) Tool(id string) (*ToolBinding, error) {
	g.toolsMu.RLock()
	b, ok := g.tools[id]
	g.toolsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("galaxy: tool %q not installed", id)
	}
	return b, nil
}

// Tools returns every installed tool's binding, sorted by tool ID.
func (g *Galaxy) Tools() []*ToolBinding {
	g.toolsMu.RLock()
	out := make([]*ToolBinding, 0, len(g.tools))
	for _, b := range g.tools {
		out = append(out, b)
	}
	g.toolsMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].XML.ID < out[j].XML.ID })
	return out
}

// Jobs returns a snapshot of all jobs in submission order: deep-enough
// clones of the live jobs, taken under g.mu so no transition is caught
// halfway. Each call gets its own clones — mutating them affects neither
// live state nor other readers.
func (g *Galaxy) Jobs() []*Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobs.cloneAll()
}

// Job returns a snapshot of one job: the same deep-enough clone Jobs hands
// out, of that one table entry, taken under g.mu so no transition is caught
// halfway. The second result is false when the ID names no job.
func (g *Galaxy) Job(id int) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := g.jobs.get(id)
	if j == nil {
		return nil, false
	}
	return g.jobs.clone(j), true
}

// SubmitOptions refine a submission.
type SubmitOptions struct {
	// Delay schedules the job's start this long after the current
	// virtual time (used to stage the multi-GPU case experiments).
	Delay time.Duration
	// Runtime forces containerized execution: "docker" or "singularity".
	Runtime string
	// GPURequest overrides the wrapper's requested GPU minor IDs (the
	// end-user editing the version tag, Section IV-C).
	GPURequest string
	// User attributes the job for fair-share accounting; empty means the
	// anonymous user.
	User string
	// Priority is the job's priority class under a batch scheduler
	// (WithScheduler); higher runs first. Ignored by greedy dispatch.
	Priority int
	// GPUs is the gang size a scheduler-managed GPU job requests. Zero
	// falls back to the wrapper's pinned device list, or 1.
	GPUs int
	// EstRuntime is the job's walltime estimate, feeding the scheduler's
	// backfill reservations. Zero uses the scheduler's default.
	EstRuntime time.Duration
	// DatasetName, when set, names the dataset in the server's registry.
	// It is journaled with the submission so crash recovery can re-resolve
	// the payload — the payload itself never touches the journal.
	DatasetName string

	// resubmitDest, when non-empty, pins the job to the named destination
	// instead of the mapper's choice. Set internally when a destination's
	// resubmit_destination param reroutes a failed job (Galaxy's
	// resubmission mechanism).
	resubmitDest string
	// preferDevices hints the batch scheduler toward device minor IDs that
	// already hold the job's input (a workflow step's upstream outputs).
	// Honored only under WithScheduler with a LocalityBonus configured.
	preferDevices []int
	// stageCost, when set, is consulted after placement with the granted
	// device gang and returns the data stage-in time the placement incurs
	// (zero when the input already lives on a granted device). The workflow
	// layer builds the closure from the step's upstream placements; the
	// delay extends the run while the gang is held, so locality misses cost
	// both makespan and queue time downstream.
	stageCost func(devices []int) time.Duration
	// wfID/wfStep tie the job to a workflow step for journaling and
	// observability (zero/empty outside workflows).
	wfID   int
	wfStep string
	// submittedAt backdates the job's submission time (cluster transfers:
	// a stolen or rebalanced job keeps the seniority it earned on its
	// original handler). Zero means "now". The journal record's At stays at
	// the real append time so the on-disk stream remains time-ordered.
	submittedAt time.Duration
	// transferFrom names the handler a transferred job arrived from; when
	// set, the submit record is chased by an adopt record so the journal
	// trail shows provenance (see AcceptTransfer).
	transferFrom string
}

// maxResubmits bounds resubmission chains.
const maxResubmits = 3

// Submit queues a tool execution and schedules its start on the engine.
// The returned job is filled in as lifecycle events run; call
// Engine.Run (or g.Run) to drive it to completion.
//
// Submit is the dispatch hot path and deliberately never takes g.mu: the
// tool lookup is a registry read-lock, the job ID is an atomic increment,
// publication takes the job table's leaf lock, and the journal append — for
// DurableSubmits, including the wait for the fsync covering it — happens on
// the journal's group-commit path, so N concurrent submitters share batched
// writes instead of serializing on the engine lock.
func (g *Galaxy) Submit(toolID string, params map[string]string, dataset any, opts SubmitOptions) (*Job, error) {
	// Read-held across publish+journal so SnapshotJournal can quiesce
	// submissions while it condenses history (see recovery.go).
	g.snapGate.RLock()
	defer g.snapGate.RUnlock()
	return g.submitJob(toolID, params, dataset, opts)
}

// submitJob is the gate-free submit body. Callers hold either snapGate.RLock
// (public Submit) or g.mu (workflow step chaining fires from a completion
// hook under the engine lock, which SnapshotJournal also excludes).
func (g *Galaxy) submitJob(toolID string, params map[string]string, dataset any, opts SubmitOptions) (*Job, error) {
	binding, err := g.Tool(toolID)
	if err != nil {
		return nil, err
	}
	if opts.Runtime != "" {
		if _, ok := binding.XML.ContainerFor(opts.Runtime); !ok {
			return nil, fmt.Errorf("galaxy: tool %q has no %s container", toolID, opts.Runtime)
		}
	}
	now := g.Engine.Clock().Now()
	job := &Job{
		ID:        int(g.nextID.Add(1)),
		ToolID:    toolID,
		Params:    params,
		Dataset:   dataset,
		Runtime:   opts.Runtime,
		User:      userOrAnonymous(opts.User),
		State:     StateQueued,
		Submitted: now,
	}
	if opts.submittedAt != 0 {
		job.Submitted = opts.submittedAt
	}
	job.datasetName = opts.DatasetName
	job.WorkflowID = opts.wfID
	job.StepID = opts.wfStep
	job.submit = journal.Record{
		Type: journal.TypeSubmit, At: now, Handler: g.handlerID,
		Job: job.ID, Tool: toolID, User: job.User, Params: params,
		Dataset: opts.DatasetName, Runtime: opts.Runtime,
		Priority: opts.Priority, GPUs: opts.GPUs, EstRuntime: opts.EstRuntime,
		Submitted: job.Submitted, Workflow: opts.wfID, Step: opts.wfStep,
	}
	// Publish before journaling: the insert is the job's release barrier.
	// The job is visible from here on, so the ticket is stamped under the
	// table lock: a Jobs() call may be cloning it already.
	g.jobs.insert(job)
	if g.asyncDurable {
		g.jobs.stampTicket(job, g.appendJournal(job.submit, false))
	} else {
		g.logJournal(job.submit)
	}
	if opts.transferFrom != "" {
		g.logJournal(journal.Record{
			Type: journal.TypeAdopt, At: now, Job: job.ID,
			From: opts.transferFrom, Msg: "transferred in",
		})
	}
	g.Engine.After(opts.Delay, func(now time.Duration) {
		g.startJob(job, binding, opts, now)
	})
	return job, nil
}

// Run drives the engine until all scheduled work completes and returns the
// final virtual time.
func (g *Galaxy) Run() time.Duration { return g.Engine.Run() }

// startJob performs steps 2-3 of the paper's Fig. 2 flow: destination
// mapping, param-dict evaluation, command rendering, (optional) container
// launch, and tool execution.
func (g *Galaxy) startJob(job *Job, binding *ToolBinding, opts SubmitOptions, now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.startJobLocked(job, binding, opts, now)
}

// startJobLocked runs destination mapping, then either parks the job
// (destination slots, or the batch scheduler's queue) or hands it to
// launchLocked for execution.
func (g *Galaxy) startJobLocked(job *Job, binding *ToolBinding, opts SubmitOptions, now time.Duration) {
	if job.killed {
		return // cancelled while queued
	}
	fail := func(err error) {
		g.failLocked(job, binding, opts, err, nil) // no slot is held before the launch
	}

	// Survey the GPUs through the nvidia-smi XML interface at this
	// instant (a fault-injection site, with quarantined devices hidden),
	// then run GYAN's dynamic destination rule.
	survey, err := g.surveyLocked(job, now)
	if err != nil {
		fail(err)
		return
	}
	tool := binding.XML
	if opts.GPURequest != "" {
		// The end-user pinned device IDs via the requirement's version
		// tag; apply the override on a copy of the wrapper.
		patched := *tool
		patched.Requirements.Items = append([]toolxml.Requirement(nil), tool.Requirements.Items...)
		for i := range patched.Requirements.Items {
			if patched.Requirements.Items[i].IsGPU() {
				patched.Requirements.Items[i].Version = opts.GPURequest
			}
		}
		tool = &patched
	}
	decision, err := g.Mapper.Map(tool, g.Conf, survey)
	if err != nil {
		fail(err)
		return
	}
	if opts.resubmitDest != "" {
		dest, derr := g.Conf.Destination(opts.resubmitDest)
		if derr != nil {
			fail(derr)
			return
		}
		decision.Destination = dest
		decision.Reason = fmt.Sprintf("resubmitted to %q after failure", dest.ID)
		if !dest.BoolParam("gpu_enabled") {
			decision.GPUEnabled = false
			decision.Devices = nil
			decision.VisibleDevices = ""
		}
	}

	g.obsv.Mapped(job.ID, now, decision.Destination.ID)

	// Batch scheduling: GPU jobs park in the scheduler's priority queue
	// and start when a cycle grants them an exclusive device gang.
	// Resubmitted jobs keep the direct path — their fallback destination
	// pin already fixed the placement.
	if g.sched != nil && decision.GPUEnabled && opts.resubmitDest == "" {
		g.parkInSchedulerLocked(job, binding, opts, tool, now)
		return
	}

	// Destination scheduling: park the job if the destination is
	// saturated; it is redispatched (with a fresh GPU survey) when a
	// running job there completes.
	if slots := decision.Destination.Slots(); slots > 0 && g.running[decision.Destination.ID] >= slots {
		job.State = StateQueued
		job.Info = fmt.Sprintf("queued: destination %q has all %d slots busy",
			decision.Destination.ID, slots)
		g.waiting[decision.Destination.ID] = append(g.waiting[decision.Destination.ID],
			&pendingStart{job: job, binding: binding, opts: opts})
		return
	}
	g.running[decision.Destination.ID]++
	destID := decision.Destination.ID
	release := func() {
		g.running[destID]--
		g.dispatchNext(destID)
	}

	g.launchLocked(job, binding, opts, tool, decision, release, now)
}

// launchLocked executes a mapped job: param-dict evaluation, command
// rendering, dependency resolution or container launch, tool execution and
// the completion event. release returns whatever admission slots the caller
// acquired (destination/user slots, or the scheduler's device gang) and must
// be non-nil.
func (g *Galaxy) launchLocked(job *Job, binding *ToolBinding, opts SubmitOptions, tool *toolxml.Tool,
	decision core.Decision, release func(), now time.Duration) {
	fail := func(err error) {
		g.failLocked(job, binding, opts, err, release)
	}

	// Each (re)launch bumps the run epoch; a stale completion event (from
	// a run a fault retry tore down) sees a newer epoch and stands down.
	job.run++
	run := job.run
	attempt := job.Attempt()

	job.State = StateRunning
	job.Started = now
	job.Destination = decision.Destination.ID
	job.GPUEnabled = decision.GPUEnabled
	job.Devices = decision.Devices
	job.VisibleDevices = decision.VisibleDevices
	job.Info = decision.Reason
	job.PID = g.Cluster.NextPID()
	g.logJournal(journal.Record{
		Type: journal.TypeStart, At: now, Job: job.ID, Epoch: run,
		Destination: job.Destination, GPUEnabled: job.GPUEnabled, Devices: job.Devices,
	})

	dict, err := BuildParamDict(tool, job.Params, decision.GPUEnabled)
	if err != nil {
		fail(err)
		return
	}
	job.CommandLine, err = toolxml.RenderCommand(tool.Command.Text, dict)
	if err != nil {
		fail(err)
		return
	}

	start := now
	if opts.stageCost != nil {
		// Data staging: when placement missed the devices holding the job's
		// input, the transfer happens up front while the granted gang sits
		// idle — the physical cost locality-aware placement avoids.
		if d := opts.stageCost(decision.Devices); d > 0 {
			job.StageIn = d
			start += d
		}
	}
	containerized := job.Runtime != ""
	if !containerized {
		// Resolve the wrapper's package requirements through the conda
		// channel; the first run of a tool pays the install.
		var reqs []depres.Dep
		for _, r := range tool.Requirements.Items {
			if strings.EqualFold(r.Type, "package") {
				reqs = append(reqs, depres.Dep{Name: strings.TrimSpace(r.Name), Spec: r.Version})
			}
		}
		if len(reqs) > 0 {
			resolution, err := g.Deps.Resolve(reqs)
			if err != nil {
				fail(fmt.Errorf("dependency resolution: %w", err))
				return
			}
			job.DependencyInstall = resolution.InstallTime
			start += resolution.InstallTime
		}
	}
	if containerized {
		img, _ := tool.ContainerFor(job.Runtime)
		spec := container.LaunchSpec{
			Runtime: job.Runtime,
			Image:   img.Image,
			Command: job.CommandLine,
			Env: map[string]string{
				"GALAXY_GPU_ENABLED": fmt.Sprintf("%v", decision.GPUEnabled),
			},
			Volumes: []container.VolumeMount{{Host: "/galaxy/database", Container: "/data", Mode: "rw"}},
			GPU:     decision.GPUEnabled,
			JobID:   job.ID,
			ToolID:  job.ToolID,
			Attempt: attempt,
			At:      now,
		}
		if decision.VisibleDevices != "" {
			spec.Env["CUDA_VISIBLE_DEVICES"] = decision.VisibleDevices
		}
		run, err := g.Containers.Launch(spec)
		if err != nil {
			fail(err)
			return
		}
		job.ContainerCommand = run.CommandLine
		// Image pull happens before the tool starts; the 0.6 s cold
		// start itself is part of the tool cost model.
		start += run.StartupCost - 600*time.Millisecond
	}

	req := ExecRequest{
		Cluster:       g.Cluster,
		Devices:       decision.Devices,
		PID:           job.PID,
		GPUEnabled:    decision.GPUEnabled,
		Containerized: containerized,
		Start:         start,
		Params:        dict,
		Dataset:       job.Dataset,
	}
	// The executor invocation is a fault-injection site: a fired OpExec
	// fault fails the call outright, before any device session opens.
	execSite := faults.Site{Op: faults.OpExec, Job: job.ID, Tool: job.ToolID, Attempt: attempt, Devices: decision.Devices}
	if f, fired := g.faultPlan.Check(now, execSite); fired {
		fail(faults.NewError(execSite, f))
		return
	}
	res, err := binding.Exec(req)
	// The executor opened (or failed to open) device sessions either way:
	// any same-instant survey cache is stale now.
	g.surveyCache.Invalidate()
	if err != nil {
		// Galaxy resubmission: a destination may name a fallback for
		// failed jobs (e.g. device OOM on the GPU destination reroutes
		// to the CPU one). The current slots are released and the job
		// re-enters dispatch pinned to the fallback. Classified faults
		// skip this path — they belong to the retry machinery.
		_, classified := faults.ClassOf(err)
		if dest, ok := decision.Destination.Param("resubmit_destination"); ok &&
			!classified && dest != "" && job.Resubmitted < maxResubmits {
			job.Resubmitted++
			job.State = StateQueued
			job.Info = fmt.Sprintf("resubmitting to %q after failure: %v", dest, err)
			release()
			release = nil
			retry := opts
			retry.resubmitDest = dest
			g.Engine.After(0, func(again time.Duration) {
				g.startJob(job, binding, retry, again)
			})
			return
		}
		fail(err)
		return
	}
	job.Result = res
	job.sessions = res.Sessions
	end := start + res.Total
	job.release = release
	end = g.armRunFaultsLocked(job, binding, opts, decision.Devices, run, start, end, now)
	g.Engine.Schedule(end, func(fin time.Duration) {
		g.mu.Lock()
		defer g.mu.Unlock()
		if job.killed || job.run != run {
			return // a kill or a fault retry already tore this run down
		}
		for _, s := range job.sessions {
			s.Close()
		}
		g.surveyCache.Invalidate()
		job.sessions = nil
		job.release = nil
		job.finish(StateOK, fin)
		g.logJournal(journal.Record{
			Type: journal.TypeComplete, At: fin, Job: job.ID,
			Epoch: run, State: string(StateOK),
		})
		release()
	})
}

// Kill cancels a job at the current virtual time, the user-driven
// termination the paper's monitor handles ("stopped when a job is either
// killed or stops"). A running job's device sessions are closed immediately
// and its scheduler slots are released; a queued job is marked killed and
// skipped when its start event or queue dispatch reaches it. Killing a
// finished job is a no-op.
func (g *Galaxy) Kill(job *Job) {
	if job == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Jobs() hands out immutable clones; resolve the live job by ID so a
	// kill through a snapshot still lands. Foreign job values (an ID this
	// instance never issued, or a clone that doesn't match what the ID
	// resolves to) are ignored.
	live := g.jobs.get(job.ID)
	if live == nil {
		return
	}
	if live != job && (live.ToolID != job.ToolID || live.Submitted != job.Submitted) {
		return
	}
	job = live
	if job.Done() || job.killed {
		return
	}
	job.killed = true
	now := g.Engine.Clock().Now()
	for _, s := range job.sessions {
		s.Abort(now)
	}
	g.surveyCache.Invalidate()
	job.sessions = nil
	job.Info = "killed by user"
	job.finish(StateError, now)
	g.logJournal(journal.Record{
		Type: journal.TypeComplete, At: now, Job: job.ID,
		State: string(StateError), Msg: job.Info,
	})
	if job.release != nil {
		rel := job.release
		job.release = nil
		rel()
	} else if g.sched != nil {
		// Queued under the batch scheduler: drop it from the priority
		// queue so a later cycle cannot start a dead job.
		if _, parked := g.schedJobs[job.ID]; parked {
			g.sched.Remove(job.ID)
			delete(g.schedJobs, job.ID)
			g.obsv.Unqueued(job.ID, now)
			g.recordQueueLocked(now)
		}
	}
}

// dispatchNext redispatches the oldest job waiting on the destination, if
// any, with a fresh GPU survey at the current virtual time.
func (g *Galaxy) dispatchNext(destID string) {
	queue := g.waiting[destID]
	if len(queue) == 0 {
		return
	}
	next := queue[0]
	g.waiting[destID] = queue[1:]
	g.Engine.After(0, func(now time.Duration) {
		g.mu.Lock()
		defer g.mu.Unlock()
		if next.job.killed {
			// Killed while it waited: the slot goes to whoever is behind it.
			g.dispatchNext(destID)
			return
		}
		g.startJobLocked(next.job, next.binding, next.opts, now)
	})
}

func userOrAnonymous(user string) string {
	if user == "" {
		return "anonymous"
	}
	return user
}
