package galaxy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

	// mu is the engine's one lock. It guards everything below that is not
	// fixed at build time — the tool registry, the job table, the ID
	// allocators, the queues and scheduler, fault-recovery state —
	// and every job field after its insert; engine callbacks run under it.
	// Every program already serializes above the handler, so a second lock
	// would buy no concurrency. Submit holds mu only to insert the job and
	// stage its record, and waits for the fsync after releasing it, which is
	// what lets concurrent submitters share one. See DESIGN.md §10.
	mu sync.Mutex

	tools map[string]*ToolBinding
	// datasets names the payloads a submission can refer to (see
	// RegisterDataset).
	datasets map[string]any

	// jobs is the job table; nextID is the last job ID issued.
	jobs   map[int]*Job
	nextID int

	// surveyCache shares one nvidia-smi parse among surveys that see the
	// same device report (see internal/smi).
	surveyCache *smi.Cache

	// obsv receives every journaled job-state transition, plus the
	// scheduler-queue and quarantine events that are not journaled (metrics
	// + traces, see internal/obs). It is always non-nil — observability is
	// on even with journaling off.
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

	// DAG workflows (see dag.go): live runs by ID; nextWF is the last
	// workflow ID issued.
	workflows map[int]*WorkflowRun
	nextWF    int

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
	// state transition; handlerID names this handler in ownership records.
	// Both are fixed at build time. journalErr latches the first append
	// failure.
	journal    *journal.Journal
	handlerID  string
	journalErr error

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
	return func(g *Galaxy) { g.nextID = n }
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
		datasets:       make(map[string]any),
		jobs:           make(map[int]*Job),
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
	}
	g.installObsScrape()
	return g
}

// RegisterTool installs a tool binding and derives its wrapper's param spec,
// which every submit of the tool is checked against. Registering a
// duplicate ID, or a wrapper whose inputs do not type, is an error.
func (g *Galaxy) RegisterTool(b *ToolBinding) error {
	if b == nil || b.XML == nil || b.Exec == nil {
		return fmt.Errorf("galaxy: incomplete tool binding")
	}
	spec, err := b.XML.Spec()
	if err != nil {
		return fmt.Errorf("galaxy: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.tools[b.XML.ID]; dup {
		return fmt.Errorf("galaxy: tool %q already registered", b.XML.ID)
	}
	b.spec = spec
	g.tools[b.XML.ID] = b
	return nil
}

// RegisterDataset names a payload. It is the one name-to-payload registry:
// every front door resolves a request's dataset here, and crash recovery,
// workflow resume and an accepted transfer re-resolve a journaled name
// here, because a payload never touches the journal or the wire.
// Registering a name again replaces its payload.
func (g *Galaxy) RegisterDataset(name string, payload any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.datasets[name] = payload
}

// Dataset returns the payload registered under name.
func (g *Galaxy) Dataset(name string) (any, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ds, ok := g.datasets[name]
	return ds, ok
}

// Datasets returns the registered dataset names, sorted.
func (g *Galaxy) Datasets() []string {
	g.mu.Lock()
	names := make([]string, 0, len(g.datasets))
	for name := range g.datasets {
		names = append(names, name)
	}
	g.mu.Unlock()
	sort.Strings(names)
	return names
}

// builtinTool is one tool this package ships: its wrapper, its executor and
// the executables nvidia-smi shows on a GPU and on a CPU placement.
type builtinTool struct {
	wrapper  func() (*toolxml.Tool, error)
	exec     Executor
	gpu, cpu string
}

// RegisterDefaultTools installs the paper's evaluation tools — racon (with
// the Code 1 macros expanded) and bonito — plus the pypaswas aligner of the
// paper's motivation section and the CPU-only seqstats.
func (g *Galaxy) RegisterDefaultTools() error {
	return g.registerBuiltins([]builtinTool{
		{toolxml.RaconGPUTool, RaconExecutor, "/usr/bin/racon_gpu", "/usr/bin/racon"},
		{toolxml.BonitoTool, BonitoExecutor, "/usr/bin/bonito", "/usr/bin/bonito"},
		{toolxml.PaswasTool, PaswasExecutor, "/usr/bin/pypaswas", "/usr/bin/pypaswas"},
		{func() (*toolxml.Tool, error) { return toolxml.ParseCached(toolxml.CPUOnlyToolXML) },
			SeqStatsExecutor, "/usr/bin/seqstats", "/usr/bin/seqstats"},
	})
}

// RegisterGenomicsTools installs the short-variant pipeline tools (bwa-mem,
// variant-caller, bqsr) alongside whatever is already registered.
func (g *Galaxy) RegisterGenomicsTools() error {
	return g.registerBuiltins([]builtinTool{
		{toolxml.BwaMemTool, BwaMemExecutor, "/usr/bin/bwa-mem-gpu", "/usr/bin/bwa-mem2"},
		{toolxml.VariantCallerTool, VariantCallExecutor, "/usr/bin/vcall-gpu", "/usr/bin/gatk"},
		{toolxml.BQSRTool, BQSRExecutor, "/usr/bin/bqsr-gpu", "/usr/bin/gatk"},
	})
}

func (g *Galaxy) registerBuiltins(tools []builtinTool) error {
	for _, t := range tools {
		xml, err := t.wrapper()
		if err != nil {
			return err
		}
		if err := g.RegisterTool(&ToolBinding{
			XML: xml, Exec: t.exec, ProcNameGPU: t.gpu, ProcNameCPU: t.cpu,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Tool returns a registered binding.
func (g *Galaxy) Tool(id string) (*ToolBinding, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.toolLocked(id)
}

// toolLocked is Tool for a caller that holds g.mu.
func (g *Galaxy) toolLocked(id string) (*ToolBinding, error) {
	b, ok := g.tools[id]
	if !ok {
		return nil, fmt.Errorf("galaxy: tool %q not installed", id)
	}
	return b, nil
}

// Tools returns every installed tool's binding, sorted by tool ID.
func (g *Galaxy) Tools() []*ToolBinding {
	g.mu.Lock()
	out := make([]*ToolBinding, 0, len(g.tools))
	for _, b := range g.tools {
		out = append(out, b)
	}
	g.mu.Unlock()
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
	out := g.jobsLocked()
	for i, j := range out {
		out[i] = j.clone()
	}
	return out
}

// jobsLocked returns the live jobs sorted by ID, which is submission order.
// Caller holds g.mu.
func (g *Galaxy) jobsLocked() []*Job {
	out := make([]*Job, 0, len(g.jobs))
	for _, j := range g.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Job returns a snapshot of one job: the same deep-enough clone Jobs hands
// out, of that one table entry, taken under g.mu so no transition is caught
// halfway. The second result is false when the ID names no job.
func (g *Galaxy) Job(id int) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j := g.jobs[id]
	if j == nil {
		return nil, false
	}
	return j.clone(), true
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
	// DatasetName, when set, names the dataset in the engine's registry
	// (RegisterDataset). It is journaled with the submission so recovery
	// and a thief can re-resolve the payload — the payload itself never
	// touches the journal or the wire.
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
// Submit holds g.mu only to insert the job and stage its submit record, and
// waits for the fsync covering the record after releasing it: concurrent
// submitters stage one after another and then share the flusher's next
// batch, instead of each holding the engine lock across its own fsync. A
// journal failure is latched (JournalError), not returned.
func (g *Galaxy) Submit(toolID string, params map[string]string, dataset any, opts SubmitOptions) (*Job, error) {
	g.mu.Lock()
	job, tick, err := g.submitJob(toolID, params, dataset, opts)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := g.awaitDurable(tick); err != nil {
		g.mu.Lock()
		g.latchJournalErrLocked(err)
		g.mu.Unlock()
	}
	return job, nil
}

// submitJob is the one submit body, run under g.mu: tool lookup, the param
// and dataset check, ID, insert, the staged submit record (chased by an
// adopt record for a transfer) and the start event. A refused job takes no
// ID and stages no record. It returns the highest ticket it staged; the
// caller waits for it — Submit after unlocking, a workflow step under g.mu.
func (g *Galaxy) submitJob(toolID string, params map[string]string, dataset any, opts SubmitOptions) (*Job, uint64, error) {
	binding, err := g.toolLocked(toolID)
	if err != nil {
		return nil, 0, err
	}
	if err := binding.check(params, dataset); err != nil {
		return nil, 0, fmt.Errorf("galaxy: %w", err)
	}
	if opts.Runtime != "" {
		if _, ok := binding.XML.ContainerFor(opts.Runtime); !ok {
			return nil, 0, fmt.Errorf("galaxy: tool %q has no %s container", toolID, opts.Runtime)
		}
	}
	now := g.Engine.Clock().Now()
	g.nextID++
	job := &Job{
		ID:        g.nextID,
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
	job.WorkflowID = opts.wfID
	job.StepID = opts.wfStep
	job.submit = journal.Record{
		Type: journal.TypeSubmit, At: now, Handler: g.handlerID,
		Job: job.ID, Tool: toolID, User: job.User, Params: params,
		Dataset: opts.DatasetName, Runtime: opts.Runtime,
		Priority: opts.Priority, GPUs: opts.GPUs, EstRuntime: opts.EstRuntime,
		Submitted: job.Submitted, GPURequest: opts.GPURequest,
		Workflow: opts.wfID, Step: opts.wfStep,
	}
	// The insert and the staged record share this critical section, so
	// SnapshotJournal (which also holds g.mu) either carries the job or
	// runs before its record is staged.
	g.jobs[job.ID] = job
	tick := g.stageJournal(job.submit)
	if opts.transferFrom != "" {
		tick = g.stageJournal(journal.Record{
			Type: journal.TypeAdopt, At: now, Job: job.ID,
			From: opts.transferFrom, Msg: "transferred in",
		})
	}
	g.Engine.After(opts.Delay, func(now time.Duration) {
		g.startJob(job, binding, opts, now)
	})
	return job, tick, nil
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
		Env:           gpu.Env{PID: job.PID, ProcName: binding.ProcNameCPU, Start: start, KeepOpen: true},
		Containerized: containerized,
		Params:        dict,
		Dataset:       job.Dataset,
	}
	if decision.GPUEnabled && len(decision.Devices) > 0 {
		req.Cluster, req.Devices, req.ProcName = g.Cluster, decision.Devices, binding.ProcNameGPU
	}
	// The executor invocation is a fault-injection site: a fired OpExec
	// fault fails the call outright, before any device session opens.
	execSite := faults.Site{Op: faults.OpExec, Job: job.ID, Tool: job.ToolID, Attempt: attempt, Devices: decision.Devices}
	if f, fired := g.faultPlan.Check(now, execSite); fired {
		fail(faults.NewError(execSite, f))
		return
	}
	res, err := binding.Exec(req)
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
	live := g.jobs[job.ID]
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
