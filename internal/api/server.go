// Package api exposes a Galaxy instance over HTTP/JSON — the reproduction of
// Galaxy's web-facing surface (the paper's Fig. 2 begins with "users trigger
// a job submission through the Galaxy web-interface"). The API is
// deliberately small: tool discovery, job submission/status, the nvidia-smi
// views, and the hardware monitor aggregate.
//
// Because execution time is virtual, a submission runs the discrete-event
// engine to completion before responding; the returned job carries both its
// placement decision and its modeled timings.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gyan/internal/galaxy"
	"gyan/internal/journal"
	"gyan/internal/monitor"
	"gyan/internal/smi"
	"gyan/internal/tools/racon"
	"gyan/internal/workload"
)

// Server wraps a Galaxy instance. Create with NewServer, mount Handler.
type Server struct {
	mu  sync.Mutex
	g   *galaxy.Galaxy
	mon *monitor.Monitor
}

// NewServer wraps g. A request names its dataset, which the engine's
// registry (galaxy.RegisterDataset) resolves.
func NewServer(g *galaxy.Galaxy) *Server {
	s := &Server{g: g, mon: monitor.New(g.Cluster)}
	s.installGPUGauges()
	return s
}

// RegisterDataset makes a dataset submittable by name: it registers it on
// the engine (galaxy.RegisterDataset).
func (s *Server) RegisterDataset(name string, dataset any) { s.g.RegisterDataset(name, dataset) }

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/version", s.handleVersion)
	mux.HandleFunc("/api/tools", s.handleTools)
	mux.HandleFunc("/api/datasets", s.handleDatasets)
	mux.HandleFunc("/api/jobs", s.handleJobs)
	mux.HandleFunc("/api/jobs/", s.handleJob)
	mux.HandleFunc("/api/smi", s.handleSMI)
	mux.HandleFunc("/api/monitor", s.handleMonitor)
	mux.HandleFunc("/api/faults", s.handleFaults)
	mux.HandleFunc("/api/history", s.handleHistory)
	mux.HandleFunc("/api/workflows", s.handleWorkflows)
	mux.HandleFunc("/api/workflows/", s.handleWorkflow)
	mux.HandleFunc("/api/recovery", s.handleRecovery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// writeJSON encodes v into a buffer before touching the response: an
// encoder failure mid-body would otherwise leave a 200 status on truncated
// JSON, which clients cannot distinguish from a good response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q}\n", "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a submitting request's JSON body; the largest real
// one, a workflow with its steps' parameters, is a few kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody reads a request's JSON body into v, answering 413 for a body
// over maxBodyBytes and 400 for one that does not parse; false means it
// answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
	}
	return err == nil
}

// methodNotAllowed writes the uniform 405 of both servers: an Allow header
// naming the supported verbs plus the standard JSON error envelope.
func methodNotAllowed(w http.ResponseWriter, allowed ...string) {
	verbs := strings.Join(allowed, ", ")
	w.Header().Set("Allow", verbs)
	writeErr(w, http.StatusMethodNotAllowed, "method not allowed (allow: %s)", verbs)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"name":    "gyan",
		"version": "1.0",
		"paper":   "GYAN: Accelerating Bioinformatics Tools in Galaxy with GPU-Aware Computation Mapping (IPPS 2021)",
	})
}

// toolJSON is the wire form of a registered tool.
type toolJSON struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Version     string   `json:"version"`
	RequiresGPU bool     `json:"requires_gpu"`
	Containers  []string `json:"containers,omitempty"`
}

func (s *Server) handleTools(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []toolJSON
	for _, b := range s.g.Tools() {
		tj := toolJSON{
			ID:          b.XML.ID,
			Name:        b.XML.Name,
			Version:     b.XML.Version,
			RequiresGPU: b.XML.RequiresGPU(),
		}
		for _, runtime := range []string{"docker", "singularity"} {
			if _, ok := b.XML.ContainerFor(runtime); ok {
				tj.Containers = append(tj.Containers, runtime)
			}
		}
		out = append(out, tj)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.g.Datasets())
}

// submitRequest is the POST /api/jobs body.
type submitRequest struct {
	Tool       string            `json:"tool"`
	Params     map[string]string `json:"params"`
	Dataset    string            `json:"dataset"`
	Runtime    string            `json:"runtime"`
	GPURequest string            `json:"gpu_request"`
}

// jobJSON is the wire form of a job.
type jobJSON struct {
	ID               int               `json:"id"`
	Tool             string            `json:"tool"`
	State            string            `json:"state"`
	Destination      string            `json:"destination"`
	GPUEnabled       bool              `json:"gpu_enabled"`
	VisibleDevices   string            `json:"cuda_visible_devices,omitempty"`
	PID              int               `json:"pid"`
	Command          string            `json:"command"`
	ContainerCommand []string          `json:"container_command,omitempty"`
	Info             string            `json:"info"`
	WallSeconds      float64           `json:"wall_seconds"`
	Output           string            `json:"output,omitempty"`
	Params           map[string]string `json:"params,omitempty"`
	Attempts         int               `json:"attempts"`
	Failures         []failureJSON     `json:"failures,omitempty"`
}

// failureJSON is one entry of a job's classified-failure log.
type failureJSON struct {
	AtSeconds float64 `json:"at_seconds"`
	Attempt   int     `json:"attempt"`
	Op        string  `json:"op"`
	Class     string  `json:"class"`
	Msg       string  `json:"msg"`
	Devices   []int   `json:"devices,omitempty"`
}

func toJobJSON(j *galaxy.Job) jobJSON {
	out := jobJSON{
		ID:               j.ID,
		Tool:             j.ToolID,
		State:            string(j.State),
		Destination:      j.Destination,
		GPUEnabled:       j.GPUEnabled,
		VisibleDevices:   j.VisibleDevices,
		PID:              j.PID,
		Command:          j.CommandLine,
		ContainerCommand: j.ContainerCommand,
		Info:             j.Info,
		WallSeconds:      j.WallTime().Seconds(),
		Params:           j.Params,
		Attempts:         j.Attempt(),
	}
	for _, f := range j.Failures {
		out.Failures = append(out.Failures, failureJSON{
			AtSeconds: f.At.Seconds(),
			Attempt:   f.Attempt,
			Op:        string(f.Op),
			Class:     f.Class.String(),
			Msg:       f.Msg,
			Devices:   f.Devices,
		})
	}
	if j.Result != nil {
		out.Output = j.Result.Output
	}
	return out
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		jobs := s.g.Jobs() // one snapshot, consistent across every job
		out := make([]jobJSON, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, toJobJSON(j))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req submitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if !durable(w, s.g.JournalError()) {
			return
		}
		dataset, ok := s.g.Dataset(req.Dataset)
		if !ok {
			writeErr(w, http.StatusBadRequest, "unknown dataset %q", req.Dataset)
			return
		}
		job, err := s.g.Submit(req.Tool, req.Params, dataset, galaxy.SubmitOptions{
			Runtime:     req.Runtime,
			GPURequest:  req.GPURequest,
			DatasetName: req.Dataset,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.run()
		if durable(w, s.g.JournalError()) {
			writeJSON(w, http.StatusCreated, toJobJSON(job))
		}
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// run is what every submitting endpoint does between its submit and its
// reply (s.mu held): time is virtual, so it drives the simulation to
// quiescence, with the hardware monitor sampling once per virtual second
// while the submitted work is live.
func (s *Server) run() {
	s.mon.Watch(s.g.Engine, time.Second)
	s.g.Run()
}

// durable brackets every submitting endpoint, here and in ClusterServer,
// because acked must mean durable. A journal append error is latched, not
// returned, so a submit made after the journal failed would run without
// reaching disk. Given the latch (JournalError) before the submit, durable
// refuses new work once it is set, so a client retrying a 503 does not run
// it again off the record; given it after the submit, it catches a failure
// of the request's own append. Either way it answers 503 itself and reports
// false.
func durable(w http.ResponseWriter, err error) bool {
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "not acknowledged: submit is not durable: %v", err)
		return false
	}
	return true
}

// handleJob routes /api/jobs/{id} and its sub-resources. The id segment is
// parsed first, on its own, so a bad sub-resource can never masquerade as a
// bad job id: /api/jobs/3/bogus is a 404 on "bogus", not a 400 on "3/bogus".
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	idText, sub, hasSub := strings.Cut(rest, "/")
	id, err := strconv.Atoi(idText)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job id %q", idText)
		return
	}
	if hasSub {
		switch sub {
		case "resubmit":
			s.handleResubmit(w, r, id)
		case "trail":
			s.handleTrail(w, r, id)
		default:
			writeErr(w, http.StatusNotFound, "no such job sub-resource %q", sub)
		}
		return
	}
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.g.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %d", id)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(j))
}

// handleResubmit is the POST /api/jobs/{id}/resubmit admin endpoint: a
// dead-lettered job re-enters dispatch as a fresh run epoch with a reset
// retry budget, its failure log retained for post-mortem.
func (s *Server) handleResubmit(w http.ResponseWriter, r *http.Request, id int) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !durable(w, s.g.JournalError()) {
		return
	}
	job, err := s.g.ResubmitDeadLetter(id)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, galaxy.ErrNoJob) {
			status = http.StatusNotFound
		}
		writeErr(w, status, "%v", err)
		return
	}
	s.run()
	if durable(w, s.g.JournalError()) {
		writeJSON(w, http.StatusCreated, toJobJSON(job))
	}
}

// recoveryResponse is the GET /api/recovery body: whether this handler
// journals, what it recovered at boot, and the journal's write-side
// counters.
type recoveryResponse struct {
	Handler    string                 `json:"handler,omitempty"`
	Journaling bool                   `json:"journaling"`
	Recovered  bool                   `json:"recovered"`
	Report     *galaxy.RecoveryReport `json:"report,omitempty"`
	Stats      *journal.Stats         `json:"journal_stats,omitempty"`
	// Watermark is the journal's durable commit watermark: every record
	// ticketed at or below it has been fsynced.
	Watermark uint64 `json:"watermark,omitempty"`
	Error     string `json:"journal_error,omitempty"`
}

// handleRecovery serves the durability status (GET) and triggers a
// snapshot+compaction (POST with action=compact).
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		resp := recoveryResponse{Handler: s.g.HandlerID()}
		if stats, ok := s.g.JournalStats(); ok {
			resp.Journaling = true
			resp.Stats = &stats
			resp.Watermark = stats.Watermark
		}
		if rep := s.g.LastRecovery(); rep != nil {
			resp.Recovered = true
			resp.Report = rep
		}
		if err := s.g.JournalError(); err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		if r.URL.Query().Get("action") != "compact" {
			writeErr(w, http.StatusBadRequest, "POST requires action=compact")
			return
		}
		if err := s.g.SnapshotJournal(); err != nil {
			writeErr(w, http.StatusConflict, "%v", err)
			return
		}
		stats, _ := s.g.JournalStats()
		writeJSON(w, http.StatusOK, map[string]any{"compacted": true, "journal_stats": stats})
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

func (s *Server) handleSMI(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.g.Engine.Clock().Now()
	switch r.URL.Query().Get("format") {
	case "xml":
		doc, err := smi.Query(s.g.Cluster, now)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, doc)
	case "", "console":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, smi.Console(smi.Snapshot(s.g.Cluster, now)))
	case "pmon":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, smi.RenderPmon(smi.Pmon(s.g.Cluster, []time.Duration{now})))
	case "dmon":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, smi.RenderDmon(smi.Dmon(s.g.Cluster, []time.Duration{now})))
	default:
		writeErr(w, http.StatusBadRequest, "format must be console, xml, pmon or dmon")
	}
}

func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.mon.Stats())
}

// faultEventJSON is one fired injection, for the /api/faults view.
type faultEventJSON struct {
	AtSeconds float64 `json:"at_seconds"`
	Op        string  `json:"op"`
	Job       int     `json:"job"`
	Tool      string  `json:"tool,omitempty"`
	Attempt   int     `json:"attempt"`
	Devices   []int   `json:"devices,omitempty"`
	Class     string  `json:"class"`
	Msg       string  `json:"msg"`
}

// quarantineSpanJSON is one device's stay in quarantine; end_seconds is
// absent for open (still active) spans.
type quarantineSpanJSON struct {
	Device       int      `json:"device"`
	FromSeconds  float64  `json:"from_seconds"`
	UntilSeconds *float64 `json:"until_seconds,omitempty"`
}

// faultsResponse is the GET /api/faults body: everything the fault model
// surfaces — the injection log, quarantine state and the dead-letter queue.
type faultsResponse struct {
	Injected    int                  `json:"injected"`
	Events      []faultEventJSON     `json:"events,omitempty"`
	Quarantined []int                `json:"quarantined_devices,omitempty"`
	Spans       []quarantineSpanJSON `json:"quarantine_spans,omitempty"`
	DeadLetters []jobJSON            `json:"dead_letters,omitempty"`
}

// handleFaults serves the fault-injection post-mortem: what fired where,
// which devices are blacklisted, and which jobs exhausted recovery.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.g.Engine.Clock().Now()
	resp := faultsResponse{}
	if plan := s.g.FaultPlan(); plan != nil {
		resp.Injected = plan.Fired()
		for _, e := range plan.Events() {
			resp.Events = append(resp.Events, faultEventJSON{
				AtSeconds: e.At.Seconds(),
				Op:        string(e.Site.Op),
				Job:       e.Site.Job,
				Tool:      e.Site.Tool,
				Attempt:   e.Site.Attempt,
				Devices:   e.Site.Devices,
				Class:     e.Fault.Class.String(),
				Msg:       e.Fault.Msg,
			})
		}
	}
	if q := s.g.DeviceQuarantine(); q != nil {
		resp.Quarantined = q.Quarantined(now)
		for _, sp := range q.Spans() {
			sj := quarantineSpanJSON{Device: sp.Device, FromSeconds: sp.From.Seconds()}
			if !sp.Open() {
				until := sp.To.Seconds()
				sj.UntilSeconds = &until
			}
			resp.Spans = append(resp.Spans, sj)
		}
	}
	for _, j := range s.g.DeadLetters() {
		resp.DeadLetters = append(resp.DeadLetters, toJobJSON(j))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHistory serves the shareable JSON-lines job history.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.g.ExportHistory(w); err != nil {
		// Headers are out; nothing more to do than log via the body.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}

// workflowStepRequest is one step of a POST /api/workflows body. Steps
// after the first may set chain_backbone to feed the previous racon
// consensus in as the next draft (iterated polishing).
type workflowStepRequest struct {
	Tool          string            `json:"tool"`
	Params        map[string]string `json:"params"`
	Dataset       string            `json:"dataset,omitempty"`
	Runtime       string            `json:"runtime,omitempty"`
	GPURequest    string            `json:"gpu_request,omitempty"`
	ChainBackbone bool              `json:"chain_backbone,omitempty"`
}

type workflowRequest struct {
	Name  string                `json:"name"`
	Steps []workflowStepRequest `json:"steps"`
}

type workflowResponse struct {
	Name        string    `json:"name"`
	State       string    `json:"state"`
	Info        string    `json:"info,omitempty"`
	WallSeconds float64   `json:"wall_seconds"`
	Jobs        []jobJSON `json:"jobs"`
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.mu.Lock()
		defer s.mu.Unlock()
		statuses := []galaxy.WorkflowStatus{}
		for _, wr := range s.g.Workflows() {
			statuses = append(statuses, wr.Status())
		}
		writeJSON(w, http.StatusOK, statuses)
		return
	}
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
		return
	}
	var req workflowRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !durable(w, s.g.JournalError()) {
		return
	}
	// The wire shape is a chain: step i waits for step i-1, taking either
	// a dataset of its own or, with chain_backbone, its predecessor's
	// consensus.
	steps := make([]galaxy.DAGStep, 0, len(req.Steps))
	for i, sr := range req.Steps {
		step := galaxy.DAGStep{
			ID:          fmt.Sprintf("step-%d", i),
			ToolID:      sr.Tool,
			Params:      sr.Params,
			DatasetName: sr.Dataset,
			Options:     galaxy.SubmitOptions{Runtime: sr.Runtime, GPURequest: sr.GPURequest},
		}
		if sr.Dataset != "" {
			dataset, ok := s.g.Dataset(sr.Dataset)
			if !ok {
				writeErr(w, http.StatusBadRequest, "step %d: unknown dataset %q", i, sr.Dataset)
				return
			}
			step.Dataset = dataset
		}
		if i > 0 {
			step.After = []string{steps[i-1].ID}
			if sr.ChainBackbone {
				step.Transform = chainBackbone
			} else if sr.Dataset == "" {
				writeErr(w, http.StatusBadRequest, "step %d has neither dataset nor chain_backbone", i)
				return
			}
		}
		steps = append(steps, step)
	}
	wr, err := s.g.SubmitDAG(req.Name, steps, galaxy.DAGOptions{})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.run()
	ws := wr.Status()
	resp := workflowResponse{
		Name:        ws.Name,
		State:       string(ws.State),
		Info:        ws.Info,
		WallSeconds: wr.WallTime().Seconds(),
	}
	for _, st := range ws.Steps {
		// Steps skipped after a failure never became jobs.
		if j, ok := s.g.Job(st.JobID); ok {
			resp.Jobs = append(resp.Jobs, toJobJSON(j))
		}
	}
	status := http.StatusCreated
	if ws.State == galaxy.StateError {
		status = http.StatusUnprocessableEntity
	}
	if durable(w, s.g.JournalError()) {
		writeJSON(w, status, resp)
	}
}

// handleWorkflow serves one workflow: GET /api/workflows/{id} returns its
// status snapshot, GET /api/workflows/{id}/trail the trails of its member
// jobs. Unknown sub-resources are 404, matching /api/jobs/{id}.
func (s *Server) handleWorkflow(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/workflows/")
	idText, sub, hasSub := strings.Cut(rest, "/")
	id, err := strconv.Atoi(idText)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad workflow id %q", idText)
		return
	}
	if hasSub && sub != "trail" {
		writeErr(w, http.StatusNotFound, "no such workflow sub-resource %q", sub)
		return
	}
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wr := s.g.WorkflowByID(id)
	if wr == nil {
		writeErr(w, http.StatusNotFound, "no workflow %d", id)
		return
	}
	if hasSub {
		writeJSON(w, http.StatusOK, map[string]any{
			"workflow": id,
			"steps":    wr.Trails(),
		})
		return
	}
	writeJSON(w, http.StatusOK, wr.Status())
}

// chainBackbone is the iterated-polishing transform: the previous step's
// consensus becomes the next step's draft backbone.
func chainBackbone(parents []*galaxy.Job) (any, error) {
	prev := parents[0]
	res, ok := prev.Result.Detail.(*racon.Result)
	if !ok {
		return nil, fmt.Errorf("chain_backbone requires a racon step, got %T", prev.Result.Detail)
	}
	set, ok := prev.Dataset.(*workload.ReadSet)
	if !ok {
		return nil, fmt.Errorf("chain_backbone requires a read-set dataset, got %T", prev.Dataset)
	}
	next := *set
	next.Backbone = res.Consensus
	return &next, nil
}
