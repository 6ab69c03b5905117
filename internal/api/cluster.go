package api

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gyan/internal/cluster"
	"gyan/internal/galaxy"
	"gyan/internal/obs"
)

// clusterView is what ClusterServer serves: a whole simulated cluster
// (*cluster.Sim, gyan-server -cluster-size N) or this process's one member
// of a networked one (*cluster.Node, gyan-server -bus tcp).
type clusterView interface {
	Submit(tool string, params map[string]string, dataset string, opts cluster.SubmitOptions) (cluster.JobRef, error)
	Lookup(key uint64) (cluster.JobRef, *galaxy.Job, bool)
	Keys() []uint64
	KillJob(key uint64) bool
	Step() bool
	Now() time.Duration
	Status() cluster.Status
	Survey() []cluster.HandlerSurvey
	TransportStatus() cluster.TransportStatus
	SyncJournals() error
	Registry() *obs.Registry
}

// ClusterServer exposes a handler cluster over HTTP/JSON — the multi-handler
// sibling of Server. Submissions are routed by the partition ring to their
// owning handler and, unless SetAsync, the virtual-time simulation is driven
// to completion before responding.
type ClusterServer struct {
	mu sync.Mutex
	c  clusterView
	// horizon bounds how far one request may advance virtual time.
	horizon time.Duration
	// async stops mutating requests from driving virtual time to drain
	// before responding: in the networked server a background ticker owns
	// the clock, and a POST answers 202 with the job's routed-but-queued
	// state instead of its terminal one.
	async bool
}

// NewClusterServer wraps c. Datasets must be registered on the cluster
// (cluster.RegisterDataset) before jobs naming them are submitted.
func NewClusterServer(c clusterView) *ClusterServer {
	return &ClusterServer{c: c, horizon: 24 * time.Hour}
}

// drain steps the cluster until it settles or the horizon passes.
func (s *ClusterServer) drain() {
	for deadline := s.c.Now() + s.horizon; s.c.Step() && s.c.Now() < deadline; {
	}
}

// SetAsync switches submission/kill handlers to return immediately (202)
// instead of running the simulation to drain. Required when something else
// — the networked server's tick loop — is driving Step concurrently.
func (s *ClusterServer) SetAsync(v bool) { s.async = v }

// Tick runs one cluster step serialized against in-flight API requests (the
// engines are not safe under a Step racing a Submit). The networked
// server's clock loop calls this instead of c.Step directly.
func (s *ClusterServer) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Step()
}

// Handler returns the route table.
func (s *ClusterServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/version", s.handleVersion)
	mux.HandleFunc("/api/cluster", s.handleStatus)
	mux.HandleFunc("/api/cluster/survey", s.handleSurvey)
	mux.HandleFunc("/api/cluster/transport", s.handleTransport)
	mux.HandleFunc("/api/cluster/sync", s.handleSync)
	mux.HandleFunc("/api/cluster/jobs", s.handleJobs)
	mux.HandleFunc("/api/cluster/jobs/", s.handleJob)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *ClusterServer) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"name":    "gyan-cluster",
		"version": "1.0",
		"paper":   "GYAN: Accelerating Bioinformatics Tools in Galaxy with GPU-Aware Computation Mapping (IPPS 2021)",
	})
}

// handleStatus serves GET /api/cluster: membership, the stripe->handler
// partition table, and per-handler load/steal/rebalance counters.
func (s *ClusterServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.c.Status())
}

// handleSurvey serves GET /api/cluster/survey: one nvidia-smi snapshot per
// live member — the cross-handler device view the stealing pass decides from.
func (s *ClusterServer) handleSurvey(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.c.Survey())
}

// handleTransport serves GET /api/cluster/transport: cumulative bus
// statistics (including injected-fault counts) and each member's protocol
// state — lease table, declared-dead set, and in-flight transfer counts.
func (s *ClusterServer) handleTransport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.c.TransportStatus())
}

// handleSync serves POST /api/cluster/sync: fsync every live member's
// journal. External chaos drivers call it before a kill -9 so the work they
// just submitted is durably on disk and the audit can hold the survivor
// accountable for it.
func (s *ClusterServer) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.SyncJournals(); err != nil {
		writeErr(w, http.StatusInternalServerError, "sync: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"synced": true})
}

// clusterSubmitRequest is the POST /api/cluster/jobs body.
type clusterSubmitRequest struct {
	Tool       string            `json:"tool"`
	Params     map[string]string `json:"params"`
	Dataset    string            `json:"dataset"`
	Runtime    string            `json:"runtime,omitempty"`
	User       string            `json:"user,omitempty"`
	Priority   int               `json:"priority,omitempty"`
	GPUs       int               `json:"gpus,omitempty"`
	EstSeconds float64           `json:"est_seconds,omitempty"`
	// Key pins the routing key (and so the owning partition); absent draws
	// the next sequential key.
	Key *uint64 `json:"key,omitempty"`
}

// clusterJobJSON is the wire form of a routed job: the global key, the
// handler the job currently lives on, and the job's state there.
type clusterJobJSON struct {
	Key     uint64 `json:"key"`
	Handler string `json:"handler"`
	jobJSON        // the handler-local view (ID is handler-local)
}

func toClusterJobJSON(ref cluster.JobRef, j jobJSON) clusterJobJSON {
	return clusterJobJSON{Key: ref.Key, Handler: ref.Handler, jobJSON: j}
}

// handleJobs lists routed jobs (GET) or routes a submission (POST). A POST
// runs the cluster to drain before responding, so the returned job is
// terminal and carries its final placement — including any handler it was
// stolen or rebalanced onto after routing.
func (s *ClusterServer) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]clusterJobJSON, 0)
		for _, key := range s.c.Keys() {
			if ref, job, ok := s.c.Lookup(key); ok {
				out = append(out, toClusterJobJSON(ref, toJobJSON(job)))
			}
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req clusterSubmitRequest
		if !decodeBody(w, r, &req) {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		ref, err := s.c.Submit(req.Tool, req.Params, req.Dataset, cluster.SubmitOptions{
			Runtime: req.Runtime, User: req.User, Priority: req.Priority,
			GPUs:       req.GPUs,
			EstRuntime: time.Duration(req.EstSeconds * float64(time.Second)),
			Key:        req.Key,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		status := http.StatusCreated
		if s.async {
			status = http.StatusAccepted // the tick loop will run it
		} else {
			s.drain()
		}
		ref, job, ok := s.c.Lookup(ref.Key)
		if !ok {
			writeErr(w, http.StatusInternalServerError, "submitted key %d vanished", ref.Key)
			return
		}
		writeJSON(w, status, toClusterJobJSON(ref, toJobJSON(job)))
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// handleJob serves GET /api/cluster/jobs/{key} (current binding and state)
// and DELETE /api/cluster/jobs/{key} (kill wherever the job lives now).
// The method gate comes before key parsing: an unsupported verb is 405
// whether or not the key would have parsed.
func (s *ClusterServer) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		methodNotAllowed(w, http.MethodGet, http.MethodDelete)
		return
	}
	keyText := strings.TrimPrefix(r.URL.Path, "/api/cluster/jobs/")
	key, err := strconv.ParseUint(keyText, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job key %q", keyText)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		ref, job, ok := s.c.Lookup(key)
		if !ok {
			writeErr(w, http.StatusNotFound, "no job with key %d", key)
			return
		}
		writeJSON(w, http.StatusOK, toClusterJobJSON(ref, toJobJSON(job)))
	case http.MethodDelete:
		if !s.c.KillJob(key) {
			writeErr(w, http.StatusNotFound, "no live job with key %d", key)
			return
		}
		if !s.async {
			s.drain()
		}
		ref, job, _ := s.c.Lookup(key)
		writeJSON(w, http.StatusOK, toClusterJobJSON(ref, toJobJSON(job)))
	}
}

// handleMetrics serves the cluster registry's Prometheus exposition —
// per-handler labeled series (routing, steals, rebalances, liveness, load).
func (s *ClusterServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.Registry().WritePrometheus(w); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}
