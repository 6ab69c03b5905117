package api

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gyan/internal/cluster"
	"gyan/internal/galaxy"
	"gyan/internal/obs"
)

// clusterView is what ClusterServer serves: this process's one member of a
// networked cluster (*cluster.Node, gyan-server -bus tcp), or in tests a
// whole simulated one (*cluster.Sim).
type clusterView interface {
	Submit(tool string, params map[string]string, dataset string, opts cluster.SubmitOptions) (cluster.JobRef, error)
	Lookup(key uint64) (cluster.JobRef, *galaxy.Job, bool)
	Keys() []uint64
	KillJob(key uint64) error
	Step() bool
	Status() cluster.Status
	Survey() []cluster.HandlerSurvey
	TransportStatus() cluster.TransportStatus
	SyncJournals() error
	JournalError() error
	Registry() *obs.Registry
}

// ClusterServer exposes a handler cluster over HTTP/JSON — the multi-handler
// sibling of Server. Submissions are routed by the partition ring to their
// owning handler and answered at once: the clock belongs to whoever calls
// Tick (the networked server's ticker), never to a request.
type ClusterServer struct {
	mu sync.Mutex
	c  clusterView
}

// NewClusterServer wraps c. Datasets must be registered on the cluster
// (cluster.RegisterDataset) before jobs naming them are submitted.
func NewClusterServer(c clusterView) *ClusterServer {
	return &ClusterServer{c: c}
}

// SetAsync is a no-op kept for existing callers: every ClusterServer
// answers without driving the clock.
func (s *ClusterServer) SetAsync(bool) {}

// Tick runs one cluster step serialized against in-flight API requests. The
// engines are safe under a Step racing a Submit (Node's own contract,
// TestClusterRaceHammer); s.mu is there for the reply. A POST's 202 shows
// the job as Lookup finds it right after Submit, and a tick landing between
// the two would change what that reply shows. Merging this server into the
// single-member cluster front door (ROADMAP item 8) settles the lock. The
// networked server's clock loop calls this instead of c.Step directly.
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
// answers 202 with the job as routed — queued on its owning handler; the
// tick loop runs it, and a GET by key shows where it ended up, including
// any handler it was stolen or rebalanced onto. Once the journal has failed
// it answers 503 instead (see durable).
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
		if !durable(w, s.c.JournalError()) {
			return
		}
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
		if !durable(w, s.c.JournalError()) {
			return
		}
		ref, job, ok := s.c.Lookup(ref.Key)
		if !ok {
			writeErr(w, http.StatusInternalServerError, "submitted key %d vanished", ref.Key)
			return
		}
		writeJSON(w, http.StatusAccepted, toClusterJobJSON(ref, toJobJSON(job)))
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

// handleJob serves GET /api/cluster/jobs/{key} (current binding and state)
// and DELETE /api/cluster/jobs/{key} (kill wherever the job lives now,
// answering with its state right after the kill). The kill is refused with
// 409 in two states: a job a steal has prepared, with Retry-After: 1, since
// the thief's accept or the abort settles it; and a job another member
// stole, whose body names that member.
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
		switch err := s.c.KillJob(key); {
		case errors.Is(err, galaxy.ErrNoJob):
			writeErr(w, http.StatusNotFound, "no live job with key %d", key)
			return
		case errors.Is(err, galaxy.ErrStealInFlight):
			w.Header().Set("Retry-After", "1")
			fallthrough
		case errors.Is(err, galaxy.ErrStolen):
			writeErr(w, http.StatusConflict, "%v", err)
			return
		case err != nil:
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
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
