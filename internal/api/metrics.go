package api

// Observability endpoints. /metrics serves the engine's registry in
// Prometheus text exposition format (top-level, where scrapers expect it);
// /api/trace/{id} and its /api/jobs/{id}/trace alias dump one job's
// lifecycle trace with derived queue-wait/run/retry segments. Neither takes
// s.mu: the registry and tracer are concurrent-safe, and the scrape hooks
// read engine state through race-safe snapshots only.

import (
	"net/http"
	"strconv"
	"strings"
)

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.g.Observer().Reg.WritePrometheus(w)
}

// handleTraceByPath serves GET /api/trace/{id}.
func (s *Server) handleTraceByPath(w http.ResponseWriter, r *http.Request) {
	idText := strings.TrimPrefix(r.URL.Path, "/api/trace/")
	id, err := strconv.Atoi(idText)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job id %q", idText)
		return
	}
	s.handleTrace(w, r, id)
}

// handleTrace dumps one job's lifecycle trace. A job the engine knows but
// the tracer does not (evicted under the retention bound, or submitted
// before observability attached) is a 404 — the trace store is bounded by
// design, not a durable record.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, id int) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	tr, ok := s.g.Observer().Traces.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no trace for job %d", id)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// installGPUGauges registers the scrape-time per-device gauges, fed from
// the hardware monitor's newest samples. Labels are device minor IDs — a
// bounded set, per the cardinality rules (DESIGN.md §11).
func (s *Server) installGPUGauges() {
	reg := s.g.Observer().Reg
	util := reg.GaugeVec("gyan_gpu_utilization_pct",
		"Most recently sampled GPU utilization, by device minor ID.", "device")
	mem := reg.GaugeVec("gyan_gpu_memory_used_mib",
		"Most recently sampled GPU framebuffer usage in MiB, by device minor ID.", "device")
	procs := reg.GaugeVec("gyan_gpu_processes",
		"Most recently sampled per-device process count, by device minor ID.", "device")
	reg.OnScrape(func() {
		for dev, sample := range s.mon.LastByDevice() {
			d := strconv.Itoa(dev)
			util.With(d).Set(sample.UtilPct)
			mem.With(d).Set(float64(sample.MemUsedMiB))
			procs.With(d).Set(float64(sample.ProcessCount))
		}
	})
}
