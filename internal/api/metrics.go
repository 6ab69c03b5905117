package api

// Observability endpoints. /metrics serves the engine's registry in
// Prometheus text exposition format (top-level, where scrapers expect it);
// /api/jobs/{id}/trail dumps one job's history, kept on the job itself, with
// derived queue-wait/run/retry segments. Neither takes s.mu: the registry is
// concurrent-safe, and the trail and the scrape hooks read engine state
// under the engine's own lock.

import (
	"net/http"
	"strconv"
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

// handleTrail serves GET /api/jobs/{id}/trail: the job's history with
// derived queue-wait/run/retry segments. Every job the engine holds has one,
// a recovered job its journaled steps.
func (s *Server) handleTrail(w http.ResponseWriter, r *http.Request, id int) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	tr, ok := s.g.Trail(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %d", id)
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
