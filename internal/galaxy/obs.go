package galaxy

// Observability wiring. The engine owns one obs.Observer; every journaled
// job-state transition flows through it from stampJournalLocked (see
// recovery.go), and the scrape hook installed here mirrors
// externally-maintained state — jobs by state, journal write counters,
// survey-cache efficiency — into the registry only when a scrape or snapshot
// actually reads it.

import (
	"gyan/internal/journal"
	"gyan/internal/obs"
)

// Observer returns the engine's observability sink (never nil).
func (g *Galaxy) Observer() *obs.Observer { return g.obsv }

// SurveyCacheStats returns the nvidia-smi survey cache's hit and miss
// counts. The third value, invalidations, is deprecated: always 0. The cache
// keys on the device report and is never invalidated; the value stays only
// for callers that still destructure three.
func (g *Galaxy) SurveyCacheStats() (hits, misses, invalidations int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	hits, misses = g.surveyCache.Stats()
	return hits, misses, 0
}

// installObsScrape registers the engine's scrape-time mirrors. It runs once
// from New, after options have settled the journal and survey cache.
func (g *Galaxy) installObsScrape() {
	reg := g.obsv.Reg
	states := reg.GaugeVec("gyan_jobs_state",
		"Jobs currently in each lifecycle state.", "state")
	appends := reg.Counter("gyan_journal_appends_total",
		"Records appended to the job-state journal.")
	syncs := reg.Counter("gyan_journal_syncs_total",
		"Journal fsync calls issued.")
	rotations := reg.Counter("gyan_journal_rotations_total",
		"Journal segment rotations.")
	bytes := reg.Counter("gyan_journal_bytes_total",
		"Encoded record bytes written to the journal.")
	watermark := reg.Gauge("gyan_journal_watermark",
		"Highest commit ticket at or below which every record is fsynced.")
	tick := reg.Gauge("gyan_journal_tick",
		"Highest commit ticket issued by the journal.")
	flushDelay := reg.Gauge("gyan_journal_flush_delay_seconds",
		"Adaptive group-commit flush deadline currently in effect.")
	fsyncEWMA := reg.Gauge("gyan_journal_fsync_ewma_seconds",
		"EWMA of observed fsync duration driving the adaptive controller.")
	segments := reg.Gauge("gyan_journal_segments",
		"Live journal segment files.")
	staged := reg.Gauge("gyan_journal_staged",
		"Records staged in the journal's queue awaiting the flusher.")
	hits := reg.Counter("gyan_smi_cache_hits_total",
		"nvidia-smi survey cache hits (shared parses).")
	misses := reg.Counter("gyan_smi_cache_misses_total",
		"nvidia-smi survey cache misses (render+parse round trips of a changed device report).")

	reg.OnScrape(func() {
		counts := make(map[JobState]int, len(journal.States()))
		g.mu.Lock()
		for _, j := range g.jobs {
			counts[j.State]++
		}
		g.mu.Unlock()
		for _, s := range journal.States() {
			states.With(string(s)).Set(float64(counts[s]))
		}
		if st, ok := g.JournalStats(); ok {
			appends.Set(uint64(st.Appends))
			syncs.Set(uint64(st.Syncs))
			rotations.Set(uint64(st.Rotations))
			bytes.Set(uint64(st.Bytes))
			watermark.Set(float64(st.Watermark))
			tick.Set(float64(st.Tick))
			flushDelay.Set(st.FlushDelay.Seconds())
			fsyncEWMA.Set(st.FsyncEWMA.Seconds())
			segments.Set(float64(st.Segments))
			staged.Set(float64(st.Staged))
		}
		h, m, _ := g.SurveyCacheStats()
		hits.Set(uint64(h))
		misses.Set(uint64(m))
	})
}
