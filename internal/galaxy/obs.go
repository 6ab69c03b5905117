package galaxy

// Observability wiring. The engine owns one obs.Observer; every journaled
// job-state transition flows through it from appendJournal (see recovery.go),
// and the scrape hook installed here mirrors externally-maintained state —
// jobs by state, journal write counters, survey-cache efficiency — into the
// registry only when a scrape or snapshot actually reads it.

import (
	"strconv"

	"gyan/internal/obs"
)

// Observer returns the engine's observability sink (never nil).
func (g *Galaxy) Observer() *obs.Observer { return g.obsv }

// SurveyCacheStats returns the nvidia-smi survey cache's hit, miss and
// invalidation counts.
func (g *Galaxy) SurveyCacheStats() (hits, misses, invalidations int) {
	return g.surveyCache.Stats()
}

// jobStates enumerates every lifecycle state, so the jobs-by-state gauge
// always exposes a full (if zero) series set.
var jobStates = []JobState{
	StateNew, StateQueued, StateRunning, StateOK, StateError, StateDeadLetter,
	StateStolen,
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
	shardSegments := reg.GaugeVec("gyan_journal_shard_segments",
		"Live segment files per journal stripe.", "shard")
	shardStaged := reg.GaugeVec("gyan_journal_shard_staged",
		"Records staged in group-commit rings awaiting a stripe's flusher.", "shard")
	shardAppends := reg.GaugeVec("gyan_journal_shard_appends_total",
		"Records appended per journal stripe.", "shard")
	shardSyncs := reg.GaugeVec("gyan_journal_shard_syncs_total",
		"Fsync calls issued per journal stripe.", "shard")
	hits := reg.Counter("gyan_smi_cache_hits_total",
		"nvidia-smi survey cache hits (shared parses).")
	misses := reg.Counter("gyan_smi_cache_misses_total",
		"nvidia-smi survey cache misses (full Query+parse round trips).")
	invals := reg.Counter("gyan_smi_cache_invalidations_total",
		"Survey cache invalidations (device-state mutations).")

	reg.OnScrape(func() {
		counts := make(map[JobState]int, len(jobStates))
		for _, j := range g.Jobs() {
			counts[j.State]++
		}
		for _, s := range jobStates {
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
			for _, ss := range st.Shards {
				l := strconv.Itoa(ss.Shard)
				shardSegments.With(l).Set(float64(ss.Segments))
				shardStaged.With(l).Set(float64(ss.Staged))
				shardAppends.With(l).Set(float64(ss.Appends))
				shardSyncs.With(l).Set(float64(ss.Syncs))
			}
		}
		h, m, inv := g.SurveyCacheStats()
		hits.Set(uint64(h))
		misses.Set(uint64(m))
		invals.Set(uint64(inv))
	})
}
