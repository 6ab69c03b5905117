package cluster

import "gyan/internal/obs"

// metrics is one member's handle on the handler-labeled cluster series.
// Registration is idempotent per registry, so the members of a Sim share one
// registry and each writes only the series labeled with its own ID.
type metrics struct {
	reg *obs.Registry

	routed, steals, rebalanced          obs.CounterVec
	prepares, accepts, retires, aborts  obs.CounterVec
	retries, renewals, expiries, claims obs.CounterVec
	aeRounds, aeRepairs                 obs.CounterVec
	rejoins, deadReplayErrors           obs.CounterVec

	up, depth, running, free, stripes obs.GaugeVec
	transport, peer                   obs.GaugeVec
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg: reg,
		routed: reg.CounterVec("gyan_cluster_jobs_routed_total",
			"Jobs routed to each handler by the partition ring.", "handler"),
		steals: reg.CounterVec("gyan_cluster_steals_total",
			"Jobs moved by work stealing, by thief and victim.", "thief", "victim"),
		rebalanced: reg.CounterVec("gyan_cluster_jobs_rebalanced_total",
			"Jobs re-homed from a dead handler to a survivor.", "from", "to"),
		prepares: reg.CounterVec("gyan_cluster_steal_prepares_total",
			"Two-phase steal prepares sent, by victim and thief.", "victim", "thief"),
		accepts: reg.CounterVec("gyan_cluster_steal_accepts_total",
			"Two-phase steal accepts journaled, by thief and victim.", "thief", "victim"),
		retires: reg.CounterVec("gyan_cluster_steal_retires_total",
			"Two-phase steals retired (final), by victim and thief.", "victim", "thief"),
		aborts: reg.CounterVec("gyan_cluster_steal_aborts_total",
			"Two-phase steals aborted and requeued, by victim and thief.", "victim", "thief"),
		retries: reg.CounterVec("gyan_cluster_steal_retries_total",
			"Protocol message re-sends driven by timeout backoff.", "victim"),
		renewals: reg.CounterVec("gyan_cluster_lease_renewals_total",
			"Lease-renewal broadcasts sent.", "handler"),
		expiries: reg.CounterVec("gyan_cluster_lease_expiries_total",
			"Peer leases declared expired, by detector and dead member.", "detector", "dead"),
		claims: reg.CounterVec("gyan_cluster_claims_total",
			"Journaled rebalance-claims, by claimer and dead member.", "claimer", "dead"),
		aeRounds: reg.CounterVec("gyan_cluster_antientropy_rounds_total",
			"Anti-entropy digests sent.", "handler"),
		aeRepairs: reg.CounterVec("gyan_cluster_antientropy_repairs_total",
			"Divergences repaired by the anti-entropy sweep, by kind.", "handler", "kind"),
		rejoins: reg.CounterVec("gyan_cluster_rejoins_total",
			"Members welcomed back into the ring under a new incarnation.", "member"),
		deadReplayErrors: reg.CounterVec("gyan_cluster_dead_replay_errors_total",
			"Failed replays of a lapsed peer's journal; the peer stays undeclared until one succeeds.", "member", "dead"),
		up: reg.GaugeVec("gyan_cluster_handler_up",
			"1 while the handler is alive, 0 after a kill.", "handler"),
		depth: reg.GaugeVec("gyan_cluster_queue_depth",
			"Scheduler backlog per handler at last scrape.", "handler"),
		running: reg.GaugeVec("gyan_cluster_running",
			"Granted device gangs per handler at last scrape.", "handler"),
		free: reg.GaugeVec("gyan_cluster_free_gpus",
			"Process-free GPUs per handler at last scrape.", "handler"),
		stripes: reg.GaugeVec("gyan_cluster_partition_stripes",
			"Stripes owned per handler.", "handler"),
		transport: reg.GaugeVec("gyan_cluster_transport_events",
			"Cumulative transport bus events at last scrape.", "event"),
		peer: reg.GaugeVec("gyan_cluster_peer_transport",
			"Per-peer connection-level transport counters (networked bus only).", "peer", "event"),
	}
}
