package cluster

import (
	"fmt"
	"sort"
	"time"

	"gyan/internal/journal"
)

// The cluster-wide exactly-once audit. PR 3's crash experiment audited one
// handler's journal; here the unit of identity is the cluster key (local job
// IDs collide across per-handler journals), and the question is global: did
// every routed job run to a durable terminal state exactly once, somewhere?
//
// The two-phase steal protocol adds a subtlety: a victim journal whose trail
// ends in an unresolved steal_prepare does not say who owns the key — only
// the tentative thief's journal does. The audit therefore defers those
// trails and resolves them against the thief's adopt records after every
// journal is folded: a matching adoption means the handoff completed (the
// thief's trail carries the key); no match means the victim died still
// owning it.

// KeyTrail is everything the audit learned about one cluster key across all
// journals.
type KeyTrail struct {
	// Submits counts durable submit records for the key (one per handler
	// that ever owned it: the origin plus each thief/heir).
	Submits int
	// OKs counts journals whose folded trail ends with the key completed
	// ok — the double-execution detector: exactly-once means <= 1.
	OKs int
	// Terminal reports whether any journal shows a durable terminal state
	// (ok, error or dead_letter) — the lost-job detector.
	Terminal bool
	// StartedOn lists the handlers whose journal shows a start record for
	// a trail they still own (sorted). Two live handlers starting the same
	// key means work stealing double-started it.
	StartedOn []string
	// Owners lists every handler whose journal folds the key to a
	// non-terminal, still-owned state (a live claim on the key).
	Owners []string
	// Starts records, per handler, the virtual times the key's runs
	// started (the seniority audit reads these).
	Starts map[string][]time.Duration
	// Submitted is the key's original submission time (from its earliest
	// submit record).
	Submitted time.Duration
	// AdoptedFrom lists, per handler, which handler each of that handler's
	// trails for this key was transferred from ("" for the origin trail).
	AdoptedFrom map[string]string
}

// StripeClaim is one journaled rebalance-claim: a survivor's durable
// assertion that it took over a dead member's ring stripes.
type StripeClaim struct {
	Claimer string
	Dead    string
	Stripes []int
	At      time.Duration
}

// Audit is the cross-journal fold.
type Audit struct {
	// Keys maps every cluster key seen in any journal to its trail.
	Keys map[uint64]*KeyTrail
	// TornTails lists handlers whose journal replay hit at least one torn
	// record; TornTailCounts gives the per-handler torn-record count, so a
	// chaos test can assert a kill -9 actually tore the tail it aimed at.
	TornTails      []string
	TornTailCounts map[string]int
	// Claims lists every journaled rebalance-claim in replay order per
	// handler (the lease-table membership audit trail).
	Claims []StripeClaim
	// Records counts replayed records across all journals.
	Records int
}

// Lost returns the keys with no durable terminal state anywhere, sorted.
func (a *Audit) Lost() []uint64 {
	var out []uint64
	for k, t := range a.Keys {
		if !t.Terminal {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Doubles returns the keys that completed ok in more than one journal,
// sorted — the double-execution list.
func (a *Audit) Doubles() []uint64 {
	var out []uint64
	for k, t := range a.Keys {
		if t.OKs > 1 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pendPrepare is a victim trail that ends mid-transfer, awaiting
// resolution against the tentative thief's journal.
type pendPrepare struct {
	key     uint64
	victim  string
	thief   string
	started bool
}

// AuditJournals replays every handler's journal directory (tolerating torn
// tails) and folds the streams into per-key trails. Call SyncJournals (or
// kill/close the handlers) first so buffered records are on disk.
func AuditJournals(dirs map[string]string) (*Audit, error) {
	a := &Audit{Keys: make(map[uint64]*KeyTrail), TornTailCounts: make(map[string]int)}
	handlers := make([]string, 0, len(dirs))
	for h := range dirs {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	var pending []pendPrepare
	for _, h := range handlers {
		recs, corrupts, err := journal.ReplayAll(dirs[h])
		if err != nil {
			return nil, fmt.Errorf("audit: replay %s: %w", h, err)
		}
		for _, cerr := range corrupts {
			if cerr.IsSnapshot() {
				return nil, fmt.Errorf("audit: replay %s: %w", h, cerr)
			}
		}
		if len(corrupts) > 0 {
			a.TornTails = append(a.TornTails, h)
			a.TornTailCounts[h] = len(corrupts)
		}
		a.Records += len(recs)
		// One fold per journal (trails are per local job ID), then project
		// the trails onto keys.
		hist := journal.Fold(recs)
		for _, c := range hist.Claims {
			a.Claims = append(a.Claims, StripeClaim{
				Claimer: c.Handler, Dead: c.From,
				Stripes: append([]int(nil), c.Stripes...), At: c.At,
			})
		}
		for _, jid := range hist.Order {
			t := hist.Jobs[jid]
			key, routed := keyOfParams(t.Submit.Params)
			if !routed {
				continue
			}
			kt := a.Keys[key]
			if kt == nil {
				kt = &KeyTrail{
					Starts:      make(map[string][]time.Duration),
					AdoptedFrom: make(map[string]string),
					Submitted:   t.Submit.Submitted,
				}
				a.Keys[key] = kt
			}
			if t.Submit.Submitted < kt.Submitted {
				kt.Submitted = t.Submit.Submitted
			}
			kt.Submits++
			open := t.Terminal == nil
			if !open {
				kt.Terminal = true
				if t.Terminal.State == "ok" {
					kt.OKs++
				}
			}
			started := len(t.Starts) > 0
			if started {
				kt.Starts[h] = append(kt.Starts[h], t.Starts...)
			}
			if t.From != "" && t.From != h {
				kt.AdoptedFrom[h] = t.From
			}
			stillOwned := t.Owner == h || t.Owner == ""
			if stillOwned && open && t.Prepared != nil {
				// Mid-transfer at journal end: only the thief's journal
				// knows whether the handoff completed. Defer.
				pending = append(pending, pendPrepare{
					key: key, victim: h, thief: t.Prepared.Handler, started: started,
				})
				continue
			}
			if stillOwned && open {
				kt.Owners = append(kt.Owners, h)
			}
			if started && stillOwned {
				kt.StartedOn = append(kt.StartedOn, h)
			}
		}
	}
	// Resolve deferred prepares against the thieves' adopt records.
	for _, p := range pending {
		kt := a.Keys[p.key]
		if kt == nil {
			continue
		}
		if kt.AdoptedFrom[p.thief] == p.victim {
			continue // the thief accepted: its own trail carries the key
		}
		kt.Owners = append(kt.Owners, p.victim)
		if p.started {
			kt.StartedOn = append(kt.StartedOn, p.victim)
		}
	}
	for _, kt := range a.Keys {
		sort.Strings(kt.StartedOn)
		sort.Strings(kt.Owners)
	}
	return a, nil
}
