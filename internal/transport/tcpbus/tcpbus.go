package tcpbus

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"gyan/internal/faults"
	"gyan/internal/sim"
	"gyan/internal/transport"
)

// Options configures one member's bus endpoint.
type Options struct {
	// Self is this member's ID (required).
	Self string
	// Listen is the TCP listen address; ":0" picks a free port (the resolved
	// address is re-used across Kill/Revive cycles).
	Listen string
	// Advertise is the address peers should dial; defaults to the resolved
	// listen address.
	Advertise string
	// Peers maps member IDs to their advertised addresses. Sends to IDs not
	// in the map are counted LostToKill (the sim-bus analog of "no such
	// destination").
	Peers map[string]string
	// Catalog persists this member's incarnation across restarts; nil runs
	// with an in-memory incarnation of 1 (tests).
	Catalog *Catalog
	// Clock supplies the local delivery stamps (the cluster passes its
	// wall-driven virtual clock so message stamps and lease arithmetic share
	// a timeline). Defaults to time-since-New.
	Clock func() time.Duration
	// Seed drives reconnect jitter.
	Seed uint64
}

const (
	// queueLimit bounds each peer's outbound queue; excess sends drop (the
	// protocol's retry discipline covers them).
	queueLimit = 1024
	// dialTimeout and writeTimeout guard against wedged connections.
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
)

// reconnectBackoff paces reconnect attempts per peer, without limit.
var reconnectBackoff = faults.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.2}

// peerConn is the outbound side of one peer: a bounded queue drained by a
// writer goroutine that owns the dial/reconnect loop.
type peerConn struct {
	id    string
	addr  string
	ch    chan envelope
	stats transport.PeerStats
}

// Bus is a real-socket transport.Transport. One Bus serves exactly one
// member (Options.Self); Receive for any other ID returns nothing.
type Bus struct {
	opts Options
	self string
	inc  uint64

	mu       sync.Mutex
	ln       net.Listener
	listenAt string // resolved listen address, stable across revive
	dead     bool   // killed (listener down, inbox void)
	seq      uint64 // send sequence (diagnostic)
	arrival  uint64 // local arrival order, the Receive sort key
	inbox    []transport.Message
	peers    map[string]*peerConn
	maxInc   map[string]uint64 // incarnation fence per sender
	cut      map[string]bool   // one-way outbound partitions (tests)
	stats    transport.Stats
	rng      *sim.RNG
	start    time.Time
	stopping chan struct{} // closed on Kill/Close; writers and readers exit
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

var _ transport.Transport = (*Bus)(nil)
var _ transport.PeerStatser = (*Bus)(nil)

// New opens the listener, registers/bumps this member in the catalog and
// starts the accept loop. Peer connections dial lazily on first send.
func New(opts Options) (*Bus, error) {
	if opts.Self == "" {
		return nil, errors.New("tcpbus: Options.Self required")
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}
	b := &Bus{
		opts:     opts,
		self:     opts.Self,
		peers:    make(map[string]*peerConn),
		maxInc:   make(map[string]uint64),
		cut:      make(map[string]bool),
		rng:      sim.NewRNG(opts.Seed ^ 0x746370627573), // "tcpbus"
		start:    time.Now(),
		stopping: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	if b.opts.Clock == nil {
		b.opts.Clock = func() time.Duration { return time.Since(b.start) }
	}
	b.inc = 1
	if opts.Catalog != nil {
		inc, err := opts.Catalog.Bump(opts.Self, opts.Advertise)
		if err != nil {
			return nil, err
		}
		b.inc = inc
	}
	if err := b.listenLocked(opts.Listen); err != nil {
		return nil, err
	}
	for id, addr := range opts.Peers {
		if id == opts.Self {
			continue
		}
		b.peers[id] = &peerConn{
			id: id, addr: addr,
			ch:    make(chan envelope, queueLimit),
			stats: transport.PeerStats{Addr: addr},
		}
		b.wg.Add(1)
		go b.writerLoop(b.peers[id], b.stopping)
	}
	return b, nil
}

// Incarnation is this member's current catalog incarnation.
func (b *Bus) Incarnation() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inc
}

// Addr is the resolved listen address.
func (b *Bus) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.listenAt
}

// listenLocked (re)opens the listener and starts its accept loop.
func (b *Bus) listenLocked(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("tcpbus: listen %s: %w", addr, err)
	}
	b.ln = ln
	b.listenAt = ln.Addr().String()
	if b.opts.Advertise == "" {
		b.opts.Advertise = b.listenAt
	}
	stop := b.stopping
	b.wg.Add(1)
	go b.acceptLoop(ln, stop)
	return nil
}

func (b *Bus) acceptLoop(ln net.Listener, stop chan struct{}) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (kill or shutdown)
		}
		b.mu.Lock()
		select {
		case <-stop:
			b.mu.Unlock()
			conn.Close()
			return
		default:
		}
		b.conns[conn] = struct{}{}
		b.mu.Unlock()
		b.wg.Add(1)
		go b.readLoop(conn, stop)
	}
}

// readLoop consumes one inbound connection: hello first (identity +
// incarnation fence), then envelopes into the inbox, stamped with the local
// clock at arrival. Any framing error drops the connection; the peer's
// writer redials.
func (b *Bus) readLoop(conn net.Conn, stop chan struct{}) {
	defer b.wg.Done()
	defer func() {
		conn.Close()
		b.mu.Lock()
		delete(b.conns, conn)
		b.mu.Unlock()
	}()
	hello, err := readFrame(conn)
	if err != nil || hello.Type != envHello || hello.From == "" {
		return
	}
	b.mu.Lock()
	if hello.Inc < b.maxInc[hello.From] {
		b.mu.Unlock()
		return // a previous incarnation's zombie connection: fenced
	}
	b.maxInc[hello.From] = hello.Inc
	b.mu.Unlock()
	if cat := b.opts.Catalog; cat != nil {
		// Note the observed peer identity for operators and future boots.
		_ = cat.Record(MemberRecord{ID: hello.From, Inc: hello.Inc, Addr: hello.To, Wall: time.Now().UnixNano()})
	}
	for {
		env, err := readFrame(conn)
		if err != nil {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		if env.From != hello.From || env.Inc != hello.Inc {
			return // identity must not change mid-connection
		}
		body, err := transport.DecodeBody(env.Type, env.Body)
		if err != nil {
			// Unknown or malformed body: count and skip — one bad message
			// must not sever an otherwise healthy connection.
			b.mu.Lock()
			b.stats.Dropped++
			b.mu.Unlock()
			continue
		}
		b.mu.Lock()
		if b.dead || env.Inc < b.maxInc[env.From] {
			b.mu.Unlock()
			return
		}
		now := b.opts.Clock()
		b.arrival++
		b.inbox = append(b.inbox, transport.Message{
			Type: env.Type, From: env.From, To: b.self,
			Seq: b.arrival, SentAt: now, DeliverAt: now, Body: body,
		})
		b.mu.Unlock()
	}
}

// writerLoop owns one peer's connection: dial with jittered backoff, send
// the hello, then drain the queue. A write failure redials once and retries
// the frame; a second failure drops it (the protocol's retries recover).
func (b *Bus) writerLoop(p *peerConn, stop chan struct{}) {
	defer b.wg.Done()
	var conn net.Conn
	retry := 0
	dial := func() net.Conn {
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err == nil {
				b.mu.Lock()
				hello := envelope{Type: envHello, From: b.self, To: b.opts.Advertise, Inc: b.inc}
				p.stats.Connects++
				if p.stats.Connects > 1 {
					p.stats.Reconnects++
				}
				p.stats.Connected = true
				b.mu.Unlock()
				c.SetWriteDeadline(time.Now().Add(writeTimeout))
				if err := writeFrame(c, hello); err != nil {
					c.Close()
					continue
				}
				retry = 0
				return c
			}
			retry++
			b.mu.Lock()
			capped := retry
			if capped > 16 {
				capped = 16 // keep Delay's exponent bounded; the cap rules anyway
			}
			d := reconnectBackoff.Delay(capped, b.rng)
			b.mu.Unlock()
			select {
			case <-stop:
				return nil
			case <-time.After(d):
			}
		}
	}
	write := func(env envelope) bool {
		if conn == nil {
			conn = dial()
			if conn == nil {
				return false
			}
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(conn, env); err == nil {
			return true
		}
		conn.Close()
		b.mu.Lock()
		p.stats.Connected = false
		b.mu.Unlock()
		conn = dial()
		if conn == nil {
			return false
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(conn, env); err != nil {
			conn.Close()
			conn = nil
			b.mu.Lock()
			p.stats.Connected = false
			b.mu.Unlock()
			return false
		}
		return true
	}
	for {
		select {
		case <-stop:
			if conn != nil {
				conn.Close()
			}
			return
		case env := <-p.ch:
			ok := write(env)
			b.mu.Lock()
			if ok {
				p.stats.Sent++
			} else {
				p.stats.Dropped++
				b.stats.Dropped++
			}
			p.stats.Inflight = len(p.ch)
			b.mu.Unlock()
		}
	}
}

// Send enqueues one message for a peer. Never blocks: a full queue or an
// unknown destination is a counted loss, exactly the contract the protocol
// layers' retry budgets are built for.
func (b *Bus) Send(now time.Duration, typ, from, to string, body any) {
	raw, err := transport.EncodeBody(body)
	if err != nil {
		b.mu.Lock()
		b.stats.Dropped++
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	if b.dead {
		b.stats.LostToKill++
		b.mu.Unlock()
		return
	}
	if b.cut[to] {
		b.stats.Partitioned++
		b.mu.Unlock()
		return
	}
	b.seq++
	env := envelope{Type: typ, From: b.self, To: to, Seq: b.seq, Inc: b.inc, Body: raw}
	if to == b.self {
		b.stats.Sent++
		clock := b.opts.Clock()
		b.arrival++
		b.inbox = append(b.inbox, transport.Message{
			Type: typ, From: from, To: to, Seq: b.arrival,
			SentAt: clock, DeliverAt: clock, Body: body,
		})
		b.mu.Unlock()
		return
	}
	p := b.peers[to]
	if p == nil {
		b.stats.LostToKill++
		b.mu.Unlock()
		return
	}
	b.stats.Sent++
	b.mu.Unlock()
	select {
	case p.ch <- env:
	default:
		b.mu.Lock()
		p.stats.Dropped++
		b.stats.Dropped++
		b.mu.Unlock()
	}
}

// Receive pops every arrived message for this member, ordered by
// (DeliverAt, Seq) — arrival order, since both stamps are assigned at
// arrival. Receive for any ID other than Self returns nothing.
func (b *Bus) Receive(now time.Duration, to string) []transport.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	if to != b.self || b.dead || len(b.inbox) == 0 {
		return nil
	}
	var due, rest []transport.Message
	for _, m := range b.inbox {
		if m.DeliverAt <= now {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	if len(due) == 0 {
		return nil
	}
	b.inbox = rest
	sort.SliceStable(due, func(i, j int) bool {
		if due[i].DeliverAt != due[j].DeliverAt {
			return due[i].DeliverAt < due[j].DeliverAt
		}
		return due[i].Seq < due[j].Seq
	})
	b.stats.Delivered += uint64(len(due))
	return due
}

// Kill models this process's own crash at the network layer (for tests and
// conformance; a real kill -9 needs no help). Killing a remote ID is a
// no-op — you cannot crash another process from here.
func (b *Bus) Kill(id string) {
	if id != b.self {
		return
	}
	b.mu.Lock()
	if b.dead {
		b.mu.Unlock()
		return
	}
	b.dead = true
	b.stats.LostToKill += uint64(len(b.inbox))
	b.inbox = nil
	stop := b.stopping
	b.stopping = make(chan struct{}) // writers/readers of this life observe the old one
	ln := b.ln
	b.ln = nil
	conns := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	close(stop)
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// A crashed process loses its outbound queues too.
	b.mu.Lock()
	for _, p := range b.peers {
	drain:
		for {
			select {
			case <-p.ch:
				b.stats.LostToKill++
			default:
				break drain
			}
		}
	}
	b.mu.Unlock()
}

// Revive restarts this member's endpoint under a bumped incarnation: fresh
// inbox, same listen address, new writer goroutines. The catalog (when
// configured) records the new incarnation durably.
func (b *Bus) Revive(id string) {
	if id != b.self {
		return
	}
	b.mu.Lock()
	if !b.dead {
		b.mu.Unlock()
		return
	}
	b.dead = false
	b.inc++
	if cat := b.opts.Catalog; cat != nil {
		if inc, err := cat.Bump(b.self, b.opts.Advertise); err == nil {
			b.inc = inc
		}
	}
	b.inbox = nil
	host := b.listenAt
	_ = b.listenLocked(host)
	for _, p := range b.peers {
		b.wg.Add(1)
		go b.writerLoop(p, b.stopping)
	}
	b.mu.Unlock()
}

// Close shuts the endpoint down for good.
func (b *Bus) Close() {
	b.Kill(b.self)
	b.wg.Wait()
}

// Cut blocks outbound traffic to one peer (a sender-side one-way
// partition); Heal restores it.
func (b *Bus) Cut(to string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cut[to] = true
}

// Heal removes a Cut.
func (b *Bus) Heal(to string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.cut, to)
}

// PendingFor counts this member's inbox when asked about Self, a peer's
// outbound queue otherwise.
func (b *Bus) PendingFor(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id == b.self {
		return len(b.inbox)
	}
	if p := b.peers[id]; p != nil {
		return len(p.ch)
	}
	return 0
}

// Stats snapshots the traffic counters.
func (b *Bus) Stats() transport.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// PeerStats snapshots each peer's connection-level counters.
func (b *Bus) PeerStats() map[string]transport.PeerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]transport.PeerStats, len(b.peers))
	for id, p := range b.peers {
		st := p.stats
		st.Inflight = len(p.ch)
		out[id] = st
	}
	return out
}
