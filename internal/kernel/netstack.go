package kernel

import (
	"fmt"

	"hermes/internal/sim"
	"hermes/internal/tracing"
)

// WakeMode selects the wait-queue wakeup discipline for shared listening
// sockets — the three epoll behaviours §2.2 compares.
type WakeMode uint8

// Wakeup disciplines.
const (
	// WakeHerd wakes every blocked watcher (pre-4.5 epoll): the thundering
	// herd. Only one wakee wins the connection; the rest burn a spurious
	// wakeup.
	WakeHerd WakeMode = iota
	// WakeExclusiveLIFO wakes the first blocked watcher from the wait-queue
	// head (EPOLLEXCLUSIVE). Because epoll_ctl inserts at the head, the most
	// recently registered non-busy worker is always preferred: the LIFO
	// concentration the paper measures.
	WakeExclusiveLIFO
	// WakeExclusiveRR is the unmerged epoll-rr patch: exclusive wakeup, but
	// the woken watcher is moved to the wait-queue tail.
	WakeExclusiveRR
	// WakeExclusiveFIFO wakes the first blocked watcher from the wait-queue
	// tail — io_uring's default interrupt-mode discipline (§8: "similar to
	// epoll, but in FIFO order"), which concentrates load on the
	// earliest-registered workers instead of the latest.
	WakeExclusiveFIFO
)

func (m WakeMode) String() string {
	switch m {
	case WakeHerd:
		return "herd"
	case WakeExclusiveLIFO:
		return "exclusive"
	case WakeExclusiveRR:
		return "exclusive-rr"
	case WakeExclusiveFIFO:
		return "exclusive-fifo"
	default:
		return fmt.Sprintf("WakeMode(%d)", uint8(m))
	}
}

// NetStack owns all sockets, ports, and epoll instances of one simulated
// machine, and implements connection arrival, data delivery, and wakeups.
//
// The per-connection fast path is allocation-free in steady state: Conn
// objects (paired with their connection Sockets) and epoll watches are
// pooled and recycled on close, so a long run's allocation count is bounded
// by peak concurrency, not connection count (see docs/PERF.md).
type NetStack struct {
	// Mode is the wakeup discipline for shared listening sockets.
	Mode WakeMode

	eng         *sim.Engine
	shared      map[uint16]*Socket
	groups      map[uint16]*ReuseportGroup
	nextSockID  int
	nextConnID  uint64
	nextEpollID int

	// Free lists. A pooled Conn keeps its paired connection Socket (and
	// that socket's queue backing arrays) across incarnations; a fresh
	// ConnID is assigned on reuse, never on release, so handles held
	// across the recycle boundary (ConnRef) can detect it while
	// same-event post-close reads still see the old connection intact.
	connFree  []*Conn
	watchFree []*watch

	// SynDrops counts connections refused for lack of a listener or
	// accept-queue overflow.
	SynDrops uint64
	// ConnsEstablished counts successfully queued connections.
	ConnsEstablished uint64

	tel WakeInstruments
	tr  *tracing.KernelTrace
}

// DefaultAcceptBacklog is the accept-queue capacity used when callers pass
// backlog ≤ 0 (listen(2)'s somaxconn role).
const DefaultAcceptBacklog = 1024

// NewNetStack creates a stack on the given engine.
func NewNetStack(eng *sim.Engine, mode WakeMode) *NetStack {
	return &NetStack{
		Mode:   mode,
		eng:    eng,
		shared: make(map[uint16]*Socket),
		groups: make(map[uint16]*ReuseportGroup),
	}
}

// Engine returns the virtual clock this stack runs on.
func (ns *NetStack) Engine() *sim.Engine { return ns.eng }

func (ns *NetStack) newSocket(port uint16, listening bool, backlog int) *Socket {
	if backlog <= 0 {
		backlog = DefaultAcceptBacklog
	}
	ns.nextSockID++
	return &Socket{
		ID:        ns.nextSockID,
		Port:      port,
		Listening: listening,
		acceptCap: backlog,
		ns:        ns,
	}
}

// newWatch pops a pooled watch or allocates one. All fields except gen are
// reset by the caller.
func (ns *NetStack) newWatch() *watch {
	if n := len(ns.watchFree); n > 0 {
		w := ns.watchFree[n-1]
		ns.watchFree[n-1] = nil
		ns.watchFree = ns.watchFree[:n-1]
		return w
	}
	return &watch{}
}

// releaseWatch returns an unhooked watch to the pool, bumping its generation
// so stale-handle checks can detect reuse. The caller must already have
// unlinked it from its socket wait queue and epoll ready list.
func (ns *NetStack) releaseWatch(w *watch) {
	w.ep = nil
	w.sock = nil
	w.et = false
	w.inReady = false
	w.gen++
	ns.watchFree = append(ns.watchFree, w)
}

// ListenShared binds one listening socket to port, to be registered with
// multiple workers' epoll instances (the epoll-exclusive deployment).
func (ns *NetStack) ListenShared(port uint16, backlog int) (*Socket, error) {
	if err := ns.checkPortFree(port); err != nil {
		return nil, err
	}
	s := ns.newSocket(port, true, backlog)
	ns.shared[port] = s
	return s, nil
}

// ListenReuseport binds n SO_REUSEPORT sockets to port, one per worker (the
// reuseport and Hermes deployments).
func (ns *NetStack) ListenReuseport(port uint16, n, backlog int) (*ReuseportGroup, error) {
	if err := ns.checkPortFree(port); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("kernel: reuseport group needs ≥1 sockets, got %d", n)
	}
	g := &ReuseportGroup{Port: port, ns: ns}
	for i := 0; i < n; i++ {
		s := ns.newSocket(port, true, backlog)
		s.group = g
		s.groupIdx = i
		g.socks = append(g.socks, s)
	}
	ns.groups[port] = g
	return g, nil
}

func (ns *NetStack) checkPortFree(port uint16) error {
	if _, ok := ns.shared[port]; ok {
		return fmt.Errorf("kernel: port %d already bound (shared)", port)
	}
	if _, ok := ns.groups[port]; ok {
		return fmt.Errorf("kernel: port %d already bound (reuseport)", port)
	}
	return nil
}

// Group returns the reuseport group bound to port, if any.
func (ns *NetStack) Group(port uint16) *ReuseportGroup { return ns.groups[port] }

// SharedSocket returns the shared listening socket bound to port, if any.
func (ns *NetStack) SharedSocket(port uint16) *Socket { return ns.shared[port] }

// NewEpoll creates an epoll instance (epoll_create).
func (ns *NetStack) NewEpoll() *Epoll {
	ns.nextEpollID++
	ep := &Epoll{ID: ns.nextEpollID, ns: ns}
	// Bind the delivery trampolines once: method values allocate per
	// evaluation, and these are scheduled on every wakeup.
	ep.deliverFn = ep.deliver
	ep.timeoutFn = ep.onTimeout
	return ep
}

// DeliverSYN completes a handshake for a connection to tuple.DstPort: the
// kernel selects a listening socket (reuseport hash / attached program /
// shared socket), creates the connection socket, and queues it for accept.
// Returns ok=false if there is no listener or the accept queue overflowed.
func (ns *NetStack) DeliverSYN(tuple FourTuple, meta any) (*Conn, bool) {
	var target *Socket
	via := tracing.ViaShared
	worker := tracing.KernelTrack
	hash := tuple.Hash()
	if g := ns.groups[tuple.DstPort]; g != nil {
		target, via = g.selectSocket(hash, tuple.LocalityHash())
		worker = int32(target.groupIdx)
	} else if s := ns.shared[tuple.DstPort]; s != nil {
		target = s
	} else {
		ns.SynDrops++
		ns.tr.ConnDropped(ns.eng.Now(), tracing.ViaShared, false)
		return nil, false
	}

	ns.nextConnID++
	var c *Conn
	if n := len(ns.connFree); n > 0 {
		// Reincarnate a pooled pair. ID sequences match the allocating
		// path: the conn ID above, then a fresh socket ID.
		c = ns.connFree[n-1]
		ns.connFree[n-1] = nil
		ns.connFree = ns.connFree[:n-1]
		cs := c.sock
		ns.nextSockID++
		cs.ID = ns.nextSockID
		cs.Port = tuple.DstPort
		cs.Drops = 0
		cs.Accepted = 0
		for i := cs.pendHead; i < len(cs.pending); i++ {
			cs.pending[i] = nil
		}
		cs.pending = cs.pending[:0]
		cs.pendHead = 0
		cs.hup = false
		cs.closed = false
		cs.owned = false
	} else {
		c = &Conn{}
		cs := ns.newSocket(tuple.DstPort, false, 0)
		cs.conn = c
		c.sock = cs
	}
	c.ID = ConnID(ns.nextConnID)
	c.Tuple = tuple
	c.Hash = hash
	c.EstablishedNS = ns.eng.Now()
	c.AcceptedNS = -1
	c.Meta = meta

	if !target.enqueueConn(c) {
		ns.SynDrops++
		ns.tr.ConnDropped(ns.eng.Now(), via, true)
		// Never exposed; recycle immediately (the conn ID stays consumed,
		// as it was before pooling).
		ns.connFree = append(ns.connFree, c)
		return nil, false
	}
	ns.ConnsEstablished++
	ns.tr.ConnEstablished(uint64(c.ID), c.EstablishedNS, worker, via)
	return c, true
}

// DeliverData makes payload readable on an established connection. Data
// arriving for a closed connection is silently dropped (peer will see RST in
// a real stack).
func (ns *NetStack) DeliverData(c *Conn, payload any) {
	s := c.sock
	if s.closed {
		return
	}
	s.pushData(payload)
	ns.socketReady(s)
}

// DeliverFIN marks the peer side of the connection closed.
func (ns *NetStack) DeliverFIN(c *Conn) {
	s := c.sock
	if s.closed || s.hup {
		return
	}
	s.hup = true
	ns.socketReady(s)
}

// CloseSocket closes a socket from the worker side, deregistering it from
// every epoll instance watching it (close(2) removes epoll registrations).
// A closed connection socket returns to the pool with its Conn; its fields
// stay intact until a later handshake reincarnates the pair under a fresh
// ConnID, so reads within the closing event chain still see the old
// connection (cross-event holders must revalidate via ConnRef).
func (ns *NetStack) CloseSocket(s *Socket) {
	if s.closed {
		return
	}
	s.closed = true
	for s.watchHead != nil {
		s.watchHead.ep.Del(s)
	}
	if s.Listening {
		if s.group == nil {
			delete(ns.shared, s.Port)
		}
	} else if s.conn != nil {
		ns.connFree = append(ns.connFree, s.conn)
	}
}

// socketReady records readiness in every watching epoll and applies the
// wakeup discipline. The wait queue is walked in place: wake() only
// schedules delivery (it never relinks wait-queue entries synchronously),
// so no snapshot of the watcher list is needed.
func (ns *NetStack) socketReady(s *Socket) {
	for w := s.watchHead; w != nil; w = w.next {
		w.ep.markReady(w)
	}
	switch ns.Mode {
	case WakeHerd:
		ns.tel.Herd.Inc()
		for w := s.watchHead; w != nil; w = w.next {
			w.ep.wake()
		}
	case WakeExclusiveLIFO:
		ns.tel.LIFO.Inc()
		for w := s.watchHead; w != nil; w = w.next {
			if w.ep.Blocked() {
				w.ep.wake()
				return
			}
		}
	case WakeExclusiveRR:
		ns.tel.RR.Inc()
		for w := s.watchHead; w != nil; w = w.next {
			if w.ep.Blocked() {
				w.ep.wake()
				s.moveWatchToTail(w)
				return
			}
		}
	case WakeExclusiveFIFO:
		ns.tel.FIFO.Inc()
		for w := s.watchTail; w != nil; w = w.prev {
			if w.ep.Blocked() {
				w.ep.wake()
				return
			}
		}
	}
}
