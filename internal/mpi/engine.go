package mpi

import (
	"errors"
	"fmt"
)

// This file is the discrete-event engine: the runtime every job runs on.
//
// Simulating virtual time with real concurrency — every rank a free-running
// goroutine, every message queue a channel — would make the Go scheduler
// burn wall-clock time context-switching through rendezvous that are pure
// arithmetic in the model. The event engine removes the scheduler from the
// hot path: ranks still run as goroutines (they are the cheapest coroutine
// Go offers), but exactly one is ever runnable. A single execution token is
// handed from rank to rank; a rank that would block parks itself and pops
// the next runnable rank from an indexed min-heap ordered by
// (virtual clock, rank). The chain of token hand-offs serializes every
// access to the engine and runtime state — no locks, no channel select, and
// bit-identical results at any GOMAXPROCS, because the wake order is a pure
// function of virtual time.
//
// All timing arithmetic lives in the Ctx/p2p/coll code paths; this file only
// decides how a rank blocks and is woken. The resulting bytes are pinned by
// internal/mpi/testdata/differential.golden and
// internal/npb/testdata/engine_matrix.golden.

// ErrDeadlock is returned by every parked rank when the engine finds all
// live ranks blocked with no runnable work: a genuine communication
// deadlock in virtual time (e.g. two ranks in matched rendezvous sends).
// The engine knows the global blocked set, so such programs fail instead of
// hanging.
var ErrDeadlock = errors.New("mpi: deadlock: every live rank is blocked")

// evItem is one heap entry: a runnable rank keyed by its virtual clock.
// Ties break toward the lower rank, making the wake order total and
// deterministic.
type evItem struct {
	key  float64
	rank int32
}

// evRank is the engine's per-rank scheduling state. All fields are accessed
// only by the token holder (or, for resume, through the token hand-off
// itself).
type evRank struct {
	eng    *evEngine
	rank   int
	resume chan struct{}
	// queued marks the rank as already present in the run heap.
	queued bool
	// blocked marks the rank as parked inside a communication primitive.
	blocked bool
	// done marks the rank's body as returned.
	done bool
	// inSync marks the rank as parked inside a collective epoch.
	inSync bool
	// rdvWaiting/rdvDone carry the rendezvous completion hand-off: the
	// receiver sets rdvDone and clears rdvWaiting under the token.
	rdvWaiting bool
	rdvDone    float64
}

// evQueue is one src→dst message queue: the engine's mailbox. A plain
// ring buffer suffices because only the token holder ever touches it; the
// waiter fields park at most one receiver and one backpressured sender.
type evQueue struct {
	buf        []message
	head, n    int
	waiter     int // rank parked in recv on this queue, -1 if none
	sendWaiter int // rank parked on mailboxDepth backpressure, -1 if none
}

//palint:hotpath
func (q *evQueue) push(m message) {
	if q.n == len(q.buf) {
		grown := make([]message, max(4, 2*len(q.buf))) //palint:ignore hotalloc -- ring growth is amortized: capacity doubles to the queue's working set and is then reused for the rest of the run
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
}

//palint:hotpath
func (q *evQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop payload references so buffers can be collected
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return m
}

// evEngine is the shared scheduler state of one job.
type evEngine struct {
	rt   *runtime
	ctxs []*Ctx
	rank []evRank
	heap []evItem
	// queues holds the src→dst mailboxes, keyed src*n+dst and created on
	// first use: kernels are neighbour- or collective-structured, so most of
	// the n² pairs never exchange a message (at N = 1024 an eager n² array
	// would dwarf the simulation itself).
	queues map[int]*evQueue
	// live counts ranks whose bodies have not returned.
	live int
	// aborted is set when any rank fails (or a deadlock is detected); parked
	// ranks observe it as they are woken for teardown.
	aborted bool
	// deadlocked distinguishes a detected virtual-time deadlock from an
	// ordinary rank error.
	deadlocked bool
	// finish is closed by the last exiting rank; the driver goroutine waits
	// on it.
	finish chan struct{}
}

func newEvEngine(rt *runtime, ctxs []*Ctx) *evEngine {
	n := rt.w.N
	e := &evEngine{
		rt:     rt,
		ctxs:   ctxs,
		rank:   make([]evRank, n),
		heap:   make([]evItem, 0, n),
		queues: make(map[int]*evQueue),
		live:   n,
		finish: make(chan struct{}),
	}
	for i := range e.rank {
		e.rank[i] = evRank{eng: e, rank: i, resume: make(chan struct{}, 1)}
	}
	return e
}

//palint:hotpath
func (e *evEngine) queue(src, dst int) *evQueue {
	key := src*e.rt.w.N + dst
	if q, ok := e.queues[key]; ok {
		return q
	}
	q := &evQueue{waiter: -1, sendWaiter: -1} //palint:ignore hotalloc -- one queue per communicating pair for the whole run; misses only on a pair's first message
	e.queues[key] = q
	return q
}

// heapPush inserts a runnable rank, keeping the min-heap ordered by
// (virtual clock, rank).
//
//palint:hotpath
func (e *evEngine) heapPush(it evItem) {
	e.heap = append(e.heap, it) //palint:ignore hotalloc -- capacity is preallocated to N in newEvEngine; at most N ranks are ever queued
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

//palint:hotpath
func (e *evEngine) heapPop() evItem {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && evLess(e.heap[l], e.heap[s]) {
			s = l
		}
		if r < last && evLess(e.heap[r], e.heap[s]) {
			s = r
		}
		if s == i {
			break
		}
		e.heap[i], e.heap[s] = e.heap[s], e.heap[i]
		i = s
	}
	return top
}

//palint:hotpath
func evLess(a, b evItem) bool {
	if a.key != b.key { //palint:ignore floateq -- heap ordering needs a total order on exact clock values, not a tolerance
		return a.key < b.key
	}
	return a.rank < b.rank
}

// makeRunnable queues a parked rank for the token, keyed by its (frozen,
// since it is parked) virtual clock.
//
//palint:hotpath
func (e *evEngine) makeRunnable(rank int) {
	r := &e.rank[rank]
	if r.done || r.queued {
		return
	}
	r.queued = true
	e.heapPush(evItem{key: e.ctxs[rank].clock, rank: int32(rank)})
}

// handoff passes the execution token to the runnable rank with the lowest
// virtual clock. Called by a rank that is about to park or exit — or by the
// driver to start the job — so exactly one rank runs at any instant.
//
//palint:hotpath
func (e *evEngine) handoff() {
	if len(e.heap) == 0 {
		e.breakDeadlock()
	}
	it := e.heapPop()
	r := &e.rank[it.rank]
	r.queued = false
	r.resume <- struct{}{}
}

// breakDeadlock handles an empty run heap with live ranks remaining: every
// live rank is parked and none can ever be woken — a communication deadlock
// in virtual time. Wake them all for teardown; each returns ErrDeadlock
// from its pending operation.
func (e *evEngine) breakDeadlock() {
	e.deadlocked = true
	e.aborted = true
	for i := range e.rank {
		if r := &e.rank[i]; !r.done && r.blocked {
			e.makeRunnable(i)
		}
	}
	if len(e.heap) == 0 {
		// Unreachable: exit() closes finish when the last rank leaves, and a
		// non-last exit hands the token to someone, so live > 0 implies at
		// least one blocked rank.
		panic("mpi: event engine: live ranks but nothing runnable or blocked")
	}
}

// park blocks the calling rank until another rank wakes it. Returns nil on
// a genuine wake-up and an error when the job is being torn down.
//
//palint:hotpath
func (e *evEngine) park(c *Ctx) error {
	r := c.ev
	if e.aborted {
		return e.teardownErr()
	}
	r.blocked = true
	e.handoff()
	<-r.resume
	r.blocked = false
	if e.aborted {
		return e.teardownErr()
	}
	return nil
}

func (e *evEngine) teardownErr() error {
	if e.deadlocked {
		return ErrDeadlock
	}
	return ErrAborted
}

// exit retires the calling rank's body. The last rank out signals the
// driver; anyone else passes the token on.
func (e *evEngine) exit(rank int) {
	e.rank[rank].done = true
	e.live--
	if e.live == 0 {
		close(e.finish)
		return
	}
	e.handoff()
}

// abortAll starts job teardown after a rank error: every parked rank is
// woken to observe the abort and unwind.
func (e *evEngine) abortAll() {
	e.aborted = true
	for i := range e.rank {
		if r := &e.rank[i]; !r.done && r.blocked {
			e.makeRunnable(i)
		}
	}
}

// send enqueues m on the src→dst queue, waking a parked receiver and
// parking the sender while mailboxDepth messages are undelivered.
//
//palint:hotpath
func (e *evEngine) send(c *Ctx, dst int, m message) error {
	q := e.queue(c.rank, dst)
	for q.n == mailboxDepth {
		q.sendWaiter = c.rank
		if err := e.park(c); err != nil {
			q.sendWaiter = -1
			return err
		}
	}
	q.push(m)
	if q.waiter >= 0 {
		w := q.waiter
		q.waiter = -1
		e.makeRunnable(w)
	}
	return nil
}

// recv dequeues the next message from src, parking until one arrives.
//
//palint:hotpath
func (e *evEngine) recv(c *Ctx, src int) (message, error) {
	q := e.queue(src, c.rank)
	for q.n == 0 {
		q.waiter = c.rank
		if err := e.park(c); err != nil {
			q.waiter = -1
			return message{}, err
		}
	}
	m := q.pop()
	if q.sendWaiter >= 0 {
		s := q.sendWaiter
		q.sendWaiter = -1
		e.makeRunnable(s)
	}
	return m, nil
}

// waitRendezvous parks the sender of a rendezvous message until the
// receiver completes the transfer and reports the sender-side finish time.
//
//palint:hotpath
func (e *evEngine) waitRendezvous(c *Ctx) (float64, error) {
	r := c.ev
	r.rdvWaiting = true
	for r.rdvWaiting {
		if err := e.park(c); err != nil {
			r.rdvWaiting = false
			return 0, err
		}
	}
	return r.rdvDone, nil
}

// completeRendezvous is the receiver-side half of waitRendezvous: it
// delivers the sender's completion time and wakes it. A sender already torn
// down (teardown can race the completion) is left alone.
//
//palint:hotpath
func (e *evEngine) completeRendezvous(src int, doneAt float64) {
	r := &e.rank[src]
	if r.done || !r.rdvWaiting {
		return
	}
	r.rdvDone = doneAt
	r.rdvWaiting = false
	e.makeRunnable(src)
}

// deposit is the collective epoch: runtime.arrive needs no mutex because
// only the token holder runs. The closing arrival wakes every parked
// participant; earlier arrivals park until then. All of them return the
// epoch's snapshot and error.
//
//palint:hotpath
func (e *evEngine) deposit(c *Ctx, payload any, op Op) (*collSnapshot, error) {
	snap, closed := c.rt.arrive(c.rank, c.clock, payload, op)
	if closed {
		for i := range e.rank {
			if r := &e.rank[i]; r.inSync {
				r.inSync = false
				e.makeRunnable(i)
			}
		}
		return snap, snap.err
	}
	r := c.ev
	r.inSync = true
	for r.inSync {
		if err := e.park(c); err != nil && r.inSync { // a closed epoch outranks a later abort
			r.inSync = false
			return nil, err
		}
	}
	return snap, snap.err
}

// runEvent executes fn on every rank. The rank goroutines are cooperative
// coroutines: each waits for the token, runs its body (parking inside
// communication primitives), and retires through exit(). The driver seeds
// the heap with every rank at virtual time zero, hands the token to the
// first, and waits for the last to leave.
func runEvent(w World, fn RankFunc) (*Result, error) {
	rt := newRuntime(w)
	ctxs := make([]*Ctx, w.N)
	errs := make([]error, w.N)
	for rank := 0; rank < w.N; rank++ {
		ctxs[rank] = newCtx(rt, rank)
	}
	e := newEvEngine(rt, ctxs)
	for rank := 0; rank < w.N; rank++ {
		ctxs[rank].ev = &e.rank[rank]
	}
	for rank := 0; rank < w.N; rank++ {
		//palint:ignore nakedgo -- coroutine fan-out: each goroutine writes only its own errs slot and all engine state is serialized by the execution token; the finish channel publishes the writes to the driver
		go func(rank int) {
			self := &e.rank[rank]
			<-self.resume
			if err := fn(ctxs[rank]); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				e.abortAll()
			}
			e.exit(rank)
		}(rank)
	}
	for rank := 0; rank < w.N; rank++ {
		e.makeRunnable(rank)
	}
	e.handoff()
	<-e.finish
	return finishRun(w, ctxs, errs)
}
