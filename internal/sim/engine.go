package sim

import (
	"container/heap"
	"fmt"
)

// Callback is what a scheduled event runs. A long-lived object that
// owns a timer implements it on itself, so arming the timer allocates
// nothing; a plain closure goes through Func.
type Callback interface {
	Fire(*Engine)
}

// Func adapts a closure to a Callback.
type Func func(*Engine)

// Fire calls f.
func (f Func) Fire(e *Engine) { f(e) }

// event is a scheduled callback. Events fire in (time, sequence) order,
// which makes simulation runs fully deterministic: ties in virtual time
// break by scheduling order. The engine recycles an event once it has
// fired or been cancelled, so callers hold a Handle, never the event.
type event struct {
	at  Time
	seq uint64
	cb  Callback
	// index in the heap, or -1 once popped/cancelled.
	index int
}

// Handle names one scheduled event for Cancel. It carries the event's
// sequence number, which no later Schedule reuses, so a handle whose
// event has fired or been cancelled cancels nothing, even after the
// engine has recycled the event for another callback. The zero Handle
// names no event.
type Handle struct {
	ev  *event
	seq uint64
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; the entire simulation runs on one goroutine, which is
// what guarantees reproducibility.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventQueue
	fired  uint64
	halted bool
	// free holds fired and cancelled events for Schedule to reuse.
	free []*event
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have run so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule arranges for cb to fire at the given absolute time.
// Scheduling in the past panics: it indicates a broken cost model.
func (e *Engine) Schedule(at Time, cb Callback) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	var ev *event
	if last := len(e.free) - 1; last >= 0 {
		ev = e.free[last]
		e.free = e.free[:last]
	} else {
		ev = new(event)
	}
	*ev = event{at: at, seq: e.seq, cb: cb}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev: ev, seq: ev.seq}
}

// After schedules cb to fire d nanoseconds from now.
func (e *Engine) After(d Duration, cb Callback) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), cb)
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled, or the zero Handle, is a no-op.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.seq != h.seq || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	e.recycle(ev)
}

// recycle retires a popped event onto the free list. Clearing cb drops
// the callback's state for the collector.
func (e *Engine) recycle(ev *event) {
	ev.cb = nil
	e.free = append(e.free, ev)
}

// Halt stops Run/RunUntil after the current event completes.
func (e *Engine) Halt() { e.halted = true }

// Step fires the next pending event, advancing the clock to its time.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	cb := ev.cb
	e.recycle(ev)
	e.fired++
	cb.Fire(e)
	return true
}

// Run fires events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil fires events with time <= deadline, leaving later events
// queued. The clock ends at min(deadline, last event time).
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && !e.halted {
		e.now = deadline
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }
