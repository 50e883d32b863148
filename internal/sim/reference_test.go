package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// refEngine is the engine as it was before events were recycled: a
// fresh *refEvent per Schedule, cancelled through the pointer itself.
// It is kept only as the reference TestEngineMatchesReference holds
// the recycling Engine to.
type refEngine struct {
	now    Time
	seq    uint64
	queue  refQueue
	halted bool
}

type refEvent struct {
	at    Time
	seq   uint64
	fn    func(*refEngine)
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (e *refEngine) Schedule(at Time, fn func(*refEngine)) *refEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) After(d Duration, fn func(*refEngine)) *refEvent {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	ev.fn = nil
}

func (e *refEngine) Halt() { e.halted = true }

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil
	fn(e)
	return true
}

func (e *refEngine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

func (e *refEngine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && !e.halted {
		e.now = deadline
	}
}

// action is what a differential event does when it fires, fixed when
// it is scheduled so both engines run the same script.
type action struct {
	kind   int // actNone, actChild, actHalt or actCancel
	d      Duration
	target int // actChild: the child's id; actCancel: the id to cancel
}

const (
	actNone = iota
	actChild
	actHalt
	actCancel
)

// engineDiff drives an Engine and a refEngine through one script. ids
// index both handle tables; each engine logs the ids it fires.
type engineDiff struct {
	eng     *Engine
	ref     *refEngine
	handles []Handle
	refEvs  []*refEvent
	acts    []action
	log     []int
	refLog  []int
}

func (d *engineDiff) reserve(a action) int {
	d.handles = append(d.handles, Handle{})
	d.refEvs = append(d.refEvs, nil)
	d.acts = append(d.acts, a)
	return len(d.acts) - 1
}

func (d *engineDiff) fn(id int) Func {
	return func(e *Engine) {
		d.log = append(d.log, id)
		switch a := d.acts[id]; a.kind {
		case actChild:
			d.handles[a.target] = e.After(a.d, d.fn(a.target))
		case actHalt:
			e.Halt()
		case actCancel:
			e.Cancel(d.handles[a.target])
		}
	}
}

func (d *engineDiff) refFn(id int) func(*refEngine) {
	return func(e *refEngine) {
		d.refLog = append(d.refLog, id)
		switch a := d.acts[id]; a.kind {
		case actChild:
			d.refEvs[a.target] = e.After(a.d, d.refFn(a.target))
		case actHalt:
			e.Halt()
		case actCancel:
			e.Cancel(d.refEvs[a.target])
		}
	}
}

// TestEngineMatchesReference drives the recycling engine and the
// fresh-event reference through random Schedule, After, Cancel, Step,
// Run, RunUntil and Halt sequences, with callbacks that schedule
// children, halt and cancel, and compares callback order (and so the
// number fired), Now and the pending queue's length after every step. Cancels pick any id ever issued, so
// most go through stale handles whose event the engine has since
// recycled for a later Schedule: those must cancel nothing.
func TestEngineMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		rng := NewRNG(seed)
		d := &engineDiff{eng: NewEngine(), ref: &refEngine{}}
		recycled, checked := 0, 0
		randAction := func() action {
			switch r := rng.Intn(10); {
			case r < 2:
				return action{kind: actChild, d: Duration(rng.Intn(50)), target: d.reserve(action{})}
			case r < 3:
				return action{kind: actHalt}
			case r < 5 && len(d.acts) > 0:
				return action{kind: actCancel, target: rng.Intn(len(d.acts))}
			}
			return action{}
		}
		for step := 0; step < 4000; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 6:
				at := d.eng.Now().Add(Duration(rng.Intn(100)))
				id := d.reserve(randAction())
				what = fmt.Sprintf("Schedule(%d) id %d", at, id)
				d.handles[id] = d.eng.Schedule(at, d.fn(id))
				d.refEvs[id] = d.ref.Schedule(at, d.refFn(id))
			case op < 9:
				delay := Duration(rng.Intn(100) - 10) // negative delays clamp
				id := d.reserve(randAction())
				what = fmt.Sprintf("After(%d) id %d", delay, id)
				d.handles[id] = d.eng.After(delay, d.fn(id))
				d.refEvs[id] = d.ref.After(delay, d.refFn(id))
			case op < 13:
				id := rng.Intn(len(d.acts) + 1)
				what = fmt.Sprintf("Cancel(%d)", id)
				if id == len(d.acts) {
					d.eng.Cancel(Handle{})
					d.ref.Cancel(nil)
				} else {
					if h := d.handles[id]; h.ev != nil && h.ev.seq != h.seq {
						recycled++
					}
					d.eng.Cancel(d.handles[id])
					d.ref.Cancel(d.refEvs[id])
				}
			case op < 17:
				what = "Step"
				if got, want := d.eng.Step(), d.ref.Step(); got != want {
					t.Fatalf("seed %d step %d: Step = %v, reference %v", seed, step, got, want)
				}
			case op < 19:
				deadline := d.eng.Now().Add(Duration(rng.Intn(150)))
				what = fmt.Sprintf("RunUntil(%d)", deadline)
				d.eng.RunUntil(deadline)
				d.ref.RunUntil(deadline)
			default:
				what = "Run"
				d.eng.Run()
				d.ref.Run()
			}
			if len(d.log) != len(d.refLog) {
				t.Fatalf("seed %d step %d (%s): fired %d callbacks, reference %d", seed, step, what, len(d.log), len(d.refLog))
			}
			for ; checked < len(d.log); checked++ {
				if d.log[checked] != d.refLog[checked] {
					t.Fatalf("seed %d step %d (%s): callback %d is id %d, reference %d", seed, step, what,
						checked, d.log[checked], d.refLog[checked])
				}
			}
			if d.eng.Now() != d.ref.now || len(d.eng.queue) != len(d.ref.queue) {
				t.Fatalf("seed %d step %d (%s): now/pending %v/%d, reference %v/%d", seed, step, what,
					d.eng.Now(), len(d.eng.queue), d.ref.now, len(d.ref.queue))
			}
		}
		if recycled == 0 {
			t.Fatalf("seed %d: no cancel went through a handle whose event was recycled", seed)
		}
	}
}

// TestStaleHandleCancelsNothing: a handle outlives its event. Once the
// event fires and the engine hands the same event to a new Schedule,
// the old handle must not cancel the new event.
func TestStaleHandleCancelsNothing(t *testing.T) {
	e := NewEngine()
	old := e.Schedule(1, Func(func(*Engine) {}))
	e.Run()
	fired := false
	fresh := e.Schedule(2, Func(func(*Engine) { fired = true }))
	if fresh.ev != old.ev {
		t.Fatal("the fired event was not recycled")
	}
	e.Cancel(old)
	e.Run()
	if !fired {
		t.Fatal("a stale handle cancelled the event that reused its event")
	}
}

// The hot-path gates: once the free list holds an event, scheduling
// and firing, or scheduling and cancelling, allocates nothing.
func TestScheduleStepIsAllocFree(t *testing.T) {
	e := NewEngine()
	fn := Func(func(*Engine) {})
	e.Schedule(1, fn)
	e.Step()
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("Schedule+Step allocates %v per op", n)
	}
}

// countdown is a Callback on a long-lived object, the way the cluster's
// requests and attempts carry their own timers.
type countdown struct{ fired int }

func (c *countdown) Fire(*Engine) { c.fired++ }

// TestPointerCallbackIsAllocFree: a pointer Callback goes into the
// event as it is, so scheduling and firing one allocates nothing.
func TestPointerCallbackIsAllocFree(t *testing.T) {
	e := NewEngine()
	c := &countdown{}
	e.Schedule(1, c)
	e.Step()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(1, c)
		e.Step()
	}); n != 0 {
		t.Fatalf("After+Step of a pointer Callback allocates %v per op", n)
	}
	if c.fired != 1002 {
		t.Fatalf("callback fired %d times, want 1002", c.fired)
	}
}

func TestAfterCancelIsAllocFree(t *testing.T) {
	e := NewEngine()
	fn := Func(func(*Engine) {})
	e.Cancel(e.After(1, fn))
	if n := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(1, fn))
	}); n != 0 {
		t.Fatalf("After+Cancel allocates %v per op", n)
	}
}

// BenchmarkScheduleStep times the gate's loops over a queue of 64
// pending events, so each op also pays a realistic heap depth.
func BenchmarkScheduleStep(b *testing.B) {
	fn := Func(func(*Engine) {})
	setup := func() *Engine {
		e := NewEngine()
		for i := 0; i < 64; i++ {
			e.After(Duration(1000+i), fn)
		}
		return e
	}
	b.Run("schedule-step", func(b *testing.B) {
		e := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(e.Now()+64, fn)
			e.Step()
		}
	})
	b.Run("after-cancel", func(b *testing.B) {
		e := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Cancel(e.After(64, fn))
		}
	})
}
