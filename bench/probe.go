package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

// now reads the host clock. Every host-time measurement of the
// benchmark goes through here; none of it reaches simulation state.
func now() time.Time {
	//klocs:wallclock host-time measurement of the benchmark itself
	return time.Now()
}

// span is one timed interval of the traced pass.
type span struct {
	name, cat  string
	start, end time.Time
}

// spanLog keeps the traced pass's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name, cat string, start, end time.Time) {
	l.spans = append(l.spans, span{name: name, cat: cat, start: start, end: end})
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open. Spans on one thread nest
// by time: workload > execution > setup/run > policy.tick.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X",
			Ts: us(s.start.Sub(l.origin)), Dur: us(s.end.Sub(s.start)), Pid: 1, Tid: 1})
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// probe is one traced execution's instrumentation: the policy
// decorator's counters and the moment setup ended.
type probe struct {
	log *spanLog
	// setupEnd is when the kernel asked for the daemon period, which
	// kernel.Start does right after workload setup.
	setupEnd                time.Time
	ticks, places, notifies uint64
	tickTime                time.Duration
}

// wrap decorates a policy for the traced pass. The decorator forwards
// every call, so the simulation is unchanged; it counts every hook
// call and times only Tick (daemon scans and migrations), which keeps
// its cost low. It also forwards kernel.OOMVictimChooser when the
// inner policy has it, since the kernel looks for it by assertion.
func (prb *probe) wrap(inner kernel.Policy) kernel.Policy {
	p := &tracedPolicy{Policy: inner, prb: prb}
	if oom, ok := inner.(kernel.OOMVictimChooser); ok {
		return &tracedOOMPolicy{tracedPolicy: p, oom: oom}
	}
	return p
}

type tracedPolicy struct {
	kernel.Policy
	prb *probe
}

type tracedOOMPolicy struct {
	*tracedPolicy
	oom kernel.OOMVictimChooser
}

func (p *tracedOOMPolicy) OOMVictimFrames(node memsim.NodeID, at sim.Time) []*memsim.Frame {
	return p.oom.OOMVictimFrames(node, at)
}

func (p *tracedPolicy) TickPeriod() sim.Duration {
	if p.prb.setupEnd.IsZero() {
		p.prb.setupEnd = now()
	}
	return p.Policy.TickPeriod()
}

func (p *tracedPolicy) Tick(at sim.Time) sim.Duration {
	p.prb.ticks++
	start := now()
	d := p.Policy.Tick(at)
	end := now()
	p.prb.tickTime += end.Sub(start)
	p.prb.log.add("policy.tick", "policy", start, end)
	return d
}

func (p *tracedPolicy) PlaceKernel(ctx *kstate.Ctx, t kobj.Type, ino uint64) []memsim.NodeID {
	p.prb.places++
	return p.Policy.PlaceKernel(ctx, t, ino)
}

func (p *tracedPolicy) PlaceApp(ctx *kstate.Ctx) []memsim.NodeID {
	p.prb.places++
	return p.Policy.PlaceApp(ctx)
}

func (p *tracedPolicy) UseKlocAllocator(t kobj.Type) bool {
	p.prb.places++
	return p.Policy.UseKlocAllocator(t)
}

func (p *tracedPolicy) DriverSockExtract() bool {
	p.prb.places++
	return p.Policy.DriverSockExtract()
}

func (p *tracedPolicy) InodeCreated(ctx *kstate.Ctx, ino uint64, sock bool) {
	p.prb.notifies++
	p.Policy.InodeCreated(ctx, ino, sock)
}

func (p *tracedPolicy) InodeOpened(ctx *kstate.Ctx, ino uint64) {
	p.prb.notifies++
	p.Policy.InodeOpened(ctx, ino)
}

func (p *tracedPolicy) InodeClosed(ctx *kstate.Ctx, ino uint64) {
	p.prb.notifies++
	p.Policy.InodeClosed(ctx, ino)
}

func (p *tracedPolicy) InodeDeleted(ctx *kstate.Ctx, ino uint64) {
	p.prb.notifies++
	p.Policy.InodeDeleted(ctx, ino)
}

func (p *tracedPolicy) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	p.prb.notifies++
	p.Policy.ObjectCreated(ctx, ino, o)
}

func (p *tracedPolicy) ObjectAssociated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	p.prb.notifies++
	p.Policy.ObjectAssociated(ctx, ino, o)
}

func (p *tracedPolicy) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	p.prb.notifies++
	p.Policy.ObjectFreed(ctx, o)
}

func (p *tracedPolicy) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) {
	p.prb.notifies++
	p.Policy.PageAllocated(ctx, f)
}

func (p *tracedPolicy) PageAccessed(ctx *kstate.Ctx, f *memsim.Frame) {
	p.prb.notifies++
	p.Policy.PageAccessed(ctx, f)
}

func (p *tracedPolicy) PageFreed(ctx *kstate.Ctx, f *memsim.Frame) {
	p.prb.notifies++
	p.Policy.PageFreed(ctx, f)
}
