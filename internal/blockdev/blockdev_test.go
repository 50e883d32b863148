package blockdev

import (
	"fmt"
	"strings"
	"testing"

	"kloc/internal/sim"
	"kloc/internal/trace"
)

func TestTransferCostSeqVsRand(t *testing.T) {
	d := DefaultNVMe()
	seq := d.TransferCost(1<<20, true)
	rnd := d.TransferCost(1<<20, false)
	if seq >= rnd {
		t.Fatalf("sequential (%v) not faster than random (%v)", seq, rnd)
	}
	// 1 MB at 1.2 GB/s ≈ 0.87 ms + 20 µs command latency.
	if seq < 800*sim.Microsecond || seq > 1*sim.Millisecond {
		t.Fatalf("seq 1MB cost = %v, want ~0.9ms", seq)
	}
}

func TestSubmitQueueing(t *testing.T) {
	d := DefaultNVMe()
	l1, _ := d.Submit(0, 4096, true)
	// Second command at the same instant queues behind the first.
	l2, _ := d.Submit(0, 4096, true)
	if l2 <= l1 {
		t.Fatalf("queued command latency %v not greater than first %v", l2, l1)
	}
	// A command far in the future sees an idle device again.
	l3, _ := d.Submit(d.BusyUntil().Add(sim.Second), 4096, true)
	if l3 != l1 {
		t.Fatalf("idle-device latency %v, want %v", l3, l1)
	}
}

// TestMQDispatch: each request goes to its CPU's software queue, which
// its blockdev.dispatch event names.
func TestMQDispatch(t *testing.T) {
	d := DefaultNVMe()
	mq := NewMQ(d, 4)
	mq.Trace = trace.New(trace.Config{})
	mq.Submit(0, 0, 4096, true, false)
	mq.Submit(5, 0, 4096, true, true) // cpu 5 -> queue 1
	var got []string
	for _, e := range mq.Trace.Events() {
		got = append(got, fmt.Sprintf("%s %s q%d", e.Name, e.Class, e.Node))
	}
	if want := "blockdev.dispatch read q0,blockdev.dispatch write q1"; strings.Join(got, ",") != want {
		t.Fatalf("dispatches %v, want %s", got, want)
	}
}

func TestMQAddsDispatchCost(t *testing.T) {
	d := DefaultNVMe()
	raw := d.TransferCost(4096, true)
	mq := NewMQ(DefaultNVMe(), 1)
	total, _ := mq.Submit(0, 0, 4096, true, false)
	if total != raw+mq.DispatchCost {
		t.Fatalf("total %v, want %v", total, raw+mq.DispatchCost)
	}
}

func TestMQMinimumQueues(t *testing.T) {
	mq := NewMQ(DefaultNVMe(), 0)
	if mq.Queues != 1 {
		t.Fatalf("queues = %d", mq.Queues)
	}
	mq.Submit(7, 0, 64, false, true) // must not panic on modulo
}
