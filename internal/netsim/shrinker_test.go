package netsim

import (
	"testing"

	"kloc/internal/fault"
	"kloc/internal/memsim"
)

func TestSkbuffShrinkerCountScan(t *testing.T) {
	n, mem := newNet(t, nil)
	c := ctx()
	s1, _ := n.SocketCreate(c)
	s2, _ := n.SocketCreate(c)
	n.Deliver(c, s1, 1500*3)
	n.Deliver(c, s2, 1500*3)

	sh := n.SkbuffShrinker()
	if sh.Name() != "net.skbuff" {
		t.Fatalf("name = %s", sh.Name())
	}
	if sh.Count() != 6 {
		t.Fatalf("count = %d, want 6 queued packets", sh.Count())
	}
	framesBefore := liveFrames(mem)
	if freed := sh.Scan(c, 4); freed != 4 {
		t.Fatalf("scan freed %d, want 4", freed)
	}
	// Socket-creation order is scan order: s1 drained first.
	if s1.rxQueue.n != 0 || s2.rxQueue.n != 2 {
		t.Fatalf("queues = %d/%d, want 0/2", s1.rxQueue.n, s2.rxQueue.n)
	}
	if n.Stats.ReclaimedPackets != 4 || n.Stats.Drops != 4 {
		t.Fatalf("stats: %+v", n.Stats)
	}
	if liveFrames(mem) >= framesBefore {
		t.Fatal("reclaim freed no memory")
	}
	// The surviving backlog is still deliverable to the app.
	got, err := n.Recv(c, s2, 1<<20)
	if err != nil || got != 3000 {
		t.Fatalf("recv after shrink: %d bytes, %v", got, err)
	}
}

func TestSkbuffShrinkerSkipsClosedSockets(t *testing.T) {
	n, _ := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.Deliver(c, s, 1500*2)
	n.SocketClose(c, s) // frees the backlog with the socket
	sh := n.SkbuffShrinker()
	if sh.Count() != 0 {
		t.Fatalf("count = %d after close", sh.Count())
	}
	if freed := sh.Scan(c, 10); freed != 0 {
		t.Fatalf("scan on closed sockets freed %d", freed)
	}
}

func TestRxDropFaultPoint(t *testing.T) {
	n, mem := newNet(t, nil)
	mem.Fault = fault.NewPlane(fault.Config{
		Seed:  7,
		Rules: map[fault.Point]fault.Rule{fault.RxDrop: {Prob: 1}},
	})
	c := ctx()
	s, _ := n.SocketCreate(c)
	if err := n.Deliver(c, s, 1500*4); err != nil {
		t.Fatalf("injected drops must not error the rx path: %v", err)
	}
	if n.Stats.InjectedDrops != 4 || n.Stats.Drops != 4 || n.Stats.PacketsRx != 0 {
		t.Fatalf("stats: %+v", n.Stats)
	}
	if s.rxQueue.n != 0 {
		t.Fatalf("queued = %d after total loss", s.rxQueue.n)
	}
	// The app-side read sees an empty queue — the would-block (EAGAIN)
	// path, not an error.
	got, err := n.Recv(c, s, 1<<20)
	if err != nil || got != 0 {
		t.Fatalf("recv on drained socket: %d, %v", got, err)
	}
	if mem.Fault.Injected() != 4 {
		t.Fatalf("trace counted %d rxdrops", mem.Fault.Injected())
	}
}

func TestRxDropFaultDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, int) {
		n, mem := newNet(t, nil)
		mem.Fault = fault.NewPlane(fault.Config{
			Seed:  seed,
			Rules: map[fault.Point]fault.Rule{fault.RxDrop: {Prob: 0.5}},
		})
		c := ctx()
		s, _ := n.SocketCreate(c)
		for i := 0; i < 20; i++ {
			n.Deliver(c, s, 1500)
		}
		return n.Stats.InjectedDrops, s.rxQueue.n
	}
	d1, q1 := run(11)
	d2, q2 := run(11)
	if d1 != d2 || q1 != q2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, q1, d2, q2)
	}
	if d1 == 0 || d1 == 20 {
		t.Fatalf("p=0.5 injected %d/20 — stream looks degenerate", d1)
	}
}

func TestDeliverDipsIntoReserveUnderWatermark(t *testing.T) {
	n, mem := newNet(t, nil)
	wm := memsim.Watermarks{Min: 64, Low: 80, High: 96}
	mem.Node(memsim.FastNode).SetWatermarks(wm)
	// Pin the fast node at its Min watermark.
	for mem.Node(memsim.FastNode).Free() > wm.Min {
		if _, err := mem.Alloc(memsim.FastNode, memsim.ClassApp, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := ctx()
	s, _ := n.SocketCreate(c)
	// Ingress is GFP_ATOMIC: it must succeed from the reserve, not
	// fail with ENOMEM.
	if err := n.Deliver(c, s, 1500*2); err != nil {
		t.Fatalf("rx path failed at the watermark: %v", err)
	}
	if s.rxQueue.n != 2 {
		t.Fatalf("queued = %d", s.rxQueue.n)
	}
	if mem.Stats.ReserveDips == 0 {
		t.Fatal("ingress allocations did not dip into the reserve")
	}
}
