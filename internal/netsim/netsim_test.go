package netsim

import (
	"errors"
	"testing"
	"testing/quick"

	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

type netHooks struct {
	kstate.NopHooks
	driverExtract bool
	created       []uint64 // inodes of ObjectCreated calls
	associated    int
	sockInodes    []uint64
}

func (h *netHooks) DriverSockExtract() bool { return h.driverExtract }
func (h *netHooks) InodeCreated(_ *kstate.Ctx, ino uint64, sock bool) {
	if sock {
		h.sockInodes = append(h.sockInodes, ino)
	}
}
func (h *netHooks) ObjectCreated(_ *kstate.Ctx, ino uint64, _ *kobj.Object) {
	h.created = append(h.created, ino)
}
func (h *netHooks) ObjectAssociated(*kstate.Ctx, uint64, *kobj.Object) { h.associated++ }

func newNet(t testing.TB, h kstate.Hooks) (*Net, *memsim.Memory) {
	t.Helper()
	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 512, SlowPages: 2048,
		FastBandwidth: 30, BandwidthRatio: 4, CPUs: 2,
	})
	if h == nil {
		h = kstate.NopHooks{}
	}
	var objIDs, inoGen kstate.IDGen
	return New(mem, h, &objIDs, &inoGen), mem
}

func ctx() *kstate.Ctx { return &kstate.Ctx{CPU: 0, Now: 0} }

// liveFrames counts m's live frames.
func liveFrames(m *memsim.Memory) int {
	n := 0
	m.EachLive(func(*memsim.Frame) { n++ })
	return n
}

func TestSocketLifecycle(t *testing.T) {
	h := &netHooks{}
	n, mem := newNet(t, h)
	c := ctx()
	s, err := n.SocketCreate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Open || s.Ino == 0 {
		t.Fatalf("socket state: %+v", s)
	}
	if len(h.sockInodes) != 1 || h.sockInodes[0] != s.Ino {
		t.Fatal("socket inode creation hook wrong")
	}
	if len(n.sockets) != 1 {
		t.Fatal("socket not registered")
	}
	if n.Stats.ObjAllocs[kobj.Sock] != 1 {
		t.Fatal("no sock object allocated")
	}
	n.SocketClose(c, s)
	if len(n.sockets) != 0 || s.Open {
		t.Fatal("close failed")
	}
	if liveFrames(mem) != 0 {
		t.Fatal("socket close leaked frames")
	}
	n.SocketClose(c, s) // double close is a no-op
	if n.Stats.SocketsClosed != 1 {
		t.Fatal("double close counted twice")
	}
}

func TestSendSegmentsAndFrees(t *testing.T) {
	n, mem := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	if err := n.Send(c, s, 4000); err != nil { // 3 MTU segments
		t.Fatal(err)
	}
	if n.Stats.PacketsTx != 3 || n.Stats.BytesTx != 4000 {
		t.Fatalf("tx stats: %+v", n.Stats)
	}
	if n.Stats.ObjLive[kobj.SkBuff] != 0 || n.Stats.ObjLive[kobj.SkBuffData] != 0 {
		t.Fatal("egress objects leaked")
	}
	if c.Cost <= 0 {
		t.Fatal("send was free")
	}
	n.SocketClose(c, s)
	if liveFrames(mem) != 0 {
		t.Fatal("frames leaked")
	}
}

func TestSendOnClosedSocket(t *testing.T) {
	n, _ := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.SocketClose(c, s)
	if err := n.Send(c, s, 100); !errors.Is(err, fault.EBADF) {
		t.Fatalf("send on closed socket: %v, want EBADF", err)
	}
	if _, err := n.Recv(c, s, 100); !errors.Is(err, fault.EBADF) {
		t.Fatalf("recv on closed socket: %v, want EBADF", err)
	}
}

func TestIngressDriverExtraction(t *testing.T) {
	h := &netHooks{driverExtract: true}
	n, _ := newNet(t, h)
	c := ctx()
	s, _ := n.SocketCreate(c)
	h.created = nil // ignore the sock object
	if err := n.Deliver(c, s, 3000); err != nil {
		t.Fatal(err)
	}
	if n.Stats.DriverDemux != 2 || n.Stats.TCPDemux != 0 {
		t.Fatalf("demux stats: %+v", n.Stats)
	}
	// With driver extraction, ingress objects are created already
	// attributed to the socket's inode.
	for _, ino := range h.created {
		if ino != s.Ino {
			t.Fatalf("ingress object created with ino %d, want %d", ino, s.Ino)
		}
	}
	if s.rxQueue.n != 2 {
		t.Fatalf("queued = %d", s.rxQueue.n)
	}
	got, err := n.Recv(c, s, 1<<20)
	if err != nil || got != 3000 {
		t.Fatalf("recv: %d %v", got, err)
	}
	if h.associated != 0 {
		t.Fatal("late association fired despite driver extraction")
	}
}

func TestIngressLateTCPDemux(t *testing.T) {
	h := &netHooks{driverExtract: false}
	n, _ := newNet(t, h)
	c := ctx()
	s, _ := n.SocketCreate(c)
	h.created = nil
	n.Deliver(c, s, 1500)
	// Without driver extraction, objects are created unattributed.
	for _, ino := range h.created {
		if ino != 0 {
			t.Fatalf("ingress object created with ino %d, want 0", ino)
		}
	}
	recvCtx := ctx()
	n.Recv(recvCtx, s, 1<<20)
	if n.Stats.TCPDemux != 1 || n.Stats.DriverDemux != 0 {
		t.Fatalf("demux stats: %+v", n.Stats)
	}
	if h.associated != 2 { // skb + rxbuf
		t.Fatalf("associated = %d", h.associated)
	}
}

func TestDemuxCostDifference(t *testing.T) {
	run := func(driver bool) sim.Duration {
		h := &netHooks{driverExtract: driver}
		n, _ := newNet(t, h)
		setup := ctx()
		s, _ := n.SocketCreate(setup)
		var total sim.Duration
		for i := 0; i < 50; i++ {
			d := ctx()
			n.Deliver(d, s, 1500)
			r := ctx()
			n.Recv(r, s, 1<<20)
			total += d.Cost + r.Cost
		}
		return total
	}
	withDriver := run(true)
	withTCP := run(false)
	if withDriver >= withTCP {
		t.Fatalf("driver extraction (%v) not cheaper than TCP demux (%v)", withDriver, withTCP)
	}
}

func TestBacklogDrops(t *testing.T) {
	n, _ := newNet(t, nil)
	n.rxBacklogLimit = 2
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.Deliver(c, s, 1500*5)
	if s.rxQueue.n != 2 {
		t.Fatalf("queued = %d", s.rxQueue.n)
	}
	if n.Stats.Drops != 3 {
		t.Fatalf("drops = %d", n.Stats.Drops)
	}
}

func TestDeliverToClosedSocketDrops(t *testing.T) {
	n, _ := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.SocketClose(c, s)
	if err := n.Deliver(c, s, 1500); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Drops != 1 || n.Stats.PacketsRx != 0 {
		t.Fatalf("stats: %+v", n.Stats)
	}
}

func TestRecvRespectsMaxBytes(t *testing.T) {
	n, _ := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.Deliver(c, s, 1500*4)
	got, _ := n.Recv(c, s, 2000)
	if got != 3000 { // two whole packets to exceed 2000
		t.Fatalf("got %d", got)
	}
	if s.rxQueue.n != 2 {
		t.Fatalf("remaining = %d", s.rxQueue.n)
	}
}

func TestSocketCloseFreesQueuedPackets(t *testing.T) {
	n, mem := newNet(t, nil)
	c := ctx()
	s, _ := n.SocketCreate(c)
	n.Deliver(c, s, 1500*3)
	n.SocketClose(c, s)
	if n.Stats.ObjLive[kobj.SkBuff] != 0 || n.Stats.ObjLive[kobj.RxBuf] != 0 {
		t.Fatal("queued packet objects leaked")
	}
	if liveFrames(mem) != 0 {
		t.Fatal("frames leaked")
	}
}

func TestKlocAllocatorForNetworkObjects(t *testing.T) {
	h := &netHooks{}
	n, _ := newNet(t, allKlocHooks{})
	c := ctx()
	s, _ := n.SocketCreate(c)
	if s.sockObj.Frame.Pinned {
		t.Fatal("sock object pinned despite KLOC allocator")
	}
	_ = h
}

type allKlocHooks struct{ kstate.NopHooks }

func (allKlocHooks) UseKlocAllocator(kobj.Type) bool { return true }

// TestNetInvariantsProperty drives random socket traffic and checks
// structural invariants: live-object accounting never goes negative,
// ingress queue membership matches live rx objects, and closing
// everything returns all frames.
func TestNetInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		mem := memsim.NewTwoTier(memsim.TwoTierConfig{
			FastPages: 256, SlowPages: 1024,
			FastBandwidth: 30, BandwidthRatio: 4, CPUs: 2,
		})
		var objIDs, inoGen kstate.IDGen
		n := New(mem, kstate.NopHooks{}, &objIDs, &inoGen)
		c := &kstate.Ctx{CPU: 0}
		var socks []*Socket
		for i := 0; i < 300; i++ {
			c.Now = sim.Time(i) * 1000
			switch r.Intn(5) {
			case 0:
				if s, err := n.SocketCreate(c); err == nil {
					socks = append(socks, s)
				}
			case 1:
				if len(socks) > 0 {
					n.Deliver(c, socks[r.Intn(len(socks))], r.Intn(4000)+1)
				}
			case 2:
				if len(socks) > 0 {
					n.Recv(c, socks[r.Intn(len(socks))], 1<<16)
				}
			case 3:
				if len(socks) > 0 {
					n.Send(c, socks[r.Intn(len(socks))], r.Intn(4000)+1)
				}
			case 4:
				if len(socks) > 0 {
					j := r.Intn(len(socks))
					n.SocketClose(c, socks[j])
					socks = append(socks[:j], socks[j+1:]...)
				}
			}
			for _, live := range n.Stats.ObjLive {
				if live < 0 {
					return false
				}
			}
		}
		// Queued packets across sockets == live skbuff headers on the
		// ingress path (each queued packet holds exactly one skb).
		queued := 0
		for _, s := range socks {
			queued += s.rxQueue.n
		}
		if int64(queued) != n.Stats.ObjLive[kobj.SkBuff] {
			return false
		}
		// Drain everything: no frames left.
		for _, s := range socks {
			n.SocketClose(c, s)
		}
		return liveFrames(mem) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
