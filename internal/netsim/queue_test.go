package netsim

import (
	"fmt"
	"testing"

	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/sim"
)

// lifeHooks records every kernel object created and freed, in order.
type lifeHooks struct {
	kstate.NopHooks
	driverExtract bool
	created       []*kobj.Object
	freed         []kobj.ID
}

func (h *lifeHooks) DriverSockExtract() bool { return h.driverExtract }
func (h *lifeHooks) ObjectCreated(_ *kstate.Ctx, _ uint64, o *kobj.Object) {
	h.created = append(h.created, o)
}
func (h *lifeHooks) ObjectFreed(_ *kstate.Ctx, o *kobj.Object) { h.freed = append(h.freed, o.ID) }

// refSocket is a socket's ingress queue as it was kept before packets
// were held by value: a []*Packet appended at the tail and popped by
// reslicing the head. TestRxQueueMatchesReference predicts the real
// stack's queues, drops and frees from it.
type refSocket struct {
	s     *Socket
	queue []*Packet
}

// refFree appends the IDs freePacket frees for p, in its order (the rx
// path never sets data).
func refFree(freed []kobj.ID, p *Packet) []kobj.ID {
	return append(freed, p.skb.ID, p.rxbuf.ID)
}

// TestRxQueueMatchesReference drives the network stack through random
// deliver, recv, shrink and close sequences on several sockets, with a
// backlog limit low enough to drop, and after every step compares each
// socket's queue (order, objects, size, demux state), the drop count
// and the IDs of the objects freed, in order, with a []*Packet model.
func TestRxQueueMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 7, 42} {
		for _, extract := range []bool{false, true} {
			h := &lifeHooks{driverExtract: extract}
			n, _ := newNet(t, h)
			n.rxBacklogLimit = 11
			c := ctx()
			r := sim.NewRNG(seed)
			var socks []*refSocket
			var wantFreed []kobj.ID
			var wantDrops uint64
			for step := 0; step < 3000; step++ {
				var what string
				switch op := r.Intn(20); {
				case len(socks) < 3 || op == 0:
					what = "create"
					s, err := n.SocketCreate(c)
					if err != nil {
						t.Fatal(err)
					}
					socks = append(socks, &refSocket{s: s})
				case op < 9:
					rs := socks[r.Intn(len(socks))]
					bytes := 1 + r.Intn(4*mtu)
					what = fmt.Sprintf("deliver %d to %d", bytes, rs.s.Ino)
					before := len(h.created)
					if err := n.Deliver(c, rs.s, bytes); err != nil {
						t.Fatal(err)
					}
					created := h.created[before:]
					for left := bytes; left > 0; left -= mtu {
						if len(rs.queue) >= n.rxBacklogLimit {
							wantDrops++
							continue
						}
						p := &Packet{rxbuf: created[0], skb: created[1], size: min(left, mtu), demuxed: extract}
						created = created[2:]
						rs.queue = append(rs.queue, p)
					}
					if len(created) != 0 {
						t.Fatalf("seed %d step %d (%s): %d objects created beyond the model's packets", seed, step, what, len(created))
					}
				case op < 15:
					rs := socks[r.Intn(len(socks))]
					maxBytes := r.Intn(5 * mtu)
					what = fmt.Sprintf("recv %d from %d", maxBytes, rs.s.Ino)
					want := 0
					for len(rs.queue) > 0 && want < maxBytes {
						p := rs.queue[0]
						rs.queue = rs.queue[1:]
						want += p.size
						wantFreed = refFree(wantFreed, p)
					}
					got, err := n.Recv(c, rs.s, maxBytes)
					if err != nil || got != want {
						t.Fatalf("seed %d step %d (%s): Recv = %d, %v; reference %d", seed, step, what, got, err, want)
					}
				case op < 18:
					want := r.Intn(8)
					what = fmt.Sprintf("shrink %d", want)
					freed := 0
					for _, rs := range socks {
						for len(rs.queue) > 0 && freed < want {
							wantFreed = refFree(wantFreed, rs.queue[0])
							rs.queue = rs.queue[1:]
							wantDrops++
							freed++
						}
					}
					if got := n.SkbuffShrinker().Scan(c, want); got != freed {
						t.Fatalf("seed %d step %d (%s): Scan freed %d, reference %d", seed, step, what, got, freed)
					}
				default:
					i := r.Intn(len(socks))
					rs := socks[i]
					what = fmt.Sprintf("close %d", rs.s.Ino)
					for _, p := range rs.queue {
						wantFreed = refFree(wantFreed, p)
					}
					wantFreed = append(wantFreed, rs.s.sockObj.ID)
					n.SocketClose(c, rs.s)
					socks = append(socks[:i], socks[i+1:]...)
				}
				if msg := sameQueues(n, socks); msg != "" {
					t.Fatalf("seed %d extract %v step %d (%s): %s", seed, extract, step, what, msg)
				}
				if n.Stats.Drops != wantDrops {
					t.Fatalf("seed %d extract %v step %d (%s): %d drops, reference %d", seed, extract, step, what, n.Stats.Drops, wantDrops)
				}
				if fmt.Sprint(h.freed) != fmt.Sprint(wantFreed) {
					t.Fatalf("seed %d extract %v step %d (%s): freed %v, reference %v", seed, extract, step, what, h.freed, wantFreed)
				}
				h.freed, wantFreed = h.freed[:0], wantFreed[:0]
			}
		}
	}
}

// sameQueues compares every open socket's queue with its model, packet
// by packet, and the shrinker's count with the models' total.
func sameQueues(n *Net, socks []*refSocket) string {
	total := 0
	for _, rs := range socks {
		q := &rs.s.rxQueue
		if q.n != len(rs.queue) || rs.s.rxQueue.n != len(rs.queue) {
			return fmt.Sprintf("socket %d holds %d packets, reference %d", rs.s.Ino, q.n, len(rs.queue))
		}
		for i, want := range rs.queue {
			if got := q.at(i); *got != *want {
				return fmt.Sprintf("socket %d packet %d is %+v, reference %+v", rs.s.Ino, i, *got, *want)
			}
		}
		total += len(rs.queue)
	}
	if got := n.SkbuffShrinker().Count(); got != total {
		return fmt.Sprintf("shrinker counts %d packets, reference %d", got, total)
	}
	return ""
}

// TestDeliverRecvIsAllocFree is the ingress gate: once the socket's
// ring has grown, a steady stream of one-segment deliveries, each
// received in turn, allocates nothing. The segment's two kernel
// objects (the rx buffer and the skbuff) reuse the structs the last
// received segment freed, and the queue holds packets by value.
func TestDeliverRecvIsAllocFree(t *testing.T) {
	n, c, s := warmStream(t)
	if got := testing.AllocsPerRun(200, func() {
		if err := streamOp(n, c, s); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Deliver+Recv allocates %v per segment, want 0", got)
	}
}

func warmStream(t testing.TB) (*Net, *kstate.Ctx, *Socket) {
	n, _ := newNet(t, nil)
	c := ctx()
	s, err := n.SocketCreate(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := streamOp(n, c, s); err != nil {
			t.Fatal(err)
		}
	}
	return n, c, s
}

// streamOp delivers one MTU segment, keeping two queued, and receives
// the oldest, so the ring's head wraps around its backing array.
func streamOp(n *Net, c *kstate.Ctx, s *Socket) error {
	if err := n.Deliver(c, s, mtu); err != nil {
		return err
	}
	if s.rxQueue.n > 2 {
		if _, err := n.Recv(c, s, mtu); err != nil {
			return err
		}
	}
	c.Cost = 0
	return nil
}

// BenchmarkDeliverRecv times the gate's loop, one segment per op.
func BenchmarkDeliverRecv(b *testing.B) {
	n, c, s := warmStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := streamOp(n, c, s); err != nil {
			b.Fatal(err)
		}
	}
}
