// Package netsim simulates the networking stack of the paper's §4.2.3:
// sockets (which are inodes — everything is a file), skbuff packet
// headers, packet data buffers, and receive-side driver buffers, with
// the layered ingress problem the paper highlights: the driver receives
// packets asynchronously and does not know the owning socket until the
// TCP layer demultiplexes — unless the KLOC extension extracts the
// socket in the driver via the 8-byte skbuff field.
package netsim

import (
	"fmt"

	"kloc/internal/alloc"
	"kloc/internal/fault"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// Cost constants for the networking paths.
const (
	// syscallEntryCost per socket syscall.
	syscallEntryCost sim.Duration = 100
	// nicPerPacket is the fixed NIC processing cost per packet.
	nicPerPacket sim.Duration = 300
	// nicBandwidth in bytes/ns (10 GbE = 1.25 B/ns).
	nicBandwidth = 1.25
	// driverExtractCost: identifying the socket inside the driver using
	// the extended skbuff field (cheap — the paper's design).
	driverExtractCost sim.Duration = 300
	// tcpDemuxCost: full TCP-stack traversal to find the socket
	// (the baseline's expensive late association).
	tcpDemuxCost sim.Duration = 1800
	// mtu caps per-packet payload bytes.
	mtu = 1500
)

// Stats tracks network activity.
type Stats struct {
	SocketsCreated, SocketsClosed uint64
	PacketsTx, PacketsRx          uint64
	BytesTx, BytesRx              uint64
	DriverDemux, TCPDemux         uint64
	Drops                         uint64
	// InjectedDrops counts Drops caused by the fault plane.
	InjectedDrops uint64
	// ReclaimedPackets counts queued packets dropped by the skbuff
	// shrinker under memory pressure (a subset of Drops).
	ReclaimedPackets uint64
	alloc.ObjStats
}

// Packet is one in-flight ingress packet.
type Packet struct {
	skb, data, rxbuf *kobj.Object
	size             int
	demuxed          bool
}

// Socket is an open socket endpoint.
type Socket struct {
	Ino     uint64
	sockObj *kobj.Object
	rxQueue packetQueue
	Open    bool
}

// QueuedPackets reports the ingress backlog.
func (s *Socket) QueuedPackets() int { return s.rxQueue.n }

// packetQueue is a socket's ingress FIFO: packets held by value in a
// ring that reuses its backing array and doubles it only when full, so
// a steady deliver/recv stream allocates no queue memory.
type packetQueue struct {
	buf  []Packet
	head int // slot of the oldest packet
	n    int
}

func (q *packetQueue) push(p Packet) {
	if q.n == len(q.buf) {
		buf := make([]Packet, max(2*len(q.buf), 8))
		for i := range q.n {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

// pop removes and returns the oldest packet. The queue must not be
// empty.
func (q *packetQueue) pop() Packet {
	p := q.buf[q.head]
	q.buf[q.head] = Packet{} // the ring holds no freed object alive
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// at returns the i-th oldest packet, 0 <= i < n.
func (q *packetQueue) at(i int) *Packet { return &q.buf[(q.head+i)%len(q.buf)] }

// Net is the simulated network stack.
type Net struct {
	Mem    *memsim.Memory
	Hooks  kstate.Hooks
	InoGen *kstate.IDGen

	// Objs is the kernel-object path every network object is allocated,
	// touched and freed through.
	Objs *alloc.Objects

	sockets map[uint64]*Socket
	// sockOrder keeps creation-order iteration over sockets for the
	// skbuff shrinker; Go map order would break determinism.
	sockOrder []uint64
	// rxBacklogLimit drops ingress packets beyond this per-socket
	// backlog, like a full receive buffer.
	rxBacklogLimit int

	// Trace, when non-nil, records net.rx / net.tx events from the
	// socket paths. Strictly passive.
	Trace *trace.Tracer

	Stats Stats
}

// New builds the network stack. objIDs and inoGen are shared with the
// filesystem.
func New(mem *memsim.Memory, hooks kstate.Hooks, objIDs, inoGen *kstate.IDGen) *Net {
	n := &Net{
		Mem:            mem,
		Hooks:          hooks,
		InoGen:         inoGen,
		sockets:        make(map[uint64]*Socket),
		rxBacklogLimit: 1024,
	}
	n.Objs = alloc.NewObjects(mem, hooks, objIDs, &n.Stats.ObjStats, nil)
	return n
}

// MarkReachable marks every object the network stack still references
// — each open socket's object plus its queued ingress packets — for
// the sanitizer's kmemleak-style teardown scan.
func (n *Net) MarkReachable(s *alloc.Sanitizer) {
	if s == nil {
		return
	}
	for _, ino := range n.sockOrder {
		sk, ok := n.sockets[ino]
		if !ok {
			continue
		}
		if sk.sockObj != nil {
			s.MarkReachable(uint64(sk.sockObj.ID))
		}
		for i := range sk.rxQueue.n {
			p := sk.rxQueue.at(i)
			for _, o := range []*kobj.Object{p.skb, p.data, p.rxbuf} {
				if o != nil {
					s.MarkReachable(uint64(o.ID))
				}
			}
		}
	}
}

// Sockets reports open sockets.
func (n *Net) Sockets() int { return len(n.sockets) }

// SocketCreate opens a socket: an inode is born (sockets are files) and
// the sock object is allocated.
func (n *Net) SocketCreate(ctx *kstate.Ctx) (*Socket, error) {
	ctx.Charge(syscallEntryCost)
	ino := n.InoGen.Next()
	n.Hooks.InodeCreated(ctx, ino, true)
	sockObj, err := n.Objs.Alloc(ctx, kobj.Sock, ino)
	if err != nil {
		return nil, err
	}
	s := &Socket{Ino: ino, sockObj: sockObj, Open: true}
	n.sockets[ino] = s
	n.sockOrder = append(n.sockOrder, ino)
	n.Hooks.InodeOpened(ctx, ino)
	n.Stats.SocketsCreated++
	return s, nil
}

// SocketClose tears the socket down: queued packets and the sock object
// are deallocated and the inode dies.
func (n *Net) SocketClose(ctx *kstate.Ctx, s *Socket) {
	if !s.Open {
		return
	}
	ctx.Charge(syscallEntryCost)
	s.Open = false
	for s.rxQueue.n > 0 {
		p := s.rxQueue.pop()
		n.freePacket(ctx, p)
	}
	s.rxQueue = packetQueue{}
	n.Objs.Free(s.sockObj, ctx)
	s.sockObj = nil
	delete(n.sockets, s.Ino)
	for i, ino := range n.sockOrder {
		if ino == s.Ino {
			n.sockOrder = append(n.sockOrder[:i], n.sockOrder[i+1:]...)
			break
		}
	}
	n.Objs.DropArena(s.Ino) // all objects freed: the arena is empty
	n.Hooks.InodeClosed(ctx, s.Ino)
	n.Hooks.InodeDeleted(ctx, s.Ino)
	n.Stats.SocketsClosed++
}

func (n *Net) freePacket(ctx *kstate.Ctx, p Packet) {
	n.Objs.Free(p.skb, ctx)
	n.Objs.Free(p.data, ctx)
	n.Objs.Free(p.rxbuf, ctx)
}

// Send transmits bytes on the socket: one skbuff + data buffer per MTU
// segment, copied from userspace, pushed through the NIC, and freed on
// completion (the short-lived egress population).
func (n *Net) Send(ctx *kstate.Ctx, s *Socket, bytes int) error {
	if !s.Open {
		return fmt.Errorf("netsim: send on closed socket %d: %w", s.Ino, fault.EBADF)
	}
	ctx.Charge(syscallEntryCost)
	n.Objs.Touch(ctx, s.sockObj, 0, true)
	for sent := 0; sent < bytes; sent += mtu {
		seg := bytes - sent
		if seg > mtu {
			seg = mtu
		}
		skb, err := n.Objs.Alloc(ctx, kobj.SkBuff, s.Ino)
		if err != nil {
			return err
		}
		data, err := n.Objs.Alloc(ctx, kobj.SkBuffData, s.Ino)
		if err != nil {
			n.Objs.Free(skb, ctx)
			return err
		}
		n.Objs.Touch(ctx, skb, 0, true)
		n.Objs.Touch(ctx, data, seg, true) // copy from user
		ctx.Charge(nicPerPacket + sim.Duration(float64(seg)/nicBandwidth))
		n.Trace.Emit(trace.NetTx, ctx.Now, s.Ino, uint64(skb.ID), "segment", -1, int64(seg))
		n.Stats.PacketsTx++
		n.Stats.BytesTx += uint64(seg)
		n.Objs.Free(skb, ctx)
		n.Objs.Free(data, ctx)
	}
	return nil
}

// Deliver models asynchronous packet ingress (NAPI): the driver
// allocates an rx buffer and skbuff for each MTU segment. With driver
// extraction (the KLOC design) the socket is identified immediately and
// the objects are associated with its KLOC; otherwise association waits
// for the TCP layer at Recv time.
//
// Deliver runs in softirq context: ctx should be a daemon/interrupt
// context, not a user operation's.
func (n *Net) Deliver(ctx *kstate.Ctx, s *Socket, bytes int) error {
	if !s.Open {
		n.Stats.Drops++
		return nil
	}
	// Softirq context cannot sleep: ingress allocations are GFP_ATOMIC
	// and may dip into the watermark reserve rather than fail.
	exitAtomic := n.Mem.EnterAtomic()
	defer exitAtomic()
	for recvd := 0; recvd < bytes; recvd += mtu {
		seg := bytes - recvd
		if seg > mtu {
			seg = mtu
		}
		if s.rxQueue.n >= n.rxBacklogLimit {
			n.Stats.Drops++
			continue
		}
		// Injected ingress drop: the NIC ring overflowed or the DMA
		// failed; the segment is lost (EAGAIN territory — the peer would
		// retransmit) but delivery of later segments continues.
		if e := n.Mem.Fault.Check(fault.RxDrop, ctx.Now); e != 0 {
			n.Stats.Drops++
			n.Stats.InjectedDrops++
			continue
		}
		driverKnows := n.Hooks.DriverSockExtract()
		ownerIno := uint64(0)
		if driverKnows {
			ownerIno = s.Ino
		}
		rxbuf, err := n.Objs.Alloc(ctx, kobj.RxBuf, ownerIno)
		if err != nil {
			return err
		}
		skb, err := n.Objs.Alloc(ctx, kobj.SkBuff, ownerIno)
		if err != nil {
			n.Objs.Free(rxbuf, ctx)
			return err
		}
		n.Objs.Touch(ctx, rxbuf, seg, true) // DMA landing
		n.Objs.Touch(ctx, skb, 0, true)
		p := Packet{skb: skb, rxbuf: rxbuf, size: seg}
		if driverKnows {
			ctx.Charge(driverExtractCost)
			p.demuxed = true
			n.Stats.DriverDemux++
		}
		s.rxQueue.push(p)
		n.Trace.Emit(trace.NetRx, ctx.Now, s.Ino, uint64(skb.ID), "segment",
			int(skb.Frame.Node), int64(seg))
		n.Stats.PacketsRx++
		n.Stats.BytesRx += uint64(seg)
	}
	return nil
}

// Recv consumes up to maxBytes from the socket's ingress queue,
// performing late TCP demux (and late KLOC association) for packets the
// driver could not attribute. Returns bytes received.
func (n *Net) Recv(ctx *kstate.Ctx, s *Socket, maxBytes int) (int, error) {
	if !s.Open {
		return 0, fmt.Errorf("netsim: recv on closed socket %d: %w", s.Ino, fault.EBADF)
	}
	ctx.Charge(syscallEntryCost)
	n.Objs.Touch(ctx, s.sockObj, 0, false)
	got := 0
	for s.rxQueue.n > 0 && got < maxBytes {
		p := s.rxQueue.pop()
		if !p.demuxed {
			// Walk the TCP stack to find the socket, then associate the
			// kernel objects with the KLOC (late association).
			ctx.Charge(tcpDemuxCost)
			n.Stats.TCPDemux++
			p.demuxed = true
			n.Hooks.ObjectAssociated(ctx, s.Ino, p.skb)
			n.Hooks.ObjectAssociated(ctx, s.Ino, p.rxbuf)
		}
		n.Objs.Touch(ctx, p.skb, 0, false)
		n.Objs.Touch(ctx, p.rxbuf, p.size, false) // copy to user
		got += p.size
		n.freePacket(ctx, p)
	}
	return got, nil
}
